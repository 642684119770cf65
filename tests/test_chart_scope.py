"""One kernel walks a cycle's chart steps: ``sphere.chart_orbit`` puts the
points in their charts and ``sphere.chart_steps`` takes the steps.  No
module but ``sphere`` binds the single step (``chart_step``) or the chart
choice (``_chart_value``), and both users of cycle multipliers, the cycle
grouping in ``periodic`` and the homoclinic Newton in ``homoclinic``, bind
``chart_steps``.

As in ``test_chordal_scope``, the check reads the source of
``src/ratdyn/*.py``; a module binds a name when it imports, defines or
assigns it, under its own name or as an alias, or reads it as an attribute.
"""

import ast

from test_chordal_scope import _bound_names
from test_mpmath_scope import package_sources

STEP_NAMES = {"chart_step", "_chart_value"}


def binders(names, sources=None):
    if sources is None:
        sources = package_sources()
    return sorted(
        module
        for module, text in sources.items()
        if names & set(_bound_names(ast.parse(text)))
    )


def test_only_sphere_takes_a_single_chart_step():
    assert binders(STEP_NAMES) == ["sphere"]


def test_cycle_users_walk_the_chart_steps():
    assert {"periodic", "homoclinic"} <= set(binders({"chart_steps"}))


def test_a_step_binding_is_caught():
    cases = {
        "from .sphere import chart_step\n": True,
        "from .sphere import _chart_value as cv\n": True,
        "from . import sphere\nu = sphere._chart_value(p, False)\n": True,
        "def chart_step(f, u, a, b, exact):\n    return u, 1\n": True,
        "from .sphere import chart_orbit, chart_steps\n": False,
    }
    for text, caught in cases.items():
        assert binders(STEP_NAMES, {"periodic": text}) == (["periodic"] if caught else [])
