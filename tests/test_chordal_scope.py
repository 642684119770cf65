"""The exact layer decides nothing by distance and computes nothing in
floats: ``spectra`` binds none of the chordal metric's kernels
(``chordal``, ``chordal_xy``) nor the near-neighbour search
(``near_pairs``), and none of numpy, the numeric solver (``solve_poly``,
``roots``), the Q(i) scalars and points (``Qi``, ``ProjPoint``, ``INF``) or
the chart-step cycle multiplier (``periodic.multiplier``).  Its
multipliers, Infinity's included, come from one orbit loop in residue
rings, and its point counts are gcds over F_p.

As in ``test_sympy_scope``, the check reads the source of
``src/ratdyn/*.py``.  A module binds a name when it imports, defines or
assigns it, under its own name or as an alias, or reads it as an
attribute (``sphere.chordal``).
"""

import ast

from test_mpmath_scope import package_sources

CHECKED = {"spectra"}
DISTANCE_NAMES = {"chordal", "chordal_xy", "near_pairs"}
NUMERIC_NAMES = {"np", "numpy", "solve_poly", "roots", "Qi", "ProjPoint", "INF", "multiplier"}


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]
                yield alias.asname
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def binders(names, sources=None):
    if sources is None:
        sources = package_sources()
    return sorted(
        module
        for module, text in sources.items()
        if module in CHECKED and names & set(_bound_names(ast.parse(text)))
    )


def test_spectra_binds_no_distance_kernel():
    assert binders(DISTANCE_NAMES) == []


def test_a_binding_is_caught():
    cases = {
        "from .sphere import INF, chordal\n": True,
        "from .sphere import chordal_xy as cxy\n": True,
        "def f(roots):\n    from .sphere import near_pairs\n    return near_pairs\n": True,
        "from . import sphere\nd = sphere.chordal(p, q)\n": True,
        "def chordal(p, q):\n    return 0.0\n": True,
        "from .sphere import INF, hom_eval\nchordality = 1\n": False,
    }
    for text, caught in cases.items():
        assert binders(DISTANCE_NAMES, {"spectra": text}) == (["spectra"] if caught else [])
    assert binders(DISTANCE_NAMES, {"sphere": "def chordal(p, q):\n    return 0.0\n"}) == []


def test_spectra_binds_no_numeric_name():
    assert binders(NUMERIC_NAMES) == []


def test_a_numeric_binding_is_caught():
    cases = {
        "import numpy as np\n": True,
        "import numpy\n": True,
        "from .periodic import multiplier as cycle_multiplier\n": True,
        "from .sphere import INF, RationalMap\n": True,
        "from .sphere import ProjPoint\n": True,
        "from .scalars import Qi\n": True,
        "def f(q):\n    from .roots import solve_poly\n    return solve_poly(q)\n": True,
        "from . import roots\n": True,
        "from . import periodic\nlam = periodic.multiplier(f, orbit)\n": True,
        "from .sphere import RationalMap, hom_eval\nrational_roots = 1\n": False,
        "acc = field.multiplier_orbit(pair, n)\n": False,
    }
    for text, caught in cases.items():
        assert binders(NUMERIC_NAMES, {"spectra": text}) == (["spectra"] if caught else [])
    assert binders(NUMERIC_NAMES, {"periodic": "import numpy as np\n"}) == []
