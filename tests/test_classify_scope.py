"""The classifier has one exact path: ``exceptional`` reads every exact
multiplier through its own field walk (``_exact_field_violation`` over
``spectra.multiplier_factors``) and binds neither the whole-spectrum
container (``algebraic_spectrum``) nor its integrality verdict
(``integrality``), whose "all algebraic integers" rule is looser than the
walk's one imaginary quadratic field.

As in ``test_chordal_scope``, the check reads the source of
``src/ratdyn/*.py``; a module binds a name when it imports, defines or
assigns it, under its own name or as an alias, or reads it as an attribute.
"""

import ast

from test_chordal_scope import _bound_names
from test_mpmath_scope import package_sources

SECOND_PATH = {"algebraic_spectrum", "integrality"}


def binders(names, sources=None):
    if sources is None:
        sources = package_sources()
    return sorted(
        module
        for module, text in sources.items()
        if module == "exceptional" and names & set(_bound_names(ast.parse(text)))
    )


def test_exceptional_binds_no_second_spectra_path():
    assert binders(SECOND_PATH) == []


def test_the_walk_is_the_exact_path():
    assert {"_exact_field_violation", "multiplier_factors"} <= set(
        _bound_names(ast.parse(package_sources()["exceptional"])))


def test_a_second_path_binding_is_caught():
    cases = {
        "from .spectra import algebraic_spectrum, integrality\n": True,
        "from .spectra import integrality as verdict\n": True,
        "def f(g):\n    from . import spectra\n    return spectra.algebraic_spectrum(g, 3)\n": True,
        "def integrality(spec):\n    return True\n": True,
        "from .spectra import multiplier_factors\nintegral = 1\n": False,
    }
    for text, caught in cases.items():
        assert binders(SECOND_PATH, {"exceptional": text}) == (["exceptional"] if caught else [])
    assert binders(SECOND_PATH, {"cli": "from .spectra import integrality\n"}) == []
