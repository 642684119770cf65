"""The exact layer decides nothing by distance: ``spectra`` binds none of
the chordal metric's kernels (``chordal``, ``chordal_xy``) nor the
near-neighbour search (``near_pairs``).  Its Galois sets follow f on the
factors of dyn in residue rings, and its point counts are gcds over F_p.

As in ``test_sympy_scope``, the check reads the source of
``src/ratdyn/*.py``.  A module binds a name when it imports, defines or
assigns it, under its own name or as an alias, or reads it as an
attribute (``sphere.chordal``).
"""

import ast

from test_mpmath_scope import package_sources

CHECKED = {"spectra"}
DISTANCE_NAMES = {"chordal", "chordal_xy", "near_pairs"}


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


def distance_binders(sources=None):
    if sources is None:
        sources = package_sources()
    return sorted(
        module
        for module, text in sources.items()
        if module in CHECKED and DISTANCE_NAMES & set(_bound_names(ast.parse(text)))
    )


def test_spectra_binds_no_distance_kernel():
    assert distance_binders() == []


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
        assert distance_binders({"spectra": text}) == (["spectra"] if caught else [])
    assert distance_binders({"sphere": "def chordal(p, q):\n    return 0.0\n"}) == []
