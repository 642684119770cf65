"""No module of the package imports mpmath: every computation has an exact
or double-precision route (the 60-digit homoclinic orbits survive only as
the test reference ``mp_reference.py``).

The check reads the source of ``src/ratdyn/*.py``, not ``sys.modules``,
because sympy imports mpmath itself.
"""

import ast
import os

PKG = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src", "ratdyn"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def package_sources():
    sources = {}
    for fname in sorted(os.listdir(PKG)):
        if fname.endswith(".py"):
            with open(os.path.join(PKG, fname), encoding="utf-8") as fh:
                sources[fname[:-3]] = fh.read()
    return sources


def mpmath_importers(sources=None):
    if sources is None:
        sources = package_sources()
    return sorted(
        module
        for module, text in sources.items()
        if any(name.split(".")[0] == "mpmath" for name in _imported_modules(ast.parse(text)))
    )


def test_no_module_imports_mpmath():
    assert mpmath_importers() == []


def test_an_import_inside_a_function_is_found():
    sources = {
        "scratch": "def f():\n    import mpmath as mp\n    return mp.mpf(1)\n",
        "other": "from mpmath.libmp import mpf_add\n",
        "clean": "import math\nfrom .polys import hom_eval\n",
        "homoclinic": "import mpmath as mp\n",
    }
    assert mpmath_importers(sources) == ["homoclinic", "other", "scratch"]


def test_a_homoclinic_run_loads_no_mpmath():
    from test_irreducible import _fresh

    code = (
        "import sys\n"
        "from ratdyn import build_map, exponent_sequence, find_seed\n"
        "f = build_map([-1, 0, 1], [1])\n"
        "exponent_sequence(f, find_seed(f, (1 + 5 ** 0.5) / 2), 9, 12)\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert _fresh(code) == ["False"]
