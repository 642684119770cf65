"""sympy is imported only inside the functions that need it: factoring of
degree >= 4, non-squarefree inputs and number fields.  No module of the
package imports it at module level, so importing ``ratdyn`` and computing
the spectra of power, Chebyshev and Lattès maps never loads it.

As in ``test_mpmath_scope``, the check reads the source of
``src/ratdyn/*.py``; an import counts as module level unless it sits in a
function body (class bodies run at import, so they count).
"""

import ast

from test_mpmath_scope import package_sources

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_level_imports(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        elif not isinstance(child, FUNCTIONS):
            yield from _module_level_imports(child)


def module_level_sympy_importers(sources=None):
    if sources is None:
        sources = package_sources()
    return sorted(
        module
        for module, text in sources.items()
        if any(name.split(".")[0] == "sympy" for name in _module_level_imports(ast.parse(text)))
    )


def test_no_module_imports_sympy_at_module_level():
    assert module_level_sympy_importers() == []


def test_a_module_level_import_is_caught():
    sources = {
        "top": "import sympy\n",
        "guarded": "try:\n    from sympy.polys import Poly\nexcept ImportError:\n    Poly = None\n",
        "in_class": "class K:\n    from sympy import QQ\n",
        "lazy": "def f():\n    from sympy import factorint\n    return factorint(12)\n",
        "method": "class K:\n    def f(self):\n        import sympy\n",
        "clean": "import math\nfrom .polys import hom_eval\n",
    }
    assert module_level_sympy_importers(sources) == ["guarded", "in_class", "top"]
