"""Threads serve only the Aberth repulsion in ``roots``: no other module of
the package imports ``threading`` or ``concurrent.futures``, so the
package's parallelism stays in one place.

As in ``test_mpmath_scope``, the check reads the source of
``src/ratdyn/*.py``, not ``sys.modules``, because numpy imports
``threading`` itself.
"""

import ast

from test_mpmath_scope import _imported_modules, package_sources

ALLOWED = {"roots"}
THREAD_MODULES = {"threading", "concurrent"}


def thread_importers(sources=None):
    if sources is None:
        sources = package_sources()
    return sorted(
        module
        for module, text in sources.items()
        if module not in ALLOWED
        and any(name.split(".")[0] in THREAD_MODULES for name in _imported_modules(ast.parse(text)))
    )


def test_only_roots_imports_threads():
    assert thread_importers() == []


def test_an_import_inside_a_function_is_found():
    sources = {
        "worker": "def f():\n    from concurrent.futures import ThreadPoolExecutor\n",
        "other": "import threading\n",
        "aliased": "from concurrent import futures as cf\n",
        "clean": "import os\nfrom .roots import aberth\n",
        "roots": "def g():\n    from concurrent.futures import ThreadPoolExecutor\n",
    }
    assert thread_importers(sources) == ["aliased", "other", "worker"]
