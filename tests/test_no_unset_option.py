"""Every defaulted parameter in the package is passed by some call.

A parameter with a default that no call sets is a constant dressed as an
option: it widens the signature and hides the one value the code runs
with.  The census collects the defaulted parameters of every function
and method defined in ``src/ratdyn/*.py``, and every call in
``src/ratdyn``, ``tests/`` and ``bench/``.  A call matches a definition by
name alone (``f(...)``, ``x.f(...)``); a class's constructor is matched by
calls of the class.  A call passes a parameter when it names it as a
keyword or passes enough positional arguments to reach it; a call with
``*args`` or ``**kw`` counts as passing everything.  The check fails on
any defaulted parameter that no call passes, apart from ``EXEMPT``.
"""

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = os.path.join(ROOT, "src", "ratdyn")
CALLERS = (PKG, HERE, os.path.join(ROOT, "bench"))
EXEMPT = {
    # ROADMAP item 7 sweeps the postcritical depth and tolerance
    "exceptional.classify(depth)": "the orbifold scan's depth, swept by item 7",
    "exceptional.classify(tol)": "the orbifold scan's tolerance, swept by item 7",
}


def _read(folder):
    out = {}
    for fname in sorted(os.listdir(folder)):
        if fname.endswith(".py"):
            with open(os.path.join(folder, fname), encoding="utf-8") as fh:
                out[fname[:-3]] = fh.read()
    return out


def _defaulted(tree, module):
    """(qualified name, call name, positional index or None, parameter) of
    every defaulted parameter; the index skips ``self``/``cls``."""
    todo = [(node, module, None) for node in tree.body]
    while todo:
        node, prefix, cls = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(item, f"{prefix}.{node.name}", node.name) for item in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            skip = 1 if cls is not None and not static else 0
            name = cls if node.name == "__init__" and cls else node.name
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield f"{prefix}.{node.name}({arg.arg})", name, i - skip, arg.arg
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{prefix}.{node.name}({arg.arg})", name, None, arg.arg
            todo += [(item, f"{prefix}.{node.name}", None) for item in node.body]


def _calls(tree):
    """(callee name, positional count, keyword names, starred) of every
    call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        yield name, len(node.args), {k.arg for k in node.keywords}, starred


def unset_options(package=None, callers=None):
    """Defaulted parameters of `package` ({module: source}) that no call in
    `package` or `callers` (a list of sources) passes, minus EXEMPT."""
    if package is None:
        package = _read(PKG)
        callers = [text for folder in CALLERS[1:] for text in _read(folder).values()]
    by_name: dict[str, list] = {}
    for text in list(package.values()) + list(callers or []):
        for name, npos, keywords, starred in _calls(ast.parse(text)):
            by_name.setdefault(name, []).append((npos, keywords, starred))
    out = []
    for module, text in package.items():
        for qual, name, index, param in _defaulted(ast.parse(text), module):
            passed = any(
                starred or param in keywords or (index is not None and npos > index)
                for npos, keywords, starred in by_name.get(name, [])
            )
            if not passed and qual not in EXEMPT:
                out.append(qual)
    return sorted(out)


def test_every_defaulted_parameter_is_passed_somewhere():
    assert unset_options() == []


def test_an_unset_option_is_caught():
    package = {
        "scratch": """
class Grid:
    def __init__(self, n, step=1.0, wrap=False):
        self.n = n

    def cells(self, order="row"):
        return []

    @staticmethod
    def blank(width=4):
        return Grid(width)


def solve(f, tol=1e-9, *, max_iter=50):
    def inner(x, scale=2):
        return x
    return inner(f)


def kernel(x, floor=0.0):
    return x
"""
    }
    callers = [
        "solve(g, 1e-6)\n",
        "Grid(3, wrap=True).cells()\n",
        "kernel(*args)\n",
        "Grid.blank(8)\n",
    ]
    assert unset_options(package, callers) == [
        "scratch.Grid.__init__(step)",
        "scratch.Grid.cells(order)",
        "scratch.solve(max_iter)",
        "scratch.solve.inner(scale)",
    ]
