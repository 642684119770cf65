"""Every name the package defines has a caller, and every import a use.

Collects module-level functions, classes and constants plus the non-dunder
methods of module-level classes in ``src/ratdyn/*.py``, and fails on any
that is not referenced in ``src/ratdyn`` or ``tests/`` outside its own
definition.  A function, class or constant is referenced when it is read as
a name or an attribute; a method only when it is read as an attribute
(``x.name`` or ``Class.name``), so a local variable or parameter that
happens to share its name does not count.  For a method whose name a
builtin or numpy type also has (``take``, ``count``, ``conj``, ...), a read
on a receiver that is plainly such a value does not count either: a
literal, a call of a builtin type (``float(x).is_integer()``) or an
expression rooted at ``np``/``numpy``.  Names that
``ratdyn/__init__.py`` re-exports are public API and exempt, as is the
console entry point ``cli.main``.

A second check fails on any name an ``import`` binds in ``src/ratdyn/*.py``
or ``tests/*.py`` that its scope (the module, or the function holding the
import) never reads.  ``ratdyn/__init__.py`` is exempt: its imports are the
re-exports.
"""

import ast
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.normpath(os.path.join(HERE, "..", "src", "ratdyn"))
EXEMPT = {("cli", "main")}
BUILTIN_TYPES = (int, float, complex, str, bytes, list, tuple, dict, set, frozenset)
SHARED_METHODS = frozenset(
    name
    for typ in BUILTIN_TYPES + (np.ndarray, np.generic)
    for name in dir(typ)
    if not name.startswith("_")
)
LITERALS = (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Dict, ast.Set)


def _sources():
    out = {}
    for folder in (PKG, HERE):
        for fname in sorted(os.listdir(folder)):
            if fname.endswith(".py"):
                path = os.path.join(folder, fname)
                with open(path, encoding="utf-8") as fh:
                    out[path] = ast.parse(fh.read(), filename=path)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, name, first line, last line) of every collected
    definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node.lineno, node.end_lineno
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _is_dunder(item.name):
                        qual = f"{node.name}.{item.name}"
                        yield qual, item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not _is_dunder(t.id):
                    yield t.id, t.id, node.lineno, node.end_lineno


def _builtin_receiver(node) -> bool:
    """A literal, a call of a builtin type, or an expression rooted at np."""
    if isinstance(node, LITERALS):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {t.__name__ for t in BUILTIN_TYPES}:
            return True
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _references(tree):
    """(name, line, kind) of every name or attribute read; kind is "name",
    "attr", or "builtin" for an attribute read on a builtin receiver."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            kind = "builtin" if _builtin_receiver(node.value) else "attr"
            yield node.attr, node.lineno, kind


def _exported():
    with open(os.path.join(PKG, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def uncalled_names(trees=None):
    trees = _sources() if trees is None else trees
    refs: dict[str, list[tuple[str, int, str]]] = {}
    for path, tree in trees.items():
        for name, line, kind in _references(tree):
            refs.setdefault(name, []).append((path, line, kind))
    exported = _exported()
    out = []
    for path, tree in trees.items():
        if os.path.dirname(path) != PKG or path.endswith("__init__.py"):
            continue
        module = os.path.basename(path)[:-3]
        for qual, name, lo, hi in _definitions(tree):
            if qual in exported or (module, qual) in EXEMPT:
                continue
            if "." not in qual:
                counts = {"name", "attr", "builtin"}
            elif name in SHARED_METHODS:
                counts = {"attr"}
            else:
                counts = {"attr", "builtin"}
            used = any(
                not (p == path and lo <= line <= hi) and kind in counts
                for p, line, kind in refs.get(name, [])
            )
            if not used:
                out.append(f"{module}.{qual}")
    return sorted(out)


def test_every_defined_name_has_a_caller():
    assert uncalled_names() == []


def test_a_method_is_not_called_by_a_variable_of_its_name():
    # the shape that once hid an uncalled ResidueField.zero: a parameter
    # named like the method is read, the method itself never is
    source = """
class Ring:
    def zero(self):
        return 0

    def one(self):
        return 1


def pad(p, zero=0):
    return list(p) + [zero]


def unit():
    return Ring().one()


pad([unit()])
"""
    trees = {os.path.join(PKG, "scratch_module.py"): ast.parse(source)}
    assert uncalled_names(trees) == ["scratch_module.Ring.zero"]


def test_a_builtin_method_of_the_same_name_is_not_a_call():
    # the shape that once hid an uncalled Qi.is_integer: float(x).is_integer()
    # read the builtin method; literals and numpy receivers are alike
    source = """
import numpy as np


class Num:
    def is_integer(self):
        return True

    def take(self, k):
        return k

    def count(self):
        return 0

    def conj(self):
        return self

    def scaled(self):
        return self


float(0.5).is_integer()
np.asarray([1, 2]).take(0)
"abc".count("a")
(1j).conj()
Num().conj()
num = Num()
num.scaled()
"""
    trees = {os.path.join(PKG, "scratch_module.py"): ast.parse(source)}
    assert uncalled_names(trees) == [
        "scratch_module.Num.count",
        "scratch_module.Num.is_integer",
        "scratch_module.Num.take",
    ]


def _bound_imports(scope):
    """(bound name, line) of the imports made directly in a module or
    function body, nested blocks included, nested functions excluded."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        todo.extend(ast.iter_child_nodes(node))


def unused_imports(trees=None):
    trees = _sources() if trees is None else trees
    out = []
    for path, tree in trees.items():
        if path == os.path.join(PKG, "__init__.py"):
            continue
        scopes = [tree] + [
            n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            read = {
                n.id
                for n in ast.walk(scope)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
            }
            for name, line in _bound_imports(scope):
                if name not in read:
                    out.append(f"{os.path.relpath(path, os.path.dirname(HERE))}:{line}: {name}")
    return sorted(out)


def test_every_import_is_used():
    assert unused_imports() == []
