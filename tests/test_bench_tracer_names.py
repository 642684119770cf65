"""bench/tracer.py wraps ratdyn functions by name from outside the package,
and a name it cannot find would silently read 0 in its per-layer metric.
Every name in its LAYERS table must therefore still exist in the ratdyn
module of its layer.  The table is read from the tracer's source, which
this test does not import or change."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _layers():
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no LAYERS table")


def test_every_traced_name_exists_in_its_module():
    layers = _layers()
    assert "spectra" in layers and "multiplier_factors" in layers["spectra"]
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module("ratdyn." + layer)
        for name in names:
            obj = module
            for part in name.split("."):  # "Class.method" names a method
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert missing == []
