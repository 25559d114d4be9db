"""The benchmark's traced view must keep naming functions that exist.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its ``LAYERS``
by name, so renaming or deleting one of them breaks ``perfbench/run.py
--trace 1``.  The table is read from the file's source, without importing
or running it.
"""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _layers():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    missing = []
    for module, attr in layers:
        obj = importlib.import_module(f"germlift.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
