"""The benchmark's traced view must keep naming functions that exist.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its ``LAYERS``
by name, so renaming or deleting one of them breaks ``perfbench/run.py
--trace 1``.  The table is read from the file's source, without importing
or running it.
"""

import ast
import importlib
import importlib.util
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


def _ab_bench():
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "ab_bench.py")
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_ab_bench_summary_counts_wins_in_the_better_direction():
    summarize = _ab_bench().summarize
    base, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 4.0]
    s = summarize(base, change, "lower")
    assert (s["base_median"], s["base_iqr"]) == (3.0, 2.0)
    assert (s["change_median"], s["change_iqr"]) == (3.0, 1.5)
    # the tie at 2.0 counts for neither side
    assert (s["wins"], s["pairs"]) == (3, 5)
    assert summarize(base, change, "higher")["wins"] == 1
