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


def _run(metrics: dict) -> dict:
    return {"correct": 1, "failed": 0,
            "metrics": {name: {"value": v} for name, v in metrics.items()}}


def test_ab_bench_marks_medians_worse_than_their_bound(capsys):
    ab = _ab_bench()
    specs = {"wall_s": {"better": "lower", "bound": 0.25},
             "ratio": {"better": "higher", "bound": 0.1},
             "calls": {"better": "lower"}}
    # wall_s +30% against a 25% bound; ratio -20% against 10%; calls has no bound
    base = [_run({"wall_s": 1.0, "ratio": 1.0, "calls": 10}) for _ in range(3)]
    change = [_run({"wall_s": 1.3, "ratio": 0.8, "calls": 100}) for _ in range(3)]
    ab.report({"w": {"base": base, "change": change}}, specs)
    lines = capsys.readouterr().out.splitlines()
    marked = [line.split()[0] for line in lines if line.endswith("  OUT")]
    assert marked == ["wall_s", "ratio"]
    verdicts = [line for line in lines if "verdict" in line]
    assert verdicts == ["w: verdict: out of bound: wall_s +30.0% (bound 25%), "
                        "ratio -20.0% (bound 10%)"]
    # inside the bounds, and better: one verdict line, nothing marked
    change = [_run({"wall_s": 1.2, "ratio": 0.95, "calls": 1}) for _ in range(3)]
    ab.report({"w": {"base": base, "change": change},
               "v": {"base": base, "change": base}}, specs)
    lines = capsys.readouterr().out.splitlines()
    assert not any(line.endswith("OUT") for line in lines)
    assert [line for line in lines if "verdict" in line] == [
        "w: verdict: every bounded metric within its bound",
        "v: verdict: every bounded metric within its bound"]
    s = ab.summarize([1.0, 1.0], [1.25, 1.25], "lower")
    assert not ab.out_of_bound(s, "lower", 0.25)  # exactly at the bound
    assert ab.out_of_bound(s, "higher", 0.1) is False  # better in that direction
