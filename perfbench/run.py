#!/usr/bin/env python3
"""Benchmark germlift end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; germlift is imported from its ``src``.
Set-up (import and input generation) is timed several times and reported as
its median.  Then whole passes over the workload's operations run until
``--seconds`` have gone by, each on freshly built inputs.  A traced run
alternates untraced passes and passes with every layer wrapped; its
overhead is the median difference between a traced pass and the untraced
pass before it.  Outputs are checked after the timed passes.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["paper-suite", "hk-ladder", "lift-queries", "discriminants"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def set_up(workload_cls, seed: int, probe):
    """Import germlift and make the inputs, SETUP_REPEATS times from scratch."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "germlift" or n.startswith("germlift.")]:
            del sys.modules[name]
        gc.collect()
        with probe.sampling():
            p0 = probe.wall
            t0 = time.perf_counter()
            wl = workload_cls()
            wl.prepare(seed)
            raw = time.perf_counter() - t0 - (probe.wall - p0)
        times.append(raw * probe.speed())
    return wl, statistics.median(times)


@dataclass
class Pass:
    wall: float  # times are scaled to the reference machine (tracing.PROBE_REF_S)
    cpu: float
    latencies: list
    failed: int
    record: object  # the pass's outputs as plain data, None if it broke off
    budgets: list
    counts: dict | None = None  # per-layer counters of a traced pass
    self_s: dict | None = None


def one_pass(wl, timer, tracer=None) -> Pass:
    probe = timer.probe
    gc.collect()
    timer.begin_pass()
    if tracer:
        tracer.begin_pass()
    with probe.sampling():
        pw0, pc0 = probe.wall, probe.cpu
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            record, budgets = wl.run_pass(timer)
        except Exception:  # a pass that breaks off fails as a whole
            traceback.print_exc()
            record, budgets = None, []
        wall = time.perf_counter() - w0 - (probe.wall - pw0)
        cpu = time.process_time() - c0 - (probe.cpu - pc0)
    speed = probe.speed()
    p = Pass(wall * speed, cpu * speed, [x * speed for x in timer.latencies],
             timer.failed if record is not None else wl.n_ops, record, budgets)
    if tracer:
        p.counts = tracer.counts()
        p.self_s = {k: v * speed for k, v in tracer.self_s.items()}
    return p


def run_passes(wl, timer, seconds) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(one_pass(wl, timer))
    return passes


def run_traced(wl, timer, tracer, seconds):
    """Untraced and traced passes in turn, so that both halves see the same
    warm-up and the same drift of the machine."""
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        untraced.append(one_pass(wl, timer))
        tracer.install()
        try:
            traced.append(one_pass(wl, timer, tracer))
        finally:
            tracer.uninstall()
    return untraced, traced


def fail_unsteady(passes, n_ops: int):
    """A pass whose outputs or per-layer counts differ from the previous
    pass's fails as a whole."""
    prev = None
    for cur in passes:
        if cur.record is None:
            continue
        seen = (cur.record, cur.budgets, cur.counts)
        if prev is not None and seen != prev:
            print("perfbench: pass outputs or counts differ from the previous pass",
                  file=sys.stderr)
            cur.failed = n_ops
        prev = seen


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def end_to_end(passes, setup_s):
    med = statistics.median
    timed = [p for p in passes if p.latencies]
    every = [x for p in timed for x in p.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (med(p.wall for p in passes), "s"),
        "cpu_s": (med(p.cpu for p in passes), "s"),
        "slowest_op_s": (med(max(p.latencies) for p in timed), "s"),
        "op_p50_ms": (1000 * med(every), "ms"),
        # per pass, at the same rank in every pass, then the median: pooled,
        # the 90% rank of few passes can fall at the edge of one
        # operation's samples and read that operation's noise
        "op_p90_ms": (1000 * med(p90(p.latencies) for p in timed), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(untraced, traced):
    from tracing import LAYER_NAMES

    med = statistics.median
    counts, budgets = traced[0].counts, traced[0].budgets
    totals = {k: sum(b.get(k, 0) for b in budgets)
              for k in ("reductions", "s_pairs", "zero_reductions")}
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (counts["calls"][name], "count")
        out[f"{name}.self_s"] = (med(p.self_s[name] for p in traced), "s")
    out["groebner.compute_gb.builds"] = (counts["builds"], "count")
    out["groebner.reductions_charged"] = (totals["reductions"], "count")
    out["groebner.s_pairs"] = (totals["s_pairs"], "count")
    out["groebner.zero_reductions"] = (totals["zero_reductions"], "count")
    # 1.0 when no S-pair was charged: nothing was wasted
    ratio = 1 - totals["zero_reductions"] / totals["s_pairs"] if totals["s_pairs"] else 1.0
    out["groebner.useful_pair_ratio"] = (ratio, "ratio")
    out["groebner.basis_elements"] = (counts["basis_elements"], "count")
    out["groebner.max_coeff_bits"] = (counts["max_coeff_bits"], "bits")
    # each traced pass against the untraced pass just before it
    out["trace_overhead_s"] = (med(t.wall - u.wall for u, t in zip(untraced, traced)), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    missing = [p for p in (src / "germlift" / "__init__.py", ROOT / "tools" / "make_fixtures.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a germlift checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import tracing
    import workloads

    probe = tracing.Probe()
    wl, setup_s = set_up(workloads.WORKLOADS[args.workload], args.seed, probe)
    timer = tracing.OpTimer(probe)
    if args.trace:
        tracer = tracing.Tracer(timer)
        untraced, traced = run_traced(wl, timer, tracer, args.seconds)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        fail_unsteady(untraced, wl.n_ops)
        fail_unsteady(traced, wl.n_ops)
        passes = untraced + traced
        metrics = per_layer(untraced, traced)
    else:
        passes = run_passes(wl, timer, args.seconds)
        fail_unsteady(passes, wl.n_ops)
        metrics = end_to_end(passes, setup_s)  # peak RSS is read before any check runs

    good = next((p for p in passes if p.record is not None), None)
    errors = wl.check(good.record, args.seed) if good else ["no pass completed"]
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": wl.n_ops * len(passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
