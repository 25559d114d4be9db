#!/usr/bin/env python3
"""Compare two revisions on perfbench in alternating pairs.

    python3 tools/ab_bench.py BASE CHANGE --workload hk-ladder --pairs 10

Each revision is extracted with ``git archive`` into its own temporary
directory, so both run from committed files alone.  Each pair
runs ``perfbench/run.py`` once on each side, with the same arguments; the
side that runs first alternates from pair to pair, so drift of the machine
falls on both alike.  For each workload and metric the script prints each
side's median and interquartile range (IQR) and the number of pairs the
change won.  A metric's better direction comes from ``BENCHMARK.json`` in
CHANGE; ties count for neither side.

To compare uncommitted work, pass ``$(git stash create)`` as CHANGE: it
names a commit of the index and the work tree without touching either.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="the parent revision")
    p.add_argument("change", help="the revision to compare against it")
    p.add_argument("--workload", action="append", required=True,
                   help="a perfbench workload; repeat for several")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--json", type=Path, default=None,
                   help="also write every run's result to this file")
    return p.parse_args(argv)


def extract(rev: str, dest: Path) -> Path:
    """``git archive`` of ``rev`` unpacked into ``dest``, which must not exist."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(checkout: Path, workload: str, args) -> dict:
    """One perfbench run in ``checkout``: its last line of output, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[float], change: list[float], better: str) -> dict:
    """Medians, IQRs and the change's wins over paired runs of one metric."""
    bq, cq = quartiles(base), quartiles(change)
    if better == "lower":
        wins = sum(c < b for b, c in zip(base, change))
    else:
        wins = sum(c > b for b, c in zip(base, change))
    return {"base_median": bq[1], "base_iqr": bq[2] - bq[0],
            "change_median": cq[1], "change_iqr": cq[2] - cq[0],
            "delta": (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0,
            "wins": wins, "pairs": len(base)}


def directions(checkout: Path) -> dict[str, str]:
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}


def report(results: dict, better: dict[str, str]) -> None:
    for workload, sides in results.items():
        base, change = sides["base"], sides["change"]
        print(f"\n{workload}: {len(base)} pairs; correct "
              f"{sum(r['correct'] for r in base)}/{len(base)} base, "
              f"{sum(r['correct'] for r in change)}/{len(change)} change; failed ops "
              f"{sum(r['failed'] for r in base)} base, {sum(r['failed'] for r in change)} change")
        print(f"  {'metric':<40} {'base median':>12} {'IQR':>10} "
              f"{'change median':>14} {'IQR':>10} {'delta':>8} {'wins':>6}")
        for name in base[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in base],
                          [r["metrics"][name]["value"] for r in change],
                          better.get(name, "lower"))
            print(f"  {name:<40} {s['base_median']:>12.5g} {s['base_iqr']:>10.3g} "
                  f"{s['change_median']:>14.5g} {s['change_iqr']:>10.3g} "
                  f"{s['delta']:>+8.1%} {s['wins']:>3}/{s['pairs']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    try:
        sides = {"base": extract(args.base, tmp / "base"),
                 "change": extract(args.change, tmp / "change")}
        results = {w: {"base": [], "change": []} for w in args.workload}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in args.workload:
                for side in order:
                    results[workload][side].append(run_once(sides[side], workload, args))
                print(f"pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr)
        if args.json is not None:
            args.json.write_text(json.dumps(results, indent=1))
        report(results, directions(sides["change"]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
