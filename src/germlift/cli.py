"""Command line front-end.

Subcommands: lift-check, from-unfolding, derlog, augment, paper-suite.
Exit codes: 0 all checks pass, 2 a check failed, 3 a resource budget ran
out, 64 usage error (including unresolved names and an ``--only`` prefix
that no task id starts with), 65 bad manifest data.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ManifestError
from .groebner import Budget
from .manifest import DERLOG_MODES, load_manifest
from .suite import (
    Report,
    exit_code,
    reports_to_json,
    run_paper_suite,
    run_task,
)

USAGE_EXIT = 64
DATA_EXIT = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _seconds(text: str) -> float:
    """A time limit in seconds: a number >= 0, ``inf`` for none.  NaN is
    rejected too: no deadline comparison would ever catch it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"expected seconds >= 0 or inf, not {text!r}")
    return value


def _add_common(sp, manifest_required=True):
    sp.add_argument("-m", "--manifest", required=manifest_required,
                    action="append", default=[],
                    help="manifest file (repeatable)")
    sp.add_argument("--timeout", type=_seconds, default=None,
                    help="per-task budget in seconds (default: GERMLIFT_TIMEOUT)")
    sp.add_argument("--json", action="store_true", help="machine-readable report")
    sp.add_argument("--show-witness", action="store_true",
                    help="print certificates with the report")


def build_parser() -> _Parser:
    p = _Parser(prog="germlift",
                description="exact liftable-vector-field computations for map-germs")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lift-check", parents=[], help="certify liftability of fields")
    _add_common(sp)
    sp.add_argument("--map", required=True, dest="map_name")
    sp.add_argument("--fields", required=True)
    sp.add_argument("--expect", choices=["certified", "obstructed"],
                    default="certified")

    sp = sub.add_parser("from-unfolding", help="compute Lift(core) from an unfolding")
    _add_common(sp)
    sp.add_argument("--unfolding", required=True)
    sp.add_argument("--fields", required=True,
                    help="generating set of the unfolding's liftable fields")
    sp.add_argument("--expect", default=None, help="expected generator table")

    sp = sub.add_parser("derlog", help="logarithmic vector fields of a divisor")
    _add_common(sp)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--mode", choices=DERLOG_MODES, default="delta")
    sp.add_argument("--expect", default=None)

    sp = sub.add_parser("augment", help="augmentation checks")
    _add_common(sp)
    sp.add_argument("--augmentation", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--check", choices=["tilde", "pi2", "descend"], required=True)
    sp.add_argument("--expect-ideal", nargs="*", default=None)

    sp = sub.add_parser("paper-suite", help="replay every bundled verification task")
    _add_common(sp, manifest_required=False)
    sp.add_argument("--only", default=None, help="run only tasks whose id has this prefix")
    return p


def _budget_factory(args, parser):
    timeout = args.timeout
    if timeout is None:
        env = os.environ.get("GERMLIFT_TIMEOUT")
        if env:
            try:
                timeout = _seconds(env)
            except argparse.ArgumentTypeError as e:
                parser.error(f"GERMLIFT_TIMEOUT: {e}")

    def make():
        return Budget(seconds=timeout)

    return make


def _load_all(paths):
    return [load_manifest(p) for p in paths]


def _resolve(manifests, registry_name, name, parser):
    for m in manifests:
        if name in getattr(m, registry_name):
            return m
    parser.error(f"name {name!r} not found in the loaded manifests")


def _emit(reports: list[Report], args) -> int:
    if args.json:
        print(reports_to_json(reports))
    else:
        for r in reports:
            print(r.line())
            if args.show_witness:
                for cert in r.certificates:
                    print("    " + ", ".join(f"{k}: {v}" for k, v in cert.items()))
        summary = {}
        for r in reports:
            summary[r.verdict] = summary.get(r.verdict, 0) + 1
        print("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.items())))
    return exit_code(reports)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    make_budget = _budget_factory(args, parser)

    try:
        manifests = _load_all(args.manifest)
    except ManifestError as e:
        print(f"germlift: manifest error: {e}", file=sys.stderr)
        return DATA_EXIT
    except OSError as e:
        print(f"germlift: cannot read manifest: {e}", file=sys.stderr)
        return DATA_EXIT

    if args.command == "paper-suite":
        try:
            reports = run_paper_suite(manifests, only=args.only,
                                      budget_factory=make_budget)
        except ManifestError as e:
            print(f"germlift: manifest error: {e}", file=sys.stderr)
            return DATA_EXIT
        if not reports:
            parser.error(f"--only {args.only!r}: no task id starts with it")
        return _emit(reports, args)

    if args.command == "lift-check":
        m = _resolve(manifests, "maps", args.map_name, parser)
        if args.fields not in m.fields:
            parser.error(f"fields {args.fields!r} not found")
        task = {"id": f"lift-check.{args.map_name}.{args.fields}",
                "op": "lift_check", "map": args.map_name,
                "fields": args.fields, "expect": args.expect}
    elif args.command == "from-unfolding":
        m = _resolve(manifests, "unfoldings", args.unfolding, parser)
        if args.fields not in m.fields:
            parser.error(f"fields {args.fields!r} not found")
        if args.expect is not None and args.expect not in m.fields:
            parser.error(f"fields {args.expect!r} not found")
        task = {"id": f"from-unfolding.{args.unfolding}",
                "op": "pipeline", "unfolding": args.unfolding,
                "fields": args.fields}
        if args.expect is not None:
            task["expect"] = args.expect
    elif args.command == "derlog":
        m = _resolve(manifests, "divisors", args.divisor, parser)
        if args.expect is not None and args.expect not in m.fields:
            parser.error(f"fields {args.expect!r} not found")
        task = {"id": f"derlog.{args.divisor}.{args.mode}",
                "op": "derlog", "divisor": args.divisor, "mode": args.mode}
        if args.expect is not None:
            task["expect"] = args.expect
    else:  # augment
        m = _resolve(manifests, "augmentations", args.augmentation, parser)
        op = {"tilde": "augment_tilde", "pi2": "augment_pi2",
              "descend": "augment_descend"}[args.check]
        task = {"id": f"augment.{args.augmentation}.{args.check}.k{args.k}",
                "op": op, "augmentation": args.augmentation, "k": args.k}
        if args.check == "pi2":
            task["expect_ideal"] = args.expect_ideal

    report = run_task(m, task, make_budget())
    return _emit([report], args)


if __name__ == "__main__":
    sys.exit(main())
