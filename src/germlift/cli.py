"""Command line front-end.

Subcommands: lift-check, from-unfolding, derlog, augment, paper-suite.
Exit codes: 0 all checks pass, 2 a check failed, 3 a resource budget ran
out, 64 usage error (including an ``--only`` prefix that no task id starts
with, and a task built from the arguments that ``manifest.check_task``
rejects, as it rejects a manifest's tasks), 65 bad manifest data.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ManifestError, SchemaError
from .groebner import Budget
from .manifest import TASKS, check_task, load_manifest
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
    """A limit in seconds: a number >= 0, ``inf`` for none.  NaN is
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

    # each subcommand builds one task: its "op" and "id" from the templates
    # below, and every key of the op that an argument of the same name holds
    sp = sub.add_parser("lift-check", help="certify liftability of fields")
    _add_common(sp)
    sp.add_argument("--map", required=True)
    sp.add_argument("--fields", required=True)
    sp.add_argument("--expect", default="certified", help="certified or obstructed")
    sp.set_defaults(op="lift_check", id="lift-check.{map}.{fields}")

    sp = sub.add_parser("from-unfolding", help="compute Lift(core) from an unfolding")
    _add_common(sp)
    sp.add_argument("--unfolding", required=True)
    sp.add_argument("--fields", required=True,
                    help="generating set of the unfolding's liftable fields")
    sp.add_argument("--expect", default=None, help="expected generator table")
    sp.set_defaults(op="pipeline", id="from-unfolding.{unfolding}")

    sp = sub.add_parser("derlog", help="logarithmic vector fields of a divisor")
    _add_common(sp)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--mode", default="delta", help="strict or delta")
    sp.add_argument("--expect", default=None)
    sp.set_defaults(op="derlog", id="derlog.{divisor}.{mode}")

    sp = sub.add_parser("augment", help="augmentation checks")
    _add_common(sp)
    sp.add_argument("--augmentation", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--check", choices=["tilde", "pi2", "descend"], required=True)
    sp.add_argument("--expect-ideal", nargs="*", default=None)
    sp.set_defaults(op="augment_{check}", id="augment.{augmentation}.{check}.k{k}")

    sp = sub.add_parser("paper-suite", help="replay every bundled verification task")
    _add_common(sp, manifest_required=False)
    sp.add_argument("--only", default=None, help="run only tasks whose id has this prefix")
    return p


def _timeout(args, parser) -> float | None:
    """``--timeout``, else ``GERMLIFT_TIMEOUT``, else no limit."""
    if args.timeout is not None:
        return args.timeout
    env = os.environ.get("GERMLIFT_TIMEOUT")
    if not env:
        return None
    try:
        return _seconds(env)
    except argparse.ArgumentTypeError as e:
        parser.error(f"GERMLIFT_TIMEOUT: {e}")


def _task(args) -> dict:
    task = {"id": args.id.format_map(vars(args)), "op": args.op.format_map(vars(args))}
    keys = [key.rstrip("?") for key in TASKS[task["op"]]]
    task.update((k, getattr(args, k)) for k in keys if getattr(args, k, None) is not None)
    return task


def _resolve(manifests, task):
    """The manifest that holds the name under the task's first key; the
    first manifest if none does, so that the check reports it unresolved."""
    key, ref = next(iter(TASKS[task["op"]].items()))
    for m in manifests:
        if task[key] in getattr(m, ref.registry):
            return m
    return manifests[0]


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
    seconds = _timeout(args, parser)

    try:
        manifests = [load_manifest(p) for p in args.manifest]
    except ManifestError as e:
        print(f"germlift: manifest error: {e}", file=sys.stderr)
        return DATA_EXIT
    except OSError as e:
        print(f"germlift: cannot read manifest: {e}", file=sys.stderr)
        return DATA_EXIT

    if args.command == "paper-suite":
        try:
            reports = run_paper_suite(manifests, only=args.only, seconds=seconds)
        except ManifestError as e:
            print(f"germlift: manifest error: {e}", file=sys.stderr)
            return DATA_EXIT
        if not reports:
            parser.error(f"--only {args.only!r}: no task id starts with it")
        return _emit(reports, args)

    task = _task(args)
    m = _resolve(manifests, task)
    try:
        task = check_task(task, m, args.command)
    except SchemaError as e:
        parser.error(str(e))
    report = run_task(m, task, Budget(seconds=seconds))
    return _emit([report], args)


if __name__ == "__main__":
    sys.exit(main())
