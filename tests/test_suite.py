import json
import sys
import time
from pathlib import Path

import pytest

from germlift import exprio
from germlift.errors import SchemaError
from germlift.groebner import Budget
from germlift.manifest import load_manifest, loads
from germlift.suite import (
    BUNDLED_FIXTURES,
    FAIL,
    PASS,
    TIMEOUT,
    UNDECIDED_LOCAL,
    Report,
    exit_code,
    instance_note,
    reports_to_json,
    run_manifest,
    run_paper_suite,
    bundled_manifests,
    run_task,
)

from conftest import fixture_path


def _fold_manifest(weights=False):
    doc = {
        "schema": "germlift-manifest/1",
        "rings": {
            "src": {"vars": ["x", "lam"]},
            "tgt": {"vars": ["X", "Lam"]},
        },
        "maps": {
            "g": {"source": "src", "target": "tgt", "components": ["x", "lam^2"]},
        },
        "unfoldings": {},
        "fields": {
            "updir": {"ring": "tgt", "elements": [["0", "1"]]},
        },
        "divisors": {},
        "tasks": [],
    }
    if weights:
        doc["rings"]["src"]["weights"] = [1, 1]
        doc["rings"]["tgt"]["weights"] = [1, 2]
    return loads(json.dumps(doc))


def test_undecided_local_on_ungraded_instance():
    m = _fold_manifest(weights=False)
    task = {"id": "t", "op": "lift_check", "map": "g", "fields": "updir",
            "expect": "certified"}
    report = run_task(m, task)
    assert report.verdict == UNDECIDED_LOCAL


def test_conclusive_fail_on_graded_instance():
    m = _fold_manifest(weights=True)
    task = {"id": "t", "op": "lift_check", "map": "g", "fields": "updir",
            "expect": "certified"}
    report = run_task(m, task)
    assert report.verdict == FAIL


def test_exit_codes():
    assert exit_code([Report("a", PASS)]) == 0
    assert exit_code([Report("a", PASS), Report("b", FAIL)]) == 2
    assert exit_code([Report("a", TIMEOUT)]) == 3
    assert exit_code([Report("a", UNDECIDED_LOCAL)]) == 2


def test_report_json_shape():
    text = reports_to_json([Report("a", PASS, ["ok"])])
    doc = json.loads(text)
    assert doc["schema"] == "germlift-report/1"
    assert doc["summary"]["pass"] == 1


def test_instance_note_mentions_all_instances():
    note = instance_note()
    assert "k=2,3,4,5" in note.details[0]


def test_run_manifest_only_filter():
    from germlift.manifest import load_manifest

    m = load_manifest(fixture_path("hk.manifest.json"))
    reports = run_manifest(m, only="hk2.certify")
    assert [r.task_id for r in reports] == ["hk2.certify"]


def test_poly_arith_operators(xy, P):
    a = P("x + y", xy)
    b = P("x - y", xy)
    assert a + b == P("2*x", xy)
    assert a - b == P("2*y", xy)
    assert a * b == P("x^2 - y^2", xy)


@pytest.mark.parametrize("fixture, task_id", [
    ("hk.manifest.json", "hk2.pipeline"), ("augment.manifest.json", "aug.derlog_H")])
def test_task_without_expect_loads_and_passes(fixture, task_id):
    # the CLI's from-unfolding and derlog build such tasks; a manifest may too
    doc = json.loads(Path(fixture_path(fixture)).read_text(encoding="utf-8"))
    task = next(t for t in doc["tasks"] if t["id"] == task_id)
    del task["expect"]
    doc["tasks"] = [task]
    m = loads(json.dumps(doc))
    report = run_task(m, m.tasks[0])
    assert report.verdict == PASS
    assert "equality" not in report.details[0]


def test_raw_task_with_an_unresolved_name_is_schema_error():
    # run_task checks a task that did not come from m.tasks against m first
    m = _fold_manifest()
    task = {"id": "t", "op": "lift_check", "map": "nope", "fields": "updir",
            "expect": "certified"}
    with pytest.raises(SchemaError, match="unresolved name 'nope'"):
        run_task(m, task)


def test_bad_inverse_reports_fail_not_crash():
    doc = {
        "schema": "germlift-manifest/1",
        "rings": {"t": {"vars": ["X", "Y"]}},
        "maps": {
            "g": {"source": "t", "target": "t", "components": ["X", "Y - X^2"]},
            "not_inverse": {"source": "t", "target": "t",
                            "components": ["X", "Y - X^2"]},
        },
        "unfoldings": {},
        "fields": {"one": {"ring": "t", "elements": [["X", "Y"]]}},
        "divisors": {},
        "tasks": [],
    }
    m = loads(json.dumps(doc))
    task = {"id": "t", "op": "transport_table", "map": "g",
            "inverse": "not_inverse", "fields": "one", "expect": "one"}
    report = run_task(m, task)
    assert report.verdict == FAIL
    assert "InverseCheckFailed" in report.details[0]


def test_every_reduction_is_charged_to_the_task_budget(monkeypatch):
    # a class-level hook sees every reduction of every kernel run; each
    # bundled task's report must account for all of them
    calls = []
    charge = Budget.charge_reduction

    def counting(self):
        calls.append(1)
        return charge(self)

    monkeypatch.setattr(Budget, "charge_reduction", counting)
    tasks = 0
    for m in bundled_manifests():
        for task in m.tasks:
            calls.clear()
            report = run_task(m, task)
            assert report.verdict == PASS, task["id"]
            assert len(calls) == report.counters["reductions"], task["id"]
            tasks += 1
    assert tasks == 46


def test_running_loaded_tasks_parses_no_expression(monkeypatch):
    # loading parses every expression once; the runners read what was parsed
    manifests = bundled_manifests()
    calls = []
    parse = exprio.parse_poly

    def counting(*args, **kwargs):
        calls.append(1)
        return parse(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("germlift") and getattr(module, "parse_poly", None) is parse:
            monkeypatch.setattr(module, "parse_poly", counting)
    for m in manifests:
        for task in m.tasks:
            run_task(m, task)
    assert len(calls) == 0


# The counters of every task in the paper-suite report.  Each task runs with
# fresh germ caches, so each count is a function of the task alone.  Reduced bases are
# unique: a kernel change that keeps the algorithm keeps these exactly, and a
# change in any of them means the kernel does different work.  The algorithm
# includes each module's working order: field modules that only answer
# membership work under grevlex (``modules.membership_module``).
PINNED_COUNTERS = {
    "hk2.certify": {"reductions": 20, "s_pairs": 1, "zero_reductions": 0},
    "hk2.bogus": {"reductions": 4, "s_pairs": 1, "zero_reductions": 0},
    "hk2.lift_F_valid": {"reductions": 47, "s_pairs": 1, "zero_reductions": 0},
    "hk2.transport": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk2.combinations": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk2.tau": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk2.pipeline": {"reductions": 837, "s_pairs": 83, "zero_reductions": 44},
    "hk3.certify": {"reductions": 20, "s_pairs": 1, "zero_reductions": 0},
    "hk3.bogus": {"reductions": 4, "s_pairs": 1, "zero_reductions": 0},
    "hk3.lift_F_valid": {"reductions": 47, "s_pairs": 1, "zero_reductions": 0},
    "hk3.transport": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk3.combinations": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk3.tau": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk3.pipeline": {"reductions": 528, "s_pairs": 90, "zero_reductions": 52},
    "hk4.certify": {"reductions": 20, "s_pairs": 1, "zero_reductions": 0},
    "hk4.bogus": {"reductions": 4, "s_pairs": 1, "zero_reductions": 0},
    "hk4.lift_F_valid": {"reductions": 47, "s_pairs": 1, "zero_reductions": 0},
    "hk4.transport": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk4.combinations": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk4.tau": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk4.pipeline": {"reductions": 557, "s_pairs": 91, "zero_reductions": 53},
    "hk5.certify": {"reductions": 20, "s_pairs": 1, "zero_reductions": 0},
    "hk5.bogus": {"reductions": 4, "s_pairs": 1, "zero_reductions": 0},
    "hk5.lift_F_valid": {"reductions": 47, "s_pairs": 1, "zero_reductions": 0},
    "hk5.transport": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk5.combinations": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk5.tau": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "hk5.pipeline": {"reductions": 588, "s_pairs": 91, "zero_reductions": 53},
    "aug.disc_F": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.disc_f": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.disc_k2": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.disc_k3": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.derlog_H": {"reductions": 47, "s_pairs": 30, "zero_reductions": 4},
    "aug.derlog_k2": {"reductions": 91, "s_pairs": 37, "zero_reductions": 11},
    "aug.derlog_k3": {"reductions": 98, "s_pairs": 39, "zero_reductions": 12},
    "aug.euler": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.tilde_k2": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.tilde_k3": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.pi2_k2": {"reductions": 132, "s_pairs": 65, "zero_reductions": 13},
    "aug.pi2_k3": {"reductions": 139, "s_pairs": 67, "zero_reductions": 14},
    "aug.descend_k1": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.descend_k2": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.descend_k3": {"reductions": 0, "s_pairs": 0, "zero_reductions": 0},
    "aug.pipeline_f": {"reductions": 65, "s_pairs": 22, "zero_reductions": 4},
    "aug.tau_AF_k2": {"reductions": 20, "s_pairs": 4, "zero_reductions": 0},
    "aug.tau_AF_k3": {"reductions": 23, "s_pairs": 7, "zero_reductions": 1},
}

GOLDEN_REPORT = Path(__file__).parent / "data" / "paper_suite.report.json"


@pytest.fixture(scope="module")
def paper_suite_report():
    """The ``paper-suite --json`` document, computed once for this module."""
    return json.loads(reports_to_json(run_paper_suite()))


def test_pipeline_work_counters_are_pinned(paper_suite_report):
    # every task's counters; the instance note runs no kernel and has none
    seen = {r["id"]: r["counters"] for r in paper_suite_report["results"]
            if r["counters"]}
    assert len(seen) == 46
    assert seen == PINNED_COUNTERS


def test_task_counters_do_not_depend_on_earlier_tasks(paper_suite_report):
    # what `paper-suite --only ID` runs: the task alone on a freshly loaded
    # manifest, with no cache that an earlier task could have filled
    suite = {r["id"]: r["counters"] for r in paper_suite_report["results"]}
    alone = {}
    for name in BUNDLED_FIXTURES:
        for task in load_manifest(fixture_path(name)).tasks:
            alone[task["id"]] = run_task(load_manifest(fixture_path(name)),
                                         task).counters
    assert len(alone) == 46
    assert alone == {tid: suite[tid] for tid in alone}


def test_paper_suite_report_matches_golden(paper_suite_report):
    # verdicts, details and certificates are the behavioural contract; work
    # counters may change with the kernel and are pinned separately above.
    # The file is `germlift paper-suite --json` with every "counters" removed.
    results = [{k: v for k, v in r.items() if k != "counters"}
               for r in paper_suite_report["results"]]
    text = json.dumps({**paper_suite_report, "results": results},
                      indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN_REPORT.read_text(encoding="utf-8")


@pytest.mark.parametrize("fixture", ["hk.manifest.json", "hk_k3.manifest.json",
                                     "hk_k4.manifest.json", "hk_k5.manifest.json"])
def test_timeout_overshoot_is_bounded(fixture):
    # the budget reads the clock only every few hundred reductions; a fresh
    # manifest has no cached bases, so all the task's kernel work is timed.
    # A quarter of the time the task takes unbudgeted runs out.
    def fresh():
        m = load_manifest(fixture_path(fixture))
        return m, next(t for t in m.tasks if t["op"] == "pipeline")

    m, task = fresh()
    start = time.perf_counter()
    assert run_task(m, task).verdict == PASS
    limit = (time.perf_counter() - start) / 4
    m, task = fresh()
    start = time.perf_counter()
    report = run_task(m, task, Budget(seconds=limit))
    elapsed = time.perf_counter() - start
    assert report.verdict == TIMEOUT
    assert report.details[0].startswith("time limit")
    assert elapsed < 1.0


@pytest.mark.parametrize("only", ["aug.disc_k3", "hk2.pipeline"])
def test_paper_suite_seconds_limit_each_task(only):
    # one stops in poly.determinant, the other in the Groebner kernel
    reports = run_paper_suite(only=only, seconds=0)
    assert [(r.task_id, r.verdict) for r in reports] == [(only, TIMEOUT)]
    assert reports[0].details == ["time limit 0s exceeded"]
    assert set(reports[0].counters) == {"reductions", "s_pairs", "zero_reductions"}


def test_paper_suite_seconds_limit_a_transport():
    # push_forward composes through MapGerm.compose, wf_apply and pull_back,
    # each reading the task's budget
    reports = run_paper_suite(only="hk2.transport", seconds=0)
    assert [(r.task_id, r.verdict) for r in reports] == [("hk2.transport", TIMEOUT)]
    assert reports[0].details == ["time limit 0s exceeded"]
