"""Task runner: executes manifest tasks and collects verdict reports.

Each runner reads a ``manifest.Task``, whose names and expressions were
resolved and parsed once, when the task was checked.

Used both by the command line front-end and by the acceptance test suite, so
that `germlift paper-suite` and `pytest tests/test_acceptance.py` exercise
exactly the same checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .derlog import (
    augment_field,
    augment_field_div,
    augment_unfolding,
    derlog_strict,
    derlog_tangent,
    descend_field,
    discriminant,
    euler_field,
    last_component_ideal,
    tangency_quotient,
)
from .errors import GermliftError, GroebnerTimeout, InputNotLiftable, OutputNotCertified
from .germs import VectorField, apply_to, push_forward
from .groebner import Budget, module_equal
from .lifting import is_liftable, lift_from_unfolding, origin_span, restrict_field, restrictable
from .manifest import Manifest, Task, check_task, load_manifest
from .modules import ModuleElement, Submodule, combine, proportional
from .poly import Polynomial, VarSet, rering

PASS = "PASS"
FAIL = "FAIL"
TIMEOUT = "TIMEOUT"
UNDECIDED_LOCAL = "UNDECIDED_LOCAL"

REPORT_SCHEMA = "germlift-report/1"

BUNDLED_FIXTURES = (
    "hk.manifest.json",
    "hk_k3.manifest.json",
    "hk_k4.manifest.json",
    "hk_k5.manifest.json",
    "augment.manifest.json",
)


@dataclass
class Report:
    task_id: str
    verdict: str
    details: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def line(self) -> str:
        extra = f"  ({'; '.join(self.details)})" if self.details else ""
        return f"{self.verdict:<16} {self.task_id}{extra}"

    def to_json(self) -> dict:
        return {
            "id": self.task_id,
            "verdict": self.verdict,
            "details": list(self.details),
            "certificates": self.certificates,
            "counters": self.counters,
        }


def _ideals_equal(I: Submodule, J: Submodule, budget) -> bool:
    """Equality of two ideals over the same variable names, weights aside."""
    plain = VarSet(I.ring.names)

    def moved(K: Submodule) -> Submodule:
        return Submodule.ideal(plain, [rering(p, plain) for p in K.ideal_generators()])

    return module_equal(moved(I), moved(J), budget)


def _run_lift_check(task, budget) -> Report:
    germ, table, expect = task["map"], task["fields"], task["expect"]
    details, certs = [], []
    verdict = PASS
    for i, eta in enumerate(table.fields):
        res = is_liftable(germ, eta, budget)
        if res.certified:
            certs.append({"field": str(eta), "witness": str(res.certificate.xi)})
        else:
            certs.append({"field": str(eta), "obstruction": str(res.obstruction)})
        if expect == "certified" and not res.certified:
            verdict = FAIL if res.conclusive or verdict == FAIL else UNDECIDED_LOCAL
            details.append(f"generator {i} not polynomially liftable")
        elif expect == "obstructed" and res.certified:
            verdict = FAIL
            details.append(f"generator {i} unexpectedly liftable")
        elif expect == "obstructed" and not res.conclusive and verdict == PASS:
            verdict = UNDECIDED_LOCAL
    if verdict == PASS:
        details.append(f"{len(table.fields)}/{len(table.fields)} as expected")
    return Report(task["id"], verdict, details, certs)


def _run_transport(task, budget) -> Report:
    H, H_inv, src, exp = task["map"], task["inverse"], task["fields"], task["expect"]
    bad = []
    for i, (eta, want) in enumerate(zip(src.fields, exp.fields)):
        got = push_forward(eta, H, H_inv, budget)
        if got != want:
            bad.append(i)
    if bad:
        return Report(task["id"], FAIL, [f"mismatch at indices {bad}"])
    return Report(
        task["id"], PASS, [f"{len(src.fields)} fields transported, term-for-term"]
    )


def _run_project_combinations(task, budget) -> Report:
    U, table, exp = task["unfolding"], task["fields"], task["expect"]
    scalars = []
    details = []
    for i, combo in enumerate(task["combinations"]):
        acc = _combo_field(table, combo)
        if not restrictable(acc, U):
            return Report(
                task["id"], FAIL,
                [f"combination {i} has parameter components off the constraint module"],
            )
        sc = proportional(restrict_field(acc, U), exp.fields[i])
        if sc is None or sc == 0:
            return Report(
                task["id"], FAIL,
                [f"combination {i} does not project to a scalar multiple"],
            )
        scalars.append(sc)
    details.append("scalars " + ", ".join(str(s) for s in scalars))
    certs = [{"combination": i, "scalar": str(s)} for i, s in enumerate(scalars)]
    return Report(task["id"], PASS, details, certs)


def _witness_certs(module: Submodule, certificates) -> list:
    """Report entries for the certificates ``lift_from_unfolding`` returned."""
    return [
        {"field": str(g), "witness": str(c.xi)}
        for g, c in zip(module.generators, certificates)
    ]


def _compare_expected(task, module, certs, budget) -> Report:
    """The report on ``module``: compared with the task's ``expect`` table
    if it has one."""
    n = len(module.generators)
    if "expect" not in task:
        return Report(task["id"], PASS, [f"{n} generators"], certs)
    if not module_equal(module, task["expect"].as_submodule(), budget):
        return Report(task["id"], FAIL, ["module differs from expected table"], certs)
    return Report(task["id"], PASS, [f"{n} generators; equality both directions"], certs)


def _run_pipeline(task, budget) -> Report:
    out, lifts = lift_from_unfolding(task["unfolding"], task["fields"].as_submodule(),
                                     budget)
    return _compare_expected(task, out, _witness_certs(out, lifts), budget)


def _run_pipeline_vs_derlog(task, budget) -> Report:
    out, lifts = lift_from_unfolding(task["unfolding"], task["fields"].as_submodule(),
                                     budget)
    certs = _witness_certs(out, lifts)
    expected = derlog_tangent(task["divisor"], budget).module
    if not module_equal(out, expected, budget):
        return Report(task["id"], FAIL, ["pipeline and derlog modules differ"], certs)
    return Report(
        task["id"], PASS,
        [f"pipeline and derlog agree ({len(out.generators)} generators)"], certs,
    )


def _poly_proportional(a: Polynomial, b: Polynomial):
    return proportional(
        ModuleElement(a.ring, [a]), ModuleElement(b.ring, [b])
    )


def _run_discriminant(task, budget) -> Report:
    D = discriminant(task["map"], budget)
    want = task["expect_divisor"]
    sc = _poly_proportional(rering(D.h, want.ring), want.h)
    if sc is None:
        return Report(task["id"], FAIL, ["defining equation differs"],
                      [{"computed": str(D.h)}])
    return Report(task["id"], PASS, [f"equation matches (scalar {sc})"],
                  [{"computed": str(D.h)}])


def _run_derlog(task, budget) -> Report:
    D = task["divisor"]
    if task["mode"] == "strict":
        module = derlog_strict(D, budget)
        certs = [{"field": str(g), "quotient": "0"} for g in module.generators]
    else:
        tf = derlog_tangent(D, budget)
        module = tf.module
        certs = [
            {"field": str(g), "quotient": str(a)}
            for g, a in zip(module.generators, tf.quotients)
        ]
    return _compare_expected(task, module, certs, budget)


def _run_euler(task, budget) -> Report:
    D = task["divisor"]
    w = D.effective_weights()
    e = euler_field(D.ring, w)
    d = task["degree"]
    if apply_to(e, D.h) != D.h * d:
        return Report(task["id"], FAIL, [f"e(h) != {d}*h"])
    details = [f"e(h) = {d}*h"]
    if "expect" in task:
        want = task["expect"].fields[0]
        if e != want:
            return Report(task["id"], FAIL, ["Euler field differs from table"])
        details.append("field matches table")
    return Report(task["id"], PASS, details)


def _combo_field(table, combo) -> ModuleElement:
    """The field sum(coefficient * table.fields[index]) of a checked
    combination of (coefficient, index) pairs."""
    return combine(table.ring, len(table.ring), [coef for coef, _ in combo],
                   [table.fields[idx] for _, idx in combo])


def _run_augment_tilde(task, budget) -> Report:
    aug, inst = task["augmentation"], task["k"]
    certs = []
    for i, (kind, combo) in enumerate(inst.recipes):
        base = _combo_field(aug.lift_fields, combo)
        if kind == "map":
            got = augment_field(base, inst.k, into=inst.ring)
        else:
            got = augment_field_div(base, inst.k, into=inst.ring)
        want = inst.tilde_fields.fields[i]
        if got != want:
            return Report(task["id"], FAIL, [f"transform {i} differs from table"])
        q = tangency_quotient(want, inst.divisor.h)
        if q is None:
            return Report(task["id"], FAIL, [f"field {i} not tangent to the divisor"])
        certs.append({"field": str(want), "quotient": str(q)})
    return Report(
        task["id"], PASS,
        [f"{len(inst.recipes)} transforms reproduce the table; all tangent"], certs,
    )


def _run_augment_pi2(task, budget) -> Report:
    aug, inst = task["augmentation"], task["k"]
    lift_aug = derlog_tangent(inst.divisor, budget).module
    lift_unf = derlog_tangent(aug.discriminant, budget).module
    I_aug = last_component_ideal(lift_aug)
    I_unf = last_component_ideal(lift_unf)
    if not _ideals_equal(I_aug, I_unf, budget):
        return Report(task["id"], FAIL, ["restricted ideals differ"])
    # the same ideals recomputed from the listed generator tables must agree
    I_aug_table = last_component_ideal(inst.tilde_fields.as_submodule())
    I_unf_table = last_component_ideal(aug.lift_fields.as_submodule())
    if not _ideals_equal(I_aug, I_aug_table, budget) or not _ideals_equal(
        I_unf, I_unf_table, budget
    ):
        return Report(task["id"], FAIL,
                      ["computed and table-derived ideals differ"])
    if task.get("expect_ideal") is not None:
        expect = Submodule.ideal(VarSet(I_aug.ring.names), task["expect_ideal"])
        if not _ideals_equal(I_aug, expect, budget):
            return Report(task["id"], FAIL, ["ideal differs from the expected one"])
    gens = sorted(str(g.entries[0]) for g in I_aug.generators)
    return Report(
        task["id"], PASS,
        ["ideals equal, both computed from tangency modules"],
        [{"ideal": gens}],
    )


def _run_augment_descend(task, budget) -> Report:
    aug, inst = task["augmentation"], task["k"]
    certs = []
    for i, (kind, combo) in enumerate(inst.recipes):
        eta_bar = inst.tilde_fields.fields[i]
        res = descend_field(eta_bar, inst.k, aug.discriminant)
        want = _combo_field(aug.lift_fields, combo)
        if res.field != want:
            return Report(
                task["id"], FAIL, [f"descent {i} does not recover its preimage"]
            )
        certs.append(
            {
                "field": str(res.field),
                "quotient": str(res.quotient),
                "discarded": str(res.discarded),
            }
        )
    return Report(
        task["id"], PASS,
        [f"{len(inst.recipes)} descents recover their preimages exactly"], certs,
    )


def _run_augment_tau(task, budget) -> Report:
    aug = task["augmentation"]
    AF = augment_unfolding(aug.unfolding, task["k"].k)
    eta = VectorField(AF.total.target, [rering(p, AF.total.target)
                                        for p in task["field"].fields[0].entries])
    res = is_liftable(AF.total, eta, budget)
    if not res.certified:
        return Report(task["id"], FAIL, ["trivial direction not certified liftable"])
    span = origin_span([eta])
    z_idx = AF.total.target.index(aug.unfolding.target_params[0])
    unit = tuple(1 if i == z_idx else 0 for i in range(AF.total.p))
    if unit not in [tuple(row) for row in span]:
        return Report(task["id"], FAIL, ["evaluation span misses the parameter direction"])
    return Report(
        task["id"], PASS,
        ["parameter direction is in the isosingular tangent space"],
        [{"field": str(eta), "witness": str(res.certificate.xi)}],
    )


def _run_tau_zero(task, budget) -> Report:
    span = origin_span(task["fields"].fields)
    if span:
        return Report(task["id"], FAIL, [f"span has dimension {len(span)}"])
    return Report(task["id"], PASS, ["all generators vanish at the origin"])


def _run_note(task, budget) -> Report:
    return Report(task["id"], PASS, [task["text"]])


_RUNNERS = {
    "lift_check": _run_lift_check,
    "transport_table": _run_transport,
    "project_combinations": _run_project_combinations,
    "pipeline": _run_pipeline,
    "pipeline_vs_derlog": _run_pipeline_vs_derlog,
    "discriminant": _run_discriminant,
    "derlog": _run_derlog,
    "euler": _run_euler,
    "augment_tilde": _run_augment_tilde,
    "augment_pi2": _run_augment_pi2,
    "augment_descend": _run_augment_descend,
    "augment_tau": _run_augment_tau,
    "tau_zero": _run_tau_zero,
    "note": _run_note,
}


def run_task(m: Manifest, task: dict, budget: Budget | None = None) -> Report:
    """Run one task: an element of ``m.tasks``, or a raw task that is first
    checked against ``m`` (``SchemaError`` if it fails).  The germs of the
    task's manifest start with fresh caches, so its counters depend on the
    task alone and not on which tasks of the manifest ran before it."""
    if not isinstance(task, Task):
        task = check_task(task, m, "task")
    budget = budget if budget is not None else Budget()
    for germ in task.maps.values():
        germ.drop_caches()
    try:
        report = _RUNNERS[task["op"]](task, budget)
    except GroebnerTimeout as e:
        report = Report(task["id"], TIMEOUT, [str(e)])
    except (InputNotLiftable, OutputNotCertified) as e:
        report = Report(task["id"], FAIL, [str(e)])
    except GermliftError as e:
        report = Report(task["id"], FAIL, [f"{type(e).__name__}: {e}"])
    report.counters = budget.stats()
    return report


def run_manifest(m: Manifest, only: str | None = None,
                 seconds: float | None = None) -> list[Report]:
    """Run the tasks whose id starts with ``only``, each under a fresh
    :class:`Budget` limited to ``seconds``."""
    return [run_task(m, task, Budget(seconds=seconds)) for task in m.tasks
            if not only or task["id"].startswith(only)]


def bundled_manifests() -> list[Manifest]:
    out = []
    for name in BUNDLED_FIXTURES:
        path = resources.files("germlift.fixtures").joinpath(name)
        out.append(load_manifest(path))
    return out


def instance_note() -> Report:
    return Report(
        "scale.family_instances",
        PASS,
        [
            "family-level claims are checked at the instances k=2,3,4,5 "
            "(and k=1,2,3 for augmentations); a single symbolic-k computation "
            "is out of scope by design"
        ],
    )


def run_paper_suite(extra_manifests=(), only: str | None = None,
                    seconds: float | None = None) -> list[Report]:
    reports = []
    for m in list(bundled_manifests()) + list(extra_manifests):
        reports.extend(run_manifest(m, only, seconds))
    note = instance_note()
    if not only or note.task_id.startswith(only):
        reports.append(note)
    return reports


def reports_to_json(reports: list[Report]) -> str:
    doc = {
        "schema": REPORT_SCHEMA,
        "results": [r.to_json() for r in reports],
        "summary": {
            "total": len(reports),
            "pass": sum(1 for r in reports if r.verdict == PASS),
            "fail": sum(1 for r in reports if r.verdict == FAIL),
            "timeout": sum(1 for r in reports if r.verdict == TIMEOUT),
            "undecided_local": sum(1 for r in reports if r.verdict == UNDECIDED_LOCAL),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def exit_code(reports: list[Report]) -> int:
    if any(r.verdict in (FAIL, UNDECIDED_LOCAL) for r in reports):
        return 2
    if any(r.verdict == TIMEOUT for r in reports):
        return 3
    return 0
