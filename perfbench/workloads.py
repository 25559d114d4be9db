"""The four workloads: inputs, one timed pass, and the checks of its outputs.

``prepare`` imports germlift and makes the inputs; the harness times it as
set-up.  ``run_pass`` rebuilds every germlift object from those inputs, so no
cached basis (``Submodule._gb``, ``Submodule._plain``, ``MapGerm._tf``)
carries over from one pass to the next, and returns the pass's outputs as
plain data together with each operation's ``Budget.stats()``.  ``check``
judges one pass's outputs with ``checks``, which works apart from germlift.

germlift functions are called through their module objects, so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("cli", "derlog", "exprio", "germs", "groebner", "lifting",
           "manifest", "modules", "poly", "suite")


class _Germlift:
    """germlift's modules, imported afresh by each set-up."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"germlift.{name}"))


def _fixtures():
    """tools/make_fixtures.py, the generator of the hk manifests."""
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _field_strs(elem) -> list[str]:
    return [str(p) for p in elem.entries]


class PaperSuite:
    """The 46 bundled tasks, run as `germlift paper-suite --json` runs them."""

    name = "paper-suite"

    def prepare(self, seed: int):
        self.gl = _Germlift()
        self.n_ops = sum(len(m.tasks) for m in self.gl.suite.bundled_manifests())

    def run_pass(self, timer):
        out = io.StringIO()
        with timer.wrapping(self.gl.suite, "run_task"), contextlib.redirect_stdout(out):
            code = self.gl.cli.main(["paper-suite", "--json"])
        report = out.getvalue()
        budgets = [r["counters"] for r in json.loads(report)["results"]]
        return {"exit": code, "report": report}, budgets

    def check(self, record, seed: int) -> list[str]:
        doc = json.loads(record["report"])
        bad = [r["id"] for r in doc["results"] if r["verdict"] != "PASS"]
        errors = [f"verdict not PASS: {i}" for i in bad]
        if record["exit"] != 0:
            errors.append(f"exit code {record['exit']}")
        if doc["summary"]["total"] != self.n_ops + 1:  # + the family-instance note
            errors.append(f"{doc['summary']['total']} results for {self.n_ops} tasks")
        return errors


class HkLadder:
    """The generated hk manifests far above the bundled k = 2..5."""

    name = "hk-ladder"
    RUNGS = (8, 14, 20)

    def prepare(self, seed: int):
        self.gl = _Germlift()
        fixtures = _fixtures()
        OUT.mkdir(exist_ok=True)
        self.docs, self.paths = {}, {}
        for k in self.RUNGS:
            self.docs[k] = fixtures.hk_manifest(k)
            self.paths[k] = OUT / f"hk_k{k}.manifest.json"
            self.paths[k].write_text(json.dumps(self.docs[k], indent=2, sort_keys=True))
        self.n_ops = sum(len(d["tasks"]) for d in self.docs.values())

    def run_pass(self, timer):
        gl = self.gl
        records, budgets = [], []
        for k in self.RUNGS:
            m = gl.manifest.load_manifest(self.paths[k])
            for task in m.tasks:
                budget = gl.groebner.Budget()
                try:
                    report = timer.run(gl.suite.run_task, m, task, budget)
                except Exception as e:  # a failed operation; the pass goes on
                    records.append({"id": task["id"], "error": repr(e)})
                    continue
                records.append(report.to_json())
                budgets.append(report.counters)
        return records, budgets

    def check(self, records, seed: int) -> list[str]:
        # a record with an error is a failed operation, counted as such
        done = {r["id"]: r for r in records if "error" not in r}
        errors = [f"{i}: {r['verdict']}" for i, r in done.items() if r["verdict"] != "PASS"]
        if errors:
            return errors
        rng = random.Random(seed)
        for k in self.RUNGS:
            if f"hk{k}.pipeline" in done:
                errors += self._check_pipeline(k, self.docs[k], done[f"hk{k}.pipeline"], rng)
        return errors

    def _check_pipeline(self, k, doc, rec, rng) -> list[str]:
        core = doc["maps"][f"H{k}"]
        src = doc["rings"][core["source"]]["vars"]
        tgt = doc["rings"][core["target"]]["vars"]
        germ = checks.Germ(src, tgt, core["components"])
        errors = []
        out_fields = []
        for cert in rec["certificates"]:
            if "witness" not in cert:
                return [f"hk{k}.pipeline: output generator without witness"]
            field = checks.split_field(cert["field"])
            out_fields.append(field)
            xi = [checks.terms_of(t, src) for t in checks.split_field(cert["witness"])]
            eta = [checks.terms_of(t, tgt) for t in field]
            errors += checks.identity_errors(germ, xi, eta,
                                             checks.random_points(rng, len(src)))
        # two-sided membership between the output and the paper's table
        table = doc["fields"][f"lift_H{k}"]["elements"]
        gl = self.gl
        ring_doc = doc["rings"][core["target"]]
        ring = gl.poly.VarSet(ring_doc["vars"], ring_doc.get("weights"))

        def module(fields):
            gens = [gl.modules.ModuleElement(ring, [gl.exprio.parse_poly(t, ring)
                                                    for t in f]) for f in fields]
            return gens, gl.modules.Submodule(ring, len(ring), gens)

        out_gens, out_mod = module(out_fields)
        tab_gens, tab_mod = module(table)
        for gens, M, fields in ((tab_gens, out_mod, out_fields),
                                (out_gens, tab_mod, table)):
            for g in gens:
                mem = gl.groebner.express(g, M)
                if not mem.is_member:
                    errors.append(f"hk{k}.pipeline: generator outside the other module")
                    continue
                errors += checks.combination_errors(
                    [str(c) for c in mem.coefficients], fields, _field_strs(g),
                    tgt, checks.random_points(rng, len(tgt)))
        return [f"hk{k}.pipeline: {e}" for e in errors]


class LiftQueries:
    """A seeded stream of is_liftable queries against the paper's tables.

    A query is eta = sum(a_i * eta_i) over a table of liftable generators
    eta_i, each a_i dense of degree <= 1 with coefficients drawn from
    -5..5; an obstructed query adds a nonzero constant in a coordinate
    direction outside the image of df(0).
    """

    name = "lift-queries"
    K = 3
    # label, fixture, map, generator table, queries, obstructed, outside df(0)
    GERMS = (
        ("H3", "hk", "H3", "lift_H3", 24, 6, ("Y", "Z")),
        ("F", "hk", "F", "lift_F", 16, 4, ("W1", "W2")),
        ("F3", "hk", "F3", "lift_F3", 12, 3, ("W1", "W2")),
        ("augF", "augment", "F", "etas", 24, 6, ("X",)),
    )

    def prepare(self, seed: int):
        self.gl = _Germlift()
        fixtures = _fixtures()
        docs = {"hk": fixtures.hk_manifest(self.K), "augment": fixtures.augment_manifest()}
        rng = random.Random(seed)
        self.germs, queries = {}, []
        for label, fx, map_name, table, n, n_obs, outside in self.GERMS:
            doc = docs[fx]
            spec = doc["maps"][map_name]
            src, tgt = doc["rings"][spec["source"]], doc["rings"][spec["target"]]
            self.germs[label] = (src, tgt, spec["components"])
            names = tgt["vars"]
            gens = [[checks.terms_of(t, names) for t in el]
                    for el in doc["fields"][table]["elements"]]
            linear = [tuple(0 for _ in names)] + [
                tuple(int(i == j) for i in range(len(names))) for j in range(len(names))]
            obstructed = set(rng.sample(range(n), n_obs))
            for q in range(n):
                eta = [{} for _ in names]
                for gen in gens:
                    a = {e: Fraction(rng.randint(-5, 5)) for e in linear}
                    a = {e: c for e, c in a.items() if c}
                    eta = [checks.poly_add(acc, checks.poly_mul(a, g))
                           for acc, g in zip(eta, gen)]
                if q in obstructed:
                    i = names.index(rng.choice(outside))
                    bump = {linear[0]: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5))}
                    eta[i] = checks.poly_add(eta[i], bump)
                queries.append((label, eta, q not in obstructed))
        rng.shuffle(queries)
        self.queries = queries
        self.n_ops = len(queries)

    def run_pass(self, timer):
        gl = self.gl
        VarSet, Polynomial = gl.poly.VarSet, gl.poly.Polynomial
        germs = {}
        for label, (src, tgt, comps) in self.germs.items():
            s = VarSet(src["vars"], src.get("weights"))
            t = VarSet(tgt["vars"], tgt.get("weights"))
            germs[label] = gl.germs.MapGerm(s, t, [gl.exprio.parse_poly(c, s) for c in comps])
        fields = [gl.germs.VectorField(germs[label].target,
                                       [Polynomial(germs[label].target, p) for p in eta])
                  for label, eta, _ in self.queries]
        records, budgets = [], []
        for (label, _, _), field in zip(self.queries, fields):
            budget = gl.groebner.Budget()
            try:
                res = timer.run(gl.lifting.is_liftable, germs[label], field, budget)
            except Exception as e:  # a failed operation; the pass goes on
                records.append({"error": repr(e)})
                continue
            records.append({
                "certified": res.certified,
                "witness": _field_strs(res.certificate.xi) if res.certified else None,
                "obstruction": None if res.certified else str(res.obstruction),
            })
            budgets.append(budget.stats())
        return records, budgets

    def check(self, records, seed: int) -> list[str]:
        rng = random.Random(seed)
        germs = {label: checks.Germ(src["vars"], tgt["vars"], comps)
                 for label, (src, tgt, comps) in self.germs.items()}
        errors = []
        for i, ((label, eta, liftable), rec) in enumerate(zip(self.queries, records)):
            if "error" in rec:  # a failed operation, counted as such
                continue
            germ = germs[label]
            points = checks.random_points(rng, len(germ.source))
            errors += [f"query {i} ({label}): {e}" for e in
                       checks.lift_query_errors(germ, eta, liftable, rec, points)]
        return errors


class Discriminants:
    """discriminant, derlog_tangent and derlog_strict, one call per operation."""

    name = "discriminants"
    # with k up to 7 the median call falls between two calls of like
    # length, not at the gap between 25 ms and 35 ms calls
    AUG_K = (2, 3, 4, 5, 6, 7)

    @staticmethod
    def versal(mu: int) -> dict:
        """(x^(mu+1) + sum a_i x^i, a), quasihomogeneous."""
        params = [f"a{i}" for i in range(1, mu)]
        w = [mu + 1 - i for i in range(1, mu)]
        return {
            "label": f"A{mu}",
            "source": (["x"] + params, [1] + w),
            "target": (["X"] + [p.upper() for p in params], [mu + 1] + w),
            "components": [f"x^{mu + 1}" + "".join(f" + a{i}*x^{i}" for i in range(1, mu))]
            + params,
            "defining": f"x**{mu + 1}" + "".join(f" + A{i}*x**{i}" for i in range(1, mu))
            + " - X",
            "saito": True,
        }

    @staticmethod
    def augmented(k: int) -> dict:
        """(x^4 + y*x + z^k*x^2, y, z), the augmentations of the quartic."""
        return {
            "label": f"aug{k}",
            "source": (["x", "y", "z"], [k, 3 * k, 2]),
            "target": (["X", "Y", "Z"], [4 * k, 3 * k, 2]),
            "components": [f"x^4 + y*x + z^{k}*x^2", "y", "z"],
            "defining": f"x**4 + Y*x + Z**{k}*x**2 - X",
            "saito": False,
        }

    def prepare(self, seed: int):
        self.gl = _Germlift()
        self.specs = [self.versal(3), self.versal(4)] + [self.augmented(k)
                                                         for k in self.AUG_K]
        self.n_ops = 3 * len(self.specs)

    def run_pass(self, timer):
        gl = self.gl
        records, budgets = [], []
        for spec in self.specs:
            s = gl.poly.VarSet(*spec["source"])
            t = gl.poly.VarSet(*spec["target"])
            f = gl.germs.MapGerm(s, t, [gl.exprio.parse_poly(c, s) for c in spec["components"]])
            rec = {"label": spec["label"]}
            b = [gl.groebner.Budget() for _ in range(3)]
            done = 0
            try:
                D = timer.run(gl.derlog.discriminant, f, b[0])
                done += 1
                tangent = timer.run(gl.derlog.derlog_tangent, D, b[1])
                done += 1
                strict = timer.run(gl.derlog.derlog_strict, D, b[2])
            except Exception as e:  # a failed operation; its dependents fail with it
                timer.failed += 2 - done
                rec["error"] = repr(e)
                records.append(rec)
                continue
            rec.update(
                h=str(D.h),
                tangent=[_field_strs(g) for g in tangent.module.generators],
                quotients=[str(q) for q in tangent.quotients],
                strict=[_field_strs(g) for g in strict.generators],
            )
            records.append(rec)
            budgets += [x.stats() for x in b]
        return records, budgets

    def check(self, records, seed: int) -> list[str]:
        errors = []
        for spec, rec in zip(self.specs, records):
            if "error" in rec:  # failed operations, counted as such
                continue
            names = spec["target"][0]
            found = checks.discriminant_errors(spec["defining"], names, rec["h"])
            found += checks.tangent_errors(rec["tangent"], rec["quotients"], names, rec["h"])
            found += checks.strict_errors(rec["strict"], names, rec["h"])
            if spec["saito"]:
                found += checks.saito_errors(rec["tangent"], names, rec["h"])
            errors += [f"{spec['label']}: {e}" for e in found]
        return errors


WORKLOADS = {w.name: w for w in (PaperSuite, HkLadder, LiftQueries, Discriminants)}
