"""Negative controls: every benchmark check rejects one corrupted result.

    python3 -m pytest -q perfbench

Each test first shows the check accepting germlift's real result, then
rejecting the same result with one thing changed.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from germlift import (  # noqa: E402
    MapGerm,
    VarSet,
    VectorField,
    derlog_tangent,
    discriminant,
    is_liftable,
    parse_poly,
)

HK = workloads._fixtures().hk_manifest(2)
POINTS = checks.random_points(random.Random(7), 2)


def _hk_germ():
    spec = HK["maps"]["H2"]
    src, tgt = HK["rings"]["src2"], HK["rings"]["tgt3"]
    ring_s = VarSet(src["vars"], src["weights"])
    ring_t = VarSet(tgt["vars"], tgt["weights"])
    germ = MapGerm(ring_s, ring_t, [parse_poly(c, ring_s) for c in spec["components"]])
    return germ, checks.Germ(src["vars"], tgt["vars"], spec["components"])


def _text(terms: dict, names) -> str:
    return " ".join(("-" if c < 0 else "+") + "*".join(
        [str(abs(c))] + [f"{n}^{k}" for n, k in zip(names, e) if k])
        for e, c in terms.items())


def _bump(text: str, names) -> str:
    """The polynomial with the coefficient of one term raised by one."""
    terms = checks.terms_of(text, names)
    e = next(iter(terms))
    terms[e] += 1
    return _text(terms, names)


def _a3_divisor():
    spec = workloads.Discriminants.versal(3)
    s, t = VarSet(*spec["source"]), VarSet(*spec["target"])
    f = MapGerm(s, t, [parse_poly(c, s) for c in spec["components"]])
    return spec, discriminant(f)


def test_witness_with_one_coefficient_changed_is_rejected():
    germ, plain = _hk_germ()
    row = HK["fields"]["lift_H2"]["elements"][1]
    eta = VectorField(germ.target, [parse_poly(t, germ.target) for t in row])
    res = is_liftable(germ, eta)
    witness = [str(p) for p in res.certificate.xi.entries]
    eta_terms = [checks.terms_of(t, plain.target) for t in row]
    good = {"certified": True, "witness": witness}
    assert checks.lift_query_errors(plain, eta_terms, True, good, POINTS) == []
    bad = {"certified": True, "witness": [_bump(witness[0], plain.source)] + witness[1:]}
    assert checks.lift_query_errors(plain, eta_terms, True, bad, POINTS)


def test_discriminant_with_one_coefficient_changed_is_rejected():
    spec, D = _a3_divisor()
    names = spec["target"][0]
    assert checks.discriminant_errors(spec["defining"], names, str(D.h)) == []
    assert checks.discriminant_errors(spec["defining"], names, _bump(str(D.h), names))


def test_derlog_table_with_one_generator_dropped_is_rejected():
    spec, D = _a3_divisor()
    names = spec["target"][0]
    fields = [[str(p) for p in g.entries] for g in derlog_tangent(D).module.generators]
    h = str(D.h)
    assert checks.saito_errors(fields, names, h) == []
    assert checks.saito_errors(fields[:-1], names, h)
    # still tangent, but no longer generating: det becomes c * h^2
    times_h = [f"({h})*({a})" for a in fields[-1]]
    assert checks.saito_errors(fields[:-1] + [times_h], names, h)


def test_liftable_query_labelled_obstructed_is_rejected():
    _, plain = _hk_germ()
    eta = [checks.terms_of(t, plain.target) for t in HK["fields"]["lift_H2"]["elements"][0]]
    refused = {"certified": False, "witness": None}
    assert checks.lift_query_errors(plain, eta, False, refused, POINTS)
    # the same query made obstructed by a constant in the Z direction passes
    z = plain.target.index("Z")
    eta[z] = checks.poly_add(eta[z], {(0, 0, 0): Fraction(1)})
    assert checks.lift_query_errors(plain, eta, False, refused, POINTS) == []
