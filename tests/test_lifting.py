import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlift import germs, groebner, lifting
from germlift.errors import InputNotLiftable, StructureError
from germlift.exprio import parse_poly
from germlift.germs import MapGerm, Unfolding, VectorField, tf_generators, wf_apply
from germlift.groebner import (
    Budget,
    Membership,
    compute_gb,
    express,
    module_equal,
    module_intersect,
    prune_module,
)
from germlift.lifting import (
    LiftCertificate,
    is_liftable,
    lift_from_unfolding,
    origin_span,
    restrict_field,
    restrictable,
    restrictable_part,
)
from germlift.modules import ModuleElement, Submodule
from germlift.poly import Polynomial, VarSet

from oracles import intersection_bounded, membership_bounded, random_element


def _field(ring, *texts):
    return VectorField(ring, [parse_poly(t, ring) for t in texts])


def test_fold_direction_certified():
    src = VarSet(["x", "lam"])
    tgt = VarSet(["X", "Lam"])
    g = MapGerm(src, tgt, [parse_poly("x", src), parse_poly("lam^2", src)])
    res = is_liftable(g, _field(tgt, "0", "Lam"))
    assert res.certified
    assert res.certificate.xi == _field(src, "0", "1/2*lam")


def _H2():
    src2 = VarSet(["x", "y"], [4, 1])
    tgt3 = VarSet(["X", "Y", "Z"], [4, 3, 5])
    return MapGerm(src2, tgt3, [parse_poly(t, src2) for t in
                                ("x", "y^3", "y^5 + x*y")])


def test_H2_euler_generator_certified():
    H2 = _H2()
    res = is_liftable(H2, _field(H2.target, "4*X", "3*Y", "5*Z"))
    assert res.certified
    assert res.certificate.xi == _field(H2.source, "4*x", "y")


def test_H2_constant_direction_obstructed_conclusively():
    H2 = _H2()
    res = is_liftable(H2, _field(H2.target, "0", "0", "1"))
    assert not res.certified
    assert res.conclusive
    assert not res.obstruction.is_zero
    # the degree-bounded oracle agrees there is no polynomial witness
    rhs = wf_apply(_field(H2.target, "0", "0", "1"), H2)
    assert membership_bounded(rhs, list(tf_generators(H2).generators), 7) is None


def test_certificate_identity_enforced():
    H2 = _H2()
    with pytest.raises(StructureError):
        LiftCertificate(H2, _field(H2.target, "4*X", "3*Y", "5*Z"),
                        _field(H2.source, "x", "y"))


def _off_by_one(coefficients):
    return tuple(c + 1 for c in coefficients)


def _last_dropped(coefficients):
    return coefficients[:-1] + (Polynomial.zero(coefficients[-1].ring),)


def _wrong_division(monkeypatch, module, change=_off_by_one):
    """Make ``module``'s division step return coefficients that ``change``
    alters (by default, each off by one)."""
    real = groebner._divide

    def wrong(v, M, budget=None):
        membership = real(v, M, budget)
        return Membership(change(membership.coefficients), membership.remainder)

    monkeypatch.setattr(module, "_divide", wrong)


def test_certified_lift_re_expands_its_identity_once(monkeypatch):
    H2 = _H2()
    # the basis self-check re-expands its own identities; build it first
    compute_gb(tf_generators(H2))
    calls = []
    for module in (lifting, groebner):
        def counted(*args, _module=module, _real=module.re_expands):
            calls.append(_module.__name__)
            return _real(*args)
        monkeypatch.setattr(module, "re_expands", counted)
    res = is_liftable(H2, _field(H2.target, "4*X", "3*Y", "5*Z"))
    assert res.certified
    assert calls == ["germlift.lifting"]


def test_wrong_division_is_refused_not_certified(monkeypatch):
    H2 = _H2()
    eta = _field(H2.target, "4*X", "3*Y", "5*Z")
    _wrong_division(monkeypatch, lifting)
    with pytest.raises(StructureError):
        is_liftable(H2, eta)


def test_witness_wrong_in_one_entry_is_refused_not_certified(monkeypatch):
    # the certificate re-expands the witness against the eta o f that
    # is_liftable composed and divided, every entry of it
    H2 = _H2()
    eta = _field(H2.target, "4*X", "3*Y", "5*Z")
    _wrong_division(monkeypatch, lifting, _last_dropped)
    with pytest.raises(StructureError):
        is_liftable(H2, eta)


def test_certified_lift_composes_eta_o_f_once_under_the_callers_budget(monkeypatch):
    H2 = _H2()
    eta = _field(H2.target, "4*X", "3*Y", "5*Z")
    budgets = []
    real = germs.pull_back

    def counted(p, f, budget=None):
        budgets.append(budget)
        return real(p, f, budget)

    monkeypatch.setattr(germs, "pull_back", counted)
    budget = Budget()
    res = is_liftable(H2, eta, budget)
    assert res.certified
    assert len(budgets) == eta.rank
    assert all(b is budget for b in budgets)
    # a certificate built by hand composes eta o f itself
    budgets.clear()
    LiftCertificate(H2, eta, res.certificate.xi)
    assert budgets == [None] * eta.rank


def test_express_re_expands_on_its_own(monkeypatch):
    H2 = _H2()
    rhs = wf_apply(_field(H2.target, "4*X", "3*Y", "5*Z"), H2)
    assert express(rhs, tf_generators(H2)).is_member
    _wrong_division(monkeypatch, groebner)
    with pytest.raises(StructureError):
        express(rhs, tf_generators(H2))


def _unfolding_H2():
    H2 = _H2()
    src4 = VarSet(["u1", "v1", "v2", "y"])
    tgt5 = VarSet(["U1", "V1", "V2", "W1", "W2"])
    F2 = MapGerm(src4, tgt5, [parse_poly(t, src4) for t in
                              ("u1", "v1", "v2", "y^3 + u1*y",
                               "v1*y + v2*y^2 + y^5 + u1*y^3")])
    return Unfolding(F2, ["u1", "v2"], ["U1", "V2"], H2)


def restrictable_reference(U):
    """The restrictable fields as a module: unit fields at non-parameter
    coordinates plus (parameter) * d/d(parameter) in all combinations."""
    ring = U.total.target
    P = U.total.p
    gens = [ModuleElement.unit(ring, P, i) for i in U.non_param_target_indices()]
    for tv in U.target_params:
        lam = Polynomial.variable(ring, tv)
        for j in U.target_param_indices():
            gens.append(ModuleElement.unit(ring, P, j).scale(lam))
    return Submodule(ring, P, gens)


def test_constraint_module_p3_r2():
    U = _unfolding_H2()
    tgt5 = U.total.target
    for text in ("(0, 1, 0, 0, 0)", "(0, 0, 0, 1, 0)", "(0, 0, 0, 0, 1)",
                 "(U1, 0, 0, 0, 0)", "(V2, 0, 0, 0, 0)",
                 "(0, 0, U1, 0, 0)", "(0, 0, V2, 0, 0)"):
        assert restrictable(_field(tgt5, *text[1:-1].split(", ")), U)
    for texts in (("1", "0", "0", "0", "0"), ("0", "0", "V1 + U1", "0", "0"),
                  ("0", "0", "W1^2", "1", "0")):
        assert not restrictable(_field(tgt5, *texts), U)


def _unfolding_fold():
    src = VarSet(["x", "lam"])
    tgt = VarSet(["X", "Lam"])
    f = MapGerm(VarSet(["x"]), VarSet(["X"]), [parse_poly("x^2", VarSet(["x"]))])
    total = MapGerm(src, tgt, [parse_poly("x^2", src), parse_poly("lam", src)])
    return Unfolding(total, ["lam"], ["Lam"], f)


def test_constraint_module_trailing_r1():
    U = _unfolding_fold()
    tgt = U.total.target
    assert restrictable(_field(tgt, "1", "0"), U)
    assert restrictable(_field(tgt, "0", "Lam"), U)
    assert not restrictable(_field(tgt, "0", "1 + X*Lam"), U)


def test_constraint_module_r0_is_free():
    f = _H2()
    U = Unfolding(f, [], [], f)
    for i in range(3):
        assert restrictable(ModuleElement.unit(f.target, 3, i), U)
    assert restrictable(_field(f.target, "1", "Y", "X^2"), U)


def test_restrict_field_eta_ke():
    U = _unfolding_H2()
    tgt5 = U.total.target
    eta_ke = _field(tgt5, "2*U1", "2*V1", "V2 - 2*W1", "3*W1", "3*W2")
    got = restrict_field(eta_ke, U)
    assert got == _field(U.core.target, "2*X", "3*Y", "3*Z")


def test_restrict_field_kills_parameter_only_generators():
    U = _unfolding_H2()
    param_only = ("(U1, 0, 0, 0, 0)", "(V2, 0, 0, 0, 0)",
                  "(0, 0, U1, 0, 0)", "(0, 0, V2, 0, 0)")
    for text in param_only:
        eta = _field(U.total.target, *text[1:-1].split(", "))
        assert restrictable(eta, U)
        assert restrict_field(eta, U).is_zero


def test_pipeline_trivial_fold_unfolding():
    # Lift of the fold x -> x^2 from its trivial 1-parameter unfolding;
    # the expected module <X d/dX> was derived by a degree-bounded solve of
    # eta(x^2) = 2x*xi(x)
    srcc = VarSet(["x"])
    tgtc = VarSet(["X"])
    f = MapGerm(srcc, tgtc, [parse_poly("x^2", srcc)])
    src = VarSet(["x", "lam"])
    tgt = VarSet(["X", "Lam"])
    total = MapGerm(src, tgt, [parse_poly("x^2", src), parse_poly("lam", src)])
    U = Unfolding(total, ["lam"], ["Lam"], f)
    liftF = Submodule(tgt, 2, [
        ModuleElement(tgt, [parse_poly("X", tgt), Polynomial.zero(tgt)]),
        ModuleElement(tgt, [Polynomial.zero(tgt), Polynomial.const(tgt, 1)]),
    ])
    out, certs = lift_from_unfolding(U, liftF)
    expected = Submodule(tgtc, 1, [ModuleElement(tgtc, [parse_poly("X", tgtc)])])
    assert module_equal(out, expected)
    assert len(certs) == len(out.generators)
    for g, cert in zip(out.generators, certs):
        assert cert.germ == U.core
        assert cert.eta == g


def test_pipeline_r0_returns_input():
    f = _H2()
    U = Unfolding(f, [], [], f)
    liftF = Submodule(f.target, 3, [
        _field(f.target, "4*X", "3*Y", "5*Z")])
    out, certs = lift_from_unfolding(U, liftF)
    assert out is liftF
    assert [c.eta for c in certs] == list(liftF.generators)
    assert all(c.germ == U.total for c in certs)


def test_pipeline_rejects_nonliftable_input():
    srcc = VarSet(["x"])
    tgtc = VarSet(["X"])
    f = MapGerm(srcc, tgtc, [parse_poly("x^2", srcc)])
    src = VarSet(["x", "lam"])
    tgt = VarSet(["X", "Lam"])
    total = MapGerm(src, tgt, [parse_poly("x^2", src), parse_poly("lam", src)])
    U = Unfolding(total, ["lam"], ["Lam"], f)
    bad = Submodule(tgt, 2, [ModuleElement(tgt, [Polynomial.const(tgt, 1),
                                                 Polynomial.zero(tgt)])])
    with pytest.raises(InputNotLiftable):
        lift_from_unfolding(U, bad)


def test_prune_examples(xy):
    x = parse_poly("x", xy)
    M = Submodule.ideal(xy, [x, parse_poly("x^2", xy)])
    assert [str(g.entries[0]) for g in prune_module(M).generators] == ["x"]


def test_tau_zero_for_positive_degree_fields():
    tgt3 = VarSet(["X", "Y", "Z"], [4, 3, 5])
    gens = [
        _field(tgt3, "4*X", "3*Y", "5*Z"),
        _field(tgt3, "X^2 + 5*Y*Z", "-3*X*Y", "5*Y^3"),
    ]
    assert origin_span(gens) == []


def test_tau_contains_translation_direction():
    tgt = VarSet(["X", "Lam"])
    span = origin_span([
        ModuleElement(tgt, [Polynomial.zero(tgt), Polynomial.const(tgt, 1)]),
        ModuleElement(tgt, [parse_poly("X", tgt), Polynomial.zero(tgt)]),
    ])
    assert (Fraction(0), Fraction(1)) in [tuple(r) for r in span]


def test_tau_empty_module():
    assert origin_span([]) == []


def test_intersection_output_satisfies_parameter_conditions():
    # every element of the computed crossing at k=2 has its parameter
    # components vanishing once the parameters are set to zero; this is the
    # membership definition, checked here independently of the kernel
    U = _unfolding_H2()
    tgt5 = U.total.target
    table = [
        ("2*U1", "2*V1", "V2 - 2*W1", "3*W1", "3*W2"),
        ("4*U1^2", "-3*U1*V1 + 3*V2*W1 + 3*W1^2",
         "-5*U1*V2 - 11*U1*W1 - 3*W2", "6*U1*W1", "-3*V1*W1 + 2*U1*W2"),
        ("6*U1", "-3*V1", "-6*V2 - 15*W1", "9*W1", "0"),
        ("9*V1", "-6*V2^2 - 12*V2*W1 - 6*W1^2",
         "-9*W2 - 3*U1*V2 - 3*U1*W1", "9*W2 + 3*U1*V2 + 3*U1*W1",
         "3*V1*V2 + 3*V1*W1"),
        ("0", "-3*U1*V2 - 3*U1*W1 - 3*W2", "3*V1", "0",
         "-3*V2*W1 - 3*W1^2"),
        ("-9*W1", "2*U1*V2 + 2*U1*W1", "-3*V1 - 2*U1^2", "2*U1^2",
         "6*V2*W1 + 6*W1^2 + 2*U1*V1"),
        ("-9*W2 - 3*U1*V2 - 3*U1*W1", "-3*V1*V2 - 3*V1*W1", "-3*U1*V1",
         "3*U1*V1", "6*V2*W2 + 6*W1*W2 + 3*V1^2"),
    ]
    liftF2 = Submodule(tgt5, 5, [_field(tgt5, *row)
                                 for row in table])
    crossed = restrictable_part(U, liftF2)
    assert crossed == list(module_intersect(liftF2, restrictable_reference(U)).generators)
    zero_params = {"U1": Polynomial.zero(tgt5), "V2": Polynomial.zero(tgt5)}
    for g in crossed:
        assert restrictable(g, U)
        for idx in U.target_param_indices():
            assert g.entries[idx].substitute(zero_params).is_zero


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_restrictable_part_is_the_intersection(seed):
    # the syzygy route equals the general intersection with the module of
    # restrictable fields, generator for generator, and contains every
    # element of that intersection a degree-bounded linear solve finds
    rng = random.Random(seed)
    U = _unfolding_H2() if rng.random() < 0.5 else _unfolding_fold()
    ring = U.total.target
    P = U.total.p
    gens = [random_element(rng, ring, P, max_deg=2, max_terms=2, coeff_bound=3)
            for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return
    liftF = Submodule(ring, P, gens)
    N = restrictable_reference(U)
    got = restrictable_part(U, liftF)
    assert got == list(module_intersect(liftF, N).generators)
    assert all(restrictable(g, U) for g in got)
    meet = Submodule(ring, P, got)
    for elem in intersection_bounded(gens, list(N.generators), 2):
        assert express(elem, meet).is_member
