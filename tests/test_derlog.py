import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlift.errors import (
    AmbientError,
    DescentResidueError,
    GroebnerTimeout,
    NotDivisible,
    NotEquidimensional,
    StructureError,
)
from germlift import derlog
from germlift.exprio import parse_poly
from germlift.derlog import (
    Divisor,
    _certify_discriminant,
    augment_field,
    augment_field_div,
    augment_map,
    augment_unfolding,
    derlog_strict,
    derlog_tangent,
    descend_field,
    discriminant,
    euler_field,
    last_component_ideal,
    poly_gcd,
    poly_lcm,
    squarefree_part,
    tangency_quotient,
)
from germlift.germs import MapGerm, Unfolding, VectorField, apply_to, jacobian
from germlift.groebner import Budget, eliminate, express, module_equal
from germlift.modules import ModuleElement, Submodule
from germlift.poly import Polynomial, VarSet, determinant, exact_divide, integer_normalize

from oracles import discriminant_reference, random_poly

try:
    import sympy
except ImportError:
    sympy = None


def _field(ring, *texts):
    return VectorField(ring, [parse_poly(t, ring) for t in texts])


@pytest.mark.parametrize("weights", [[1.5, 2], [True, 2]], ids=["float", "bool"])
def test_euler_field_weights_must_be_positive_ints(weights):
    # 1.5 used to be truncated to 1
    with pytest.raises(AmbientError, match="positive integers"):
        euler_field(VarSet(["x", "y"]), weights)


@pytest.mark.parametrize("weights,h", [([Fraction(3, 2), 2], "x^4 - y^3"),
                                       ([1.5, 2], "x^4 - y^3"),
                                       ([True, 2], "x^2 - y")],
                         ids=["fraction", "float", "bool"])
def test_divisor_weights_must_be_positive_ints(weights, h):
    # each equation is quasihomogeneous for its weights
    R = VarSet(["x", "y"])
    with pytest.raises(AmbientError, match="positive integers"):
        Divisor(R, parse_poly(h, R), weights)


def test_derlog_strict_rotation():
    R = VarSet(["X", "Y"])
    D = Divisor(R, parse_poly("X^2 + Y^2", R))
    S = derlog_strict(D)
    expected = Submodule(R, 2, [_field(R, "Y", "-X")])
    assert module_equal(S, expected)


def test_derlog_strict_torus_direction():
    R = VarSet(["X", "Y"])
    D = Divisor(R, parse_poly("X*Y", R))
    S = derlog_strict(D)
    assert express(_field(R, "X", "-Y"), S).is_member


def test_derlog_tangent_smooth_hypersurface():
    R = VarSet(["X", "Y"])
    D = Divisor(R, parse_poly("X", R))
    T = derlog_tangent(D)
    expected = Submodule(R, 2, [
        _field(R, "X", "0"),
        _field(R, "0", "1"),
    ])
    assert module_equal(T.module, expected)
    for g, a in zip(T.module.generators, T.quotients):
        assert apply_to(g, D.h) == a * D.h


def test_euler_field_weights():
    R = VarSet(["X", "Y", "Z"], [4, 3, 2])
    e = euler_field(R)
    assert e == _field(R, "4*X", "3*Y", "2*Z")
    single = VarSet(["X"], [1])
    assert euler_field(single) == _field(single, "X")


def test_discriminant_fold():
    src = VarSet(["x"])
    tgt = VarSet(["X"])
    f = MapGerm(src, tgt, [parse_poly("x^2", src)])
    D = discriminant(f)
    assert D.h == parse_poly("X", tgt)


def test_discriminant_requires_equidimensional():
    src = VarSet(["x"])
    tgt = VarSet(["X", "Y"])
    f = MapGerm(src, tgt, [parse_poly("x", src), parse_poly("x^2", src)])
    with pytest.raises(NotEquidimensional):
        discriminant(f)


def test_poly_gcd_and_squarefree(xy):
    a = parse_poly("x^2*y", xy)
    b = parse_poly("x*y^2", xy)
    assert poly_gcd(a, b) == parse_poly("x*y", xy)
    h = parse_poly("x + y", xy) ** 2 * parse_poly("x - y", xy)
    sf = squarefree_part(h)
    assert sf == integer_normalize(parse_poly("x + y", xy) * parse_poly("x - y", xy))


def test_certified_squarefree_part_charges_no_reduction(xy):
    # constant leading coefficient in x, and h(x, 3) = x^3 + 3x - 9 is
    # prime to its derivative: certified squarefree with no Groebner run
    h = parse_poly("2/3*x^3 + 1/3*x*y^2 - 2*y^2", xy)
    budget = Budget()
    assert squarefree_part(h, budget) == integer_normalize(h)
    assert budget.stats()["reductions"] == 0


def test_repeated_factor_with_constant_leading_coefficient_takes_the_gcd_loop(xy):
    # the leading coefficient in x is 1, but h(x, 3) = (x + 3)^2 (x - 1)
    # shares x + 3 with its derivative, so no certificate is found
    h = parse_poly("(x + y)^2*(x - 1)", xy)
    budget = Budget()
    assert squarefree_part(h, budget) == integer_normalize(
        parse_poly("(x + y)*(x - 1)", xy))
    assert budget.stats()["reductions"] > 0


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       no_constant_lead=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_squarefree_part_matches_sympy(seed, m, no_constant_lead):
    # h = g^m * k; the factor x*y + x*z + 1 has a nonconstant leading
    # coefficient in every variable, so h then has none and no certificate
    rng = random.Random(seed)
    ring = VarSet(["x", "y", "z"])
    gens = sympy.symbols(ring.names)
    g = random_poly(rng, ring, max_deg=2, max_terms=3, allow_zero=False)
    k = random_poly(rng, ring, max_deg=2, max_terms=3, allow_zero=False)
    if no_constant_lead:
        k = k * parse_poly("x*y + x*z + 1", ring)
    h = g ** m * k
    if h.is_zero or h.total_degree() == 0:
        return
    want = sympy.Poly(_to_sympy(h, gens), *gens).sqf_part().as_expr()
    assert squarefree_part(h) == integer_normalize(_from_sympy(want, gens, ring))


def _to_sympy(p, gens):
    return sympy.Add(*[sympy.Rational(k.numerator, k.denominator)
                       * sympy.Mul(*[g ** x for g, x in zip(gens, e)])
                       for e, k in p.terms.items()])


def _from_sympy(expr, gens, ring):
    return Polynomial(ring, {tuple(int(x) for x in e): Fraction(int(k.p), int(k.q))
                             for e, k in sympy.Poly(expr, *gens).terms()})


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
def test_poly_lcm_and_gcd_match_sympy():
    # products with a random common factor, so that most gcds are nontrivial
    rng = random.Random(808)
    ring = VarSet(["x", "y", "z"])
    gens = sympy.symbols(ring.names)
    for _ in range(25):
        common, a, b = (random_poly(rng, ring, max_deg=2, max_terms=3, allow_zero=False)
                        for _ in range(3))
        if rng.random() < 0.7:
            a, b = a * common, b * common
        if a.is_zero or b.is_zero:
            continue
        sa, sb = _to_sympy(a, gens), _to_sympy(b, gens)
        assert poly_lcm(a, b) == integer_normalize(
            _from_sympy(sympy.lcm(sa, sb), gens, ring))
        assert poly_gcd(a, b) == integer_normalize(
            _from_sympy(sympy.gcd(sa, sb), gens, ring))


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("a, b", [
    ("x + y", "x - y"),                          # coprime
    ("x^2*y + 3", "x*z - 1"),                    # coprime
    ("x^2 - y^2", "x + y"),                      # b divides a
    ("x + y*z", "(x + y*z)^2*z"),                # a divides b
    ("3/2*x*y - 1/3", "3/2*x*y - 1/3"),          # equal
    ("2/3*x^2 - 4/5*y", "-6*x^2 + 36/5*y"),      # equal up to a constant
    ("7", "x + 1"),                              # a constant
    ("5", "3/4"),                                # two constants
    ("2/3*x*y - 4/7*x", "-5/2*y^2 + 15/7*y"),    # rational, non-monic
    ("0", "2/3*x*y - 4/7*x"),                    # zero
])
def test_poly_lcm_and_gcd_edge_cases_match_sympy(a, b):
    ring = VarSet(["x", "y", "z"])
    gens = sympy.symbols(ring.names)
    a, b = parse_poly(a, ring), parse_poly(b, ring)
    sa, sb = _to_sympy(a, gens), _to_sympy(b, gens)
    for got, want in ((poly_lcm(a, b), sympy.lcm(sa, sb)),
                      (poly_lcm(b, a), sympy.lcm(sa, sb)),
                      (poly_gcd(a, b), sympy.gcd(sa, sb)),
                      (poly_gcd(b, a), sympy.gcd(sa, sb))):
        assert got == integer_normalize(_from_sympy(want, gens, ring))


QUARTIC_H = ("256*X^3 + 27*Y^4 + 144*X*Y^2*Z + 128*X^2*Z^2"
             " + 4*Y^2*Z^3 + 16*X*Z^4")


def _quartic_setup():
    srcf = VarSet(["x", "y"], [1, 3])
    tgt2 = VarSet(["X", "Y"], [4, 3])
    srcF = VarSet(["x", "y", "z"], [1, 3, 2])
    tgtF = VarSet(["X", "Y", "Z"], [4, 3, 2])
    f = MapGerm(srcf, tgt2, [parse_poly("x^4 + y*x", srcf), parse_poly("y", srcf)])
    F = MapGerm(srcF, tgtF, [parse_poly("x^4 + y*x + z*x^2", srcF),
                             parse_poly("y", srcF), parse_poly("z", srcF)])
    U = Unfolding(F, ["z"], ["Z"], f)
    H = Divisor(tgtF, parse_poly(QUARTIC_H, tgtF), (4, 3, 2))
    return f, F, U, H


def _etas(tgtF):
    return (
        _field(tgtF, "4*X", "3*Y", "2*Z"),
        _field(tgtF, "-9*Y^2 - 16*X*Z", "12*Y*Z", "48*X + 4*Z^2"),
        _field(tgtF, "Y*Z", "-8*X - 2*Z^2", "6*Y"),
    )


def test_augment_map_and_unfolding():
    f, F, U, H = _quartic_setup()
    A2 = augment_map(U, 2)
    assert A2.components[0] == parse_poly("x^4 + y*x + z^2*x^2", F.source)
    assert augment_map(U, 1) == F
    AF = augment_unfolding(U, 2)
    assert AF.restrict() == A2
    assert AF.total.components[0] == parse_poly(
        "x^4 + y*x + z^2*x^2 + mu*x^2", AF.total.source
    )


def test_augmentation_spec_validated():
    # k must be positive, and the unfolding must have one parameter
    f, F, U, H = _quartic_setup()
    src, tgt = VarSet(["x", "a", "b"]), VarSet(["X", "A", "B"])
    core = MapGerm(VarSet(["x"]), VarSet(["X"]), [parse_poly("x^3", VarSet(["x"]))])
    total = MapGerm(src, tgt, [parse_poly(t, src) for t in ("x^3 + a*x + b*x^2", "a", "b")])
    U2 = Unfolding(total, ["a", "b"], ["A", "B"], core)
    for unfolding, k in [(U, 0), (U2, 2)]:
        for augment in (augment_map, augment_unfolding):
            with pytest.raises(StructureError):
                augment(unfolding, k)


def test_tilde_reproduces_table_k2():
    f, F, U, H = _quartic_setup()
    eta1, eta2, eta3 = _etas(F.target)
    k = 2
    tgtA = VarSet(["X", "Y", "Z"], [4 * k, 3 * k, 2])
    got = augment_field(eta2, k, into=tgtA)
    assert got == _field(tgtA, "-18*Y^2*Z - 32*X*Z^3", "24*Y*Z^3", "48*X + 4*Z^4")


def test_tilde_k1_scales_by_one():
    f, F, U, H = _quartic_setup()
    _, eta2, _ = _etas(F.target)
    assert augment_field(eta2, 1) == eta2


def test_tilde_div_euler_and_xi():
    f, F, U, H = _quartic_setup()
    eta1, eta2, eta3 = _etas(F.target)
    for k in (2, 3):
        tgtA = VarSet(["X", "Y", "Z"], [4 * k, 3 * k, 2])
        e_tilde = augment_field_div(eta1.scale(k), k, into=tgtA)
        assert e_tilde == _field(tgtA, f"{4*k}*X", f"{3*k}*Y", "2*Z")
        xi = eta2.scale(parse_poly(f"{k}*Y", F.target)) - eta3.scale(
            parse_poly(f"{8*k}*X", F.target))
        got = augment_field_div(xi, k, into=tgtA)
        want = _field(
            tgtA,
            f"-{9*k}*Y^3 - {24*k}*X*Y*Z^{k}",
            f"{64*k}*X^2 + {12*k}*Y^2*Z^{k} + {16*k}*X*Z^{2*k}",
            f"4*Y*Z^{k+1}",
        )
        assert got == want


def test_tilde_div_requires_vanishing_last_entry():
    f, F, U, H = _quartic_setup()
    _, eta2, _ = _etas(F.target)
    with pytest.raises(NotDivisible):
        augment_field_div(eta2, 2)  # last entry 48X + 4Z^2 survives at Z=0


def test_transform_quotient_divisible_by_derivative():
    # eta tangent to H implies the transform is tangent to h with quotient
    # divisible by the derivative k*Z^(k-1)
    f, F, U, H = _quartic_setup()
    for k in (2, 3):
        tgtA = VarSet(["X", "Y", "Z"], [4 * k, 3 * k, 2])
        h = H.h.substitute({"Z": parse_poly(f"Z^{k}", tgtA)}, into=tgtA)
        for eta in _etas(F.target):
            tilde = augment_field(eta, k, into=tgtA)
            q = tangency_quotient(tilde, h)
            assert q is not None
            if not q.is_zero:
                exact_divide(q, parse_poly(f"{k}*Z^{k-1}", tgtA))


def test_pi2_ideal_from_table():
    f, F, U, H = _quartic_setup()
    M = Submodule(F.target, 3, _etas(F.target))
    I = last_component_ideal(M)
    short = I.ring
    expected = Submodule.ideal(short, [parse_poly("48*X", short),
                                       parse_poly("6*Y", short)])
    assert module_equal(I, expected)
    xy_ideal = Submodule.ideal(short, [parse_poly("X", short),
                                       parse_poly("Y", short)])
    assert module_equal(I, xy_ideal)


def test_pi2_zero_module():
    R = VarSet(["X", "Y", "Z"])
    M = Submodule(R, 3, [])
    assert last_component_ideal(M).generators == ()


def test_descend_roundtrip_tilde_image():
    f, F, U, H = _quartic_setup()
    _, eta2, _ = _etas(F.target)
    k = 2
    tgtA = VarSet(["X", "Y", "Z"], [8, 6, 2])
    res = descend_field(augment_field(eta2, k, into=tgtA), k, H)
    assert res.field == eta2
    assert res.discarded.is_zero


def test_descend_recovers_annihilator_with_divisible_last_entry():
    f, F, U, H = _quartic_setup()
    _, eta2, eta3 = _etas(F.target)
    k = 2
    tgtA = VarSet(["X", "Y", "Z"], [8, 6, 2])
    xi = eta2.scale(parse_poly("2*Y", F.target)) - eta3.scale(
        parse_poly("16*X", F.target))
    res = descend_field(augment_field_div(xi, k, into=tgtA), k, H)
    assert res.field == xi
    # strict annihilation: the recovered field kills H
    assert res.quotient.is_zero
    exact_divide(res.field.entries[-1], parse_poly("Z", F.target))


def test_descend_k1_identity():
    f, F, U, H = _quartic_setup()
    eta1, eta2, eta3 = _etas(F.target)
    for eta in (eta1, eta2, eta3):
        res = descend_field(eta, 1, H)
        assert res.field == eta
        assert res.discarded.is_zero


def test_descend_rejects_non_tangent_input():
    f, F, U, H = _quartic_setup()
    bad = _field(F.target, "1", "0", "0")
    with pytest.raises(DescentResidueError):
        descend_field(bad, 2, H)


def test_divisor_invariants():
    R = VarSet(["X", "Y"])
    with pytest.raises(StructureError):
        Divisor(R, Polynomial.const(R, 1))
    with pytest.raises(StructureError):
        Divisor(R, parse_poly("X + Y^2", R), (1, 1))


def test_strict_part_complements_euler():
    # tangency module = <Euler> + strict annihilator for the quasihomogeneous
    # quartic discriminant
    _, F, _, H = _quartic_setup()
    T = derlog_tangent(H)
    S = derlog_strict(H)
    e = euler_field(H.ring)
    assert apply_to(e, H.h) == H.h * 12
    combined = Submodule(H.ring, 3,
                         list(S.generators) + [e])
    assert module_equal(combined, T.module)


def test_transform_quotients_on_computed_tangency_module():
    # every generator of the computed tangency module transforms to a field
    # tangent to the substituted equation, quotient divisible by k*Z^(k-1)
    _, F, _, H = _quartic_setup()
    computed = derlog_tangent(H)
    for k in (2, 3):
        tgtA = VarSet(["X", "Y", "Z"], [4 * k, 3 * k, 2])
        h = H.h.substitute({"Z": parse_poly(f"Z^{k}", tgtA)}, into=tgtA)
        for g in computed.module.generators:
            tilde = augment_field(g, k, into=tgtA)
            q = tangency_quotient(tilde, h)
            assert q is not None
            if not q.is_zero:
                exact_divide(q, parse_poly(f"{k}*Z^{k-1}", tgtA))


def test_euler_property_on_all_fixture_divisors():
    from germlift.manifest import load_manifest
    from conftest import fixture_path

    m = load_manifest(fixture_path("augment.manifest.json"))
    for name, D in sorted(m.divisors.items()):
        w = D.effective_weights()
        assert w is not None, name
        (d,) = D.h.weighted_degrees(w)
        assert apply_to(euler_field(D.ring, w), D.h) == D.h * d


def test_image_tangency_module_matches_certified_generators():
    # fully independent route: eliminate the source variables to get the
    # defining equation of the image of (x, y) -> (x, y^3, y^(3k-1) + x*y),
    # then take its tangency module; it must equal the module of the five
    # certified generators that the unfolding pipeline also produces
    from germlift.groebner import eliminate
    from germlift.poly import integer_normalize

    def Yp(n):
        return f"Y^{n}" if n >= 1 else "1"

    for k in (2, 3, 4, 5):
        big = VarSet(["y", "X", "Y", "Z"])
        image_ideal = Submodule.ideal(big, [
            parse_poly("Y - y^3", big),
            parse_poly(f"Z - y^{3*k-1} - X*y", big),
        ])
        gens = eliminate(image_ideal, ["y"]).ideal_generators()
        assert len(gens) == 1
        h = integer_normalize(gens[0])
        tgt3 = VarSet(["X", "Y", "Z"], [3 * k - 2, 3, 3 * k - 1])
        D = Divisor(tgt3, Polynomial(tgt3, h.terms), (3 * k - 2, 3, 3 * k - 1))
        T = derlog_tangent(D)
        table = [
            [f"{3*k-2}*X", "3*Y", f"{3*k-1}*Z"],
            [f"X^2 + {3*k-1}*{Yp(k-1)}*Z", "-3*X*Y", f"{3*k-1}*Y^{2*k-1}"],
            [f"Z^2 - X*Y^{k}", "0", f"X^2*Y + Y^{k}*Z"],
            [f"{3*k-1}*Y^{2*k-1} + X*Z", "-3*Y*Z", f"-{3*k-1}*X*Y^{k}"],
            [f"-{3*k-1}*Y^{2*k-2}*Z - X^2*{Yp(k-1)}", "3*Z^2",
             f"{3*k}*X*{Yp(k-1)}*Z + X^3"],
        ]
        M = Submodule(tgt3, 3, [
            ModuleElement(tgt3, [parse_poly(t, tgt3) for t in row])
            for row in table
        ])
        assert module_equal(T.module, M), k


def _versal(mu):
    """The versal unfolding (x^(mu+1) + sum a_i x^i, a) of A_mu."""
    params = [f"a{i}" for i in range(1, mu)]
    w = [mu + 1 - i for i in range(1, mu)]
    src = VarSet(["x"] + params, [1] + w)
    tgt = VarSet(["X"] + [p.upper() for p in params], [mu + 1] + w)
    first = f"x^{mu + 1}" + "".join(f" + a{i}*x^{i}" for i in range(1, mu))
    return MapGerm(src, tgt, [parse_poly(t, src) for t in [first] + params])


def _augmented_quartic(k):
    """(x^4 + y*x + z^k*x^2, y, z), the k-th augmentation of the quartic."""
    src = VarSet(["x", "y", "z"], [k, 3 * k, 2])
    tgt = VarSet(["X", "Y", "Z"], [4 * k, 3 * k, 2])
    return MapGerm(src, tgt, [parse_poly(t, src) for t in
                              (f"x^4 + y*x + z^{k}*x^2", "y", "z")])


BUNDLED_DIVISORS = ("H", "disc_f", "h_k2", "h_k3")


def _divisor(label):
    """A divisor of the discriminants benchmark, or a bundled one by name."""
    from germlift.suite import bundled_manifests

    if label in ("A3", "A4"):
        return discriminant(_versal(int(label[1:])))
    if label.startswith("aug"):
        return discriminant(_augmented_quartic(int(label[3:])))
    (D,) = [m.divisors[label] for m in bundled_manifests() if label in m.divisors]
    return D


def _eta_h(g, h):
    """eta(h) = sum_i eta_i * dh/dx_i, multiplied out here."""
    acc = Polynomial.zero(h.ring)
    for q, name in zip(g.entries, h.ring.names):
        acc = acc + q * h.diff(name)
    return acc


@pytest.mark.parametrize("label", ["A3", "A4"] + [f"aug{k}" for k in range(2, 8)]
                         + list(BUNDLED_DIVISORS))
def test_derlog_generators_satisfy_their_identities(label):
    # derlog_strict and derlog_tangent rely on the syzygy check alone; the
    # identities are re-derived here from the returned generators
    D = _divisor(label)
    strict = derlog_strict(D)
    assert strict.generators, label
    for g in strict.generators:
        assert _eta_h(g, D.h).is_zero, (label, str(g))
    tangent = derlog_tangent(D)
    assert len(tangent.quotients) == len(tangent.module.generators) > 0
    for g, q in zip(tangent.module.generators, tangent.quotients):
        assert _eta_h(g, D.h) == q * D.h, (label, str(g), str(q))


def _no_elimination(*args, **kwargs):
    raise AssertionError("discriminant eliminated")


@pytest.mark.parametrize("label", ["A3", "A4"] + [f"aug{k}" for k in range(2, 8)])
def test_discriminant_matches_the_full_graph_ideal(label, monkeypatch):
    # every component but the first is a bare variable in these germs, and
    # the first is monic in x: the norm route, with no Groebner run
    f = _versal(int(label[1:])) if label[0] == "A" else _augmented_quartic(int(label[3:]))
    want = discriminant_reference(f)
    monkeypatch.setattr(derlog, "eliminate", _no_elimination)
    budget = Budget()
    assert discriminant(f, budget).h == want
    assert budget.stats() == {"reductions": 0, "s_pairs": 0, "zero_reductions": 0}


@pytest.mark.parametrize("name", ["F", "f", "A2f", "A3f"])
def test_bundled_discriminants_need_no_elimination(name, monkeypatch):
    # the maps of the aug.disc_* tasks
    from germlift.manifest import load_manifest
    from conftest import fixture_path

    f = load_manifest(fixture_path("augment.manifest.json")).maps[name]
    want = discriminant_reference(f)
    monkeypatch.setattr(derlog, "eliminate", _no_elimination)
    budget = Budget()
    assert discriminant(f, budget).h == want
    assert budget.reductions == 0


def test_norm_route_reads_the_clock_once_per_pivot():
    with pytest.raises(GroebnerTimeout, match="time limit"):
        discriminant(_versal(4), Budget(seconds=0))


@pytest.mark.parametrize("texts", [
    # the leading coefficient in y is x, or 1 + x, not a constant
    ("x", "x*y^3 + y^2"),
    ("x", "y^3 + x*y^3 + y^2"),
    ("x", "y^2 + x*z^3 + z^2", "y"),
    # two kept components; no order makes both lead with powers of
    # distinct variables
    ("x^2 + y^2", "x*y"),
    ("x^2 + y^3", "y^2 + x*y"),
])
def test_discriminant_off_the_norm_route_eliminates(texts, monkeypatch):
    src = VarSet(["x", "y", "z"][:len(texts)])
    tgt = VarSet(["X", "Y", "Z"][:len(texts)])
    f = MapGerm(src, tgt, [parse_poly(t, src) for t in texts])
    want = discriminant_reference(f)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(derlog, "eliminate", counted)
    assert discriminant(f).h == want
    assert len(calls) == 1


def test_discriminant_certificate_refuses_a_wrong_equation():
    f = _versal(3)
    det = determinant(jacobian(f))
    h = discriminant(f).h
    _certify_discriminant(f, h, det)
    X, A1, A2 = (Polynomial.variable(f.target, v) for v in f.target.names)
    for wrong in (h + X, h * A1 + A2 ** 3):
        with pytest.raises(StructureError, match="certificate"):
            _certify_discriminant(f, wrong, det)


def test_discriminant_certificate_checks_the_elimination_route(monkeypatch):
    # (x^2 + y^3, y^2 + x*y) has no free basis, so h comes from
    # elimination; a wrong principal ideal there must fail the certificate,
    # not be returned
    src, tgt = VarSet(["x", "y"]), VarSet(["X", "Y"])
    f = MapGerm(src, tgt, [parse_poly("x^2 + y^3", src), parse_poly("y^2 + x*y", src)])
    assert discriminant(f).h == discriminant_reference(f)

    def wrong(I, names, budget=None):
        return Submodule.ideal(tgt, [parse_poly("X + Y", tgt)])

    monkeypatch.setattr(derlog, "eliminate", wrong)
    with pytest.raises(StructureError, match="certificate"):
        discriminant(f)


def test_discriminant_certificate_refuses_a_multiple_on_the_norm_route(monkeypatch):
    # h*(U + 1) passes the division of h o f by det(df), as any multiple of
    # h does; the norm, a scalar times h, is not divisible by it
    src, tgt = VarSet(["u", "x"]), VarSet(["U", "X"])
    f = MapGerm(src, tgt, [parse_poly("u", src), parse_poly("x^3 + u*x", src)])
    det = determinant(jacobian(f))
    h = discriminant(f).h
    assert h == parse_poly("4*U^3 + 27*X^2", tgt)
    multiple = h * parse_poly("U + 1", tgt)
    _certify_discriminant(f, multiple, det)
    real = squarefree_part
    monkeypatch.setattr(derlog, "squarefree_part",
                        lambda p, budget=None: real(p, budget) * parse_poly("U + 1", tgt))
    with pytest.raises(StructureError, match="norm"):
        discriminant(f)


def _no_norm(*args, **kwargs):
    raise AssertionError("discriminant took the norm")


@pytest.mark.parametrize("texts", [("x", "y"), ("x^2 + y", "y^2 + x")])
def test_discriminant_of_a_submersion_is_refused_before_either_route(texts, monkeypatch):
    src, tgt = VarSet(["x", "y"]), VarSet(["X", "Y"])
    f = MapGerm(src, tgt, [parse_poly(t, src) for t in texts])
    monkeypatch.setattr(derlog, "_free_norm", _no_norm)
    monkeypatch.setattr(derlog, "eliminate", _no_elimination)
    with pytest.raises(StructureError, match="submersion at 0"):
        discriminant(f)


def _germ2(*texts):
    src, tgt = VarSet(["x", "y"]), VarSet(["X", "Y"])
    return MapGerm(src, tgt, [parse_poly(t, src) for t in texts])


# h of (x^3 - 2*y^2, y^3 + 2*x*y), whose grevlex leads x^3 and y^3 give a
# free basis of rank 9; eliminating its graph ideal gives the same h after
# 28,382 reductions, about 10 s on one core
FREE_CUBIC_H = (
    "387420489*X^6*Y^6 + 1377495072*X^7*Y^4 + 6198727824*X^3*Y^8"
    " + 1632586752*X^8*Y^2 + 28978414848*X^4*Y^6 + 24794911296*Y^10"
    " + 644972544*X^9 + 50186926080*X^5*Y^4 + 65303470080*X*Y^8"
    " + 40704933888*X^6*Y^2 + 40131624960*X^2*Y^6 + 12230590464*X^7"
    " + 47563407360*X^3*Y^4 + 108716359680*X^4*Y^2 + 209715200000*Y^6"
    " + 57982058496*X^5")

# h of (x^2 + y^3, y^2 + x^3), whose grevlex leads y^3 and x^3 swap the
# variables; discriminant_reference gives the same h in about 30 s
SWAPPED_CUBIC_H = (
    "387420489*X^6*Y^6 - 774840978*X^8*Y^3 - 774840978*X^3*Y^8"
    " + 387420489*X^10 + 1600700292*X^5*Y^5 + 387420489*Y^10"
    " - 825859314*X^7*Y^2 - 825859314*X^2*Y^7 + 394698825*X^4*Y^4"
    " + 43740000*X^6*Y + 43740000*X*Y^6 - 42940000*X^3*Y^3 - 800000*X^5"
    " - 800000*Y^5 + 800000*X^2*Y^2")


def test_discriminant_of_a_free_germ_without_bare_components_makes_no_groebner_run():
    f = _germ2("x^3 - 2*y^2", "y^3 + 2*x*y")
    budget = Budget(max_reductions=0)
    h = discriminant(f, budget).h
    assert h == parse_poly(FREE_CUBIC_H, f.target)
    assert len(h.terms) == 16
    assert budget.stats() == {"reductions": 0, "s_pairs": 0, "zero_reductions": 0}


@pytest.mark.parametrize("texts", [
    ("x^2", "y^2"),
    # lex with y first leads with y^2 and x^2
    ("x^3 + y^2", "x^2"),
    ("x^2 + y^3", "y^2 + x^3"),
])
def test_discriminant_of_free_germs_takes_the_norm_route(texts, monkeypatch):
    f = _germ2(*texts)
    if texts == ("x^2 + y^3", "y^2 + x^3"):
        want = parse_poly(SWAPPED_CUBIC_H, f.target)
    else:
        want = discriminant_reference(f)
    monkeypatch.setattr(derlog, "eliminate", _no_elimination)
    assert discriminant(f).h == want


def test_free_norm_reads_the_clock_before_its_determinant(monkeypatch):
    def unbudgeted_only(rows, budget=None):
        if budget is not None:
            raise AssertionError("the norm's determinant was reached")
        return determinant(rows)

    monkeypatch.setattr(derlog, "determinant", unbudgeted_only)
    monkeypatch.setattr(derlog, "eliminate", _no_elimination)
    with pytest.raises(GroebnerTimeout, match="time limit"):
        discriminant(_germ2("x^3 - 2*y^2", "y^3 + 2*x*y"), Budget(seconds=0))


def _random_free_germ(rng, n, n_bare):
    """An n -> n germ, singular at 0, with a free basis, and whether it
    permutes the variables.  The components at n_bare random places are
    distinct random source variables; every other one is ``c*u^d`` plus up
    to two terms of degree at least 2 whose degree in the non-bare
    variables is below d, for d from 2 to 6 - n and the non-bare variables
    u in random order, so that grevlex leads it with ``c*u^d``.  It permutes
    the variables when some non-bare component's u is not the variable at
    its own place."""
    src = VarSet(["x", "y", "z"][:n])
    tgt = VarSet(["X", "Y", "Z"][:n])
    places = rng.sample(range(n), n_bare)
    bare = rng.sample(range(n), n_bare)
    free = [j for j in range(n) if j not in bare]
    rng.shuffle(free)
    comps, permuted = [], False
    for i in range(n):
        if i in places:
            comps.append(Polynomial.variable(src, src.names[bare[places.index(i)]]))
            continue
        u = free.pop()
        permuted |= u != i
        d = rng.randint(2, 6 - n)
        terms = {tuple(d * k for k in src.unit_exp(u)):
                 Fraction(rng.choice([1, -1, 2, Fraction(1, 2)]))}
        for _ in range(rng.randint(0, 2)):
            e = [0] * n
            for _ in range(rng.randint(1, d - 1)):
                e[rng.choice([j for j in range(n) if j not in bare])] += 1
            for _ in range(rng.randint(0, 2) if bare else 0):
                e[rng.choice(bare)] += 1
            if sum(e) >= 2:
                terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        comps.append(Polynomial(src, terms))
    return MapGerm(src, tgt, comps), permuted


@pytest.mark.parametrize("n, n_bare", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_discriminant_of_random_free_germs_takes_the_norm_route(n, n_bare, monkeypatch):
    rng = random.Random(2600 + 10 * n + n_bare)
    drawn = [_random_free_germ(rng, n, n_bare) for _ in range(8)]
    wants = []
    for f, _ in drawn:
        try:
            wants.append(discriminant_reference(f, Budget(max_reductions=2000)))
        except GroebnerTimeout:  # too costly for a unit test
            wants.append(None)
    compared = [permuted for (_, permuted), w in zip(drawn, wants) if w is not None]
    assert len(compared) >= 4 and any(compared) and not all(compared)
    monkeypatch.setattr(derlog, "eliminate", _no_elimination)
    for (f, _), want in zip(drawn, wants):
        h = discriminant(f).h
        if want is not None:
            assert h == want, [str(c) for c in f.components]


def _random_corank1_germ(rng, n):
    """An n -> n germ with n - 1 bare components at random places and the
    other ``c*y^m + sum_{k<m} g_k y^k`` for a random source variable y, a
    constant c, m = 2..4 and small g_k in the other source variables; g_0
    and g_1 have no constant term, so the germ fixes 0 and is singular
    there."""
    src = VarSet(["x", "y", "z"][:n])
    tgt = VarSet(["X", "Y", "Z"][:n])
    names = list(src.names)
    rng.shuffle(names)
    y, others = names[0], names[1:]
    y_poly = Polynomial.variable(src, y)
    m = rng.randint(2, 4)
    g = y_poly ** m * rng.choice([1, -1, 2, Fraction(1, 2)])
    for k in range(m):
        for _ in range(rng.randint(0, 2)):
            e = [0] * n
            for _ in range(rng.randint(0 if k > 1 else 1, 2)):
                e[src.index(rng.choice(others))] += 1
            g = g + Polynomial.monomial(src, e, rng.choice([-3, -1, 1, 2])) * y_poly ** k
    place = rng.randrange(n)
    bare = iter(others)
    comps = [g if i == place else Polynomial.variable(src, next(bare)) for i in range(n)]
    return MapGerm(src, tgt, comps)


@pytest.mark.parametrize("n", [2, 3])
def test_discriminant_of_random_corank1_germs_takes_the_norm_route(n, monkeypatch):
    rng = random.Random(1900 + n)
    germs = [_random_corank1_germ(rng, n) for _ in range(10)]
    wants = []
    for f in germs:
        try:
            wants.append(discriminant_reference(f, Budget(max_reductions=3000)))
        except GroebnerTimeout:  # too costly for a unit test
            wants.append(None)
    assert sum(w is not None for w in wants) >= 6
    monkeypatch.setattr(derlog, "eliminate", _no_elimination)
    for f, want in zip(germs, wants):
        h = discriminant(f).h
        if want is not None:
            assert h == want, [str(c) for c in f.components]


def _random_germ(rng, n, n_bare):
    """An n -> n germ, singular at 0, whose components at n_bare random
    places are distinct source variables; every other component is ``u^a``
    plus one or two terms of degree 2 to ``a``, for a source variable
    ``u`` that no component is."""
    src = VarSet(["x", "y", "z"][:n])
    tgt = VarSet(["X", "Y", "Z"][:n])
    names = list(src.names)
    rng.shuffle(names)
    places = rng.sample(range(n), n_bare)
    comps = []
    for i in range(n):
        u = Polynomial.variable(src, names.pop())
        if i in places:
            comps.append(u)
            continue
        a = rng.randint(2, 3)
        terms = {}
        for _ in range(rng.randint(1, 2)):
            e = [0] * n
            for _ in range(rng.randint(2, a)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        comps.append(u ** a + Polynomial(src, terms))
    return MapGerm(src, tgt, comps)


@pytest.mark.parametrize("n, n_bare", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_discriminant_of_random_germs_matches_the_full_graph_ideal(n, n_bare):
    rng = random.Random(1500 + 10 * n + n_bare)
    compared = 0
    for _ in range(8):
        f = _random_germ(rng, n, n_bare)
        try:
            want = discriminant_reference(f, Budget(max_reductions=2000))
        except GroebnerTimeout:  # too costly for a unit test
            continue
        except ValueError:
            # the image of the critical set is not a hypersurface: the same
            # elimination ideal makes discriminant raise
            with pytest.raises(StructureError, match="not principal"):
                discriminant(f)
            continue
        assert discriminant(f).h == want, [str(c) for c in f.components]
        compared += 1
    assert compared >= 4
