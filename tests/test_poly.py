import random
from fractions import Fraction

import pytest

from germlift.errors import AmbientError, GroebnerTimeout, NotDivisible
from germlift.exprio import parse_poly
from germlift.groebner import Budget
from germlift.poly import (
    MonomialOrder,
    Polynomial,
    VarSet,
    determinant,
    exact_divide,
    integer_normalize,
    set_zero,
    zero_section,
)

from oracles import cofactor_determinant, newton_derivative_at, random_poly


def test_varset_invariants():
    with pytest.raises(AmbientError):
        VarSet(["x", "x"])
    with pytest.raises(AmbientError):
        VarSet(["x"], [0])
    with pytest.raises(AmbientError):
        VarSet(["x", "y"], [1])
    for bad in ("", "x y", "x-1", "1x", "\u00e9"):
        with pytest.raises(AmbientError):
            VarSet([bad])
    VarSet(["x", "y"], [4, 1])
    VarSet(["_x1", "Mu_"])
    VarSet([])


@pytest.mark.parametrize("weights", [[1.5, 2], [2.0, 1], ["2", 1], [True, 2]],
                         ids=["float", "integral-float", "string", "bool"])
def test_ring_weights_must_be_positive_ints(weights):
    # none of these may be converted to a weight: 1.5 used to become 1
    with pytest.raises(AmbientError, match="positive integers"):
        VarSet(["x", "y"], weights)


@pytest.mark.parametrize("weights", [[1.5, 2], [True, 2]], ids=["float", "bool"])
def test_grading_weights_must_be_positive_ints(xy, weights):
    with pytest.raises(AmbientError, match="positive integers"):
        parse_poly("x^4 - y^3", xy).weighted_degrees(weights)


@pytest.mark.parametrize("weights", [[-1, 1], [0, 1], [1.5, 1], [True, 1]],
                         ids=["negative", "zero", "float", "bool"])
def test_order_weights_must_be_positive_ints(weights):
    # under wgrevlex([-1, 1]) the powers of x grow without bound, and a
    # Groebner basis run never ends
    with pytest.raises(AmbientError, match="positive integers"):
        MonomialOrder.wgrevlex(weights)


def test_zero_section_drops_the_zeroed_variables_and_renames_the_rest():
    src, short = VarSet(["x", "a", "y"]), VarSet(["u", "v"], [2, 3])
    p = parse_poly("x^2*y + 3*a*x - 1/2*y^4 + a^2", src)
    assert zero_section(p, ["a"], short) == parse_poly("u^2*v - 1/2*v^4", short)
    # setting every variable to zero leaves the constant term
    assert zero_section(p + 5, ["x", "a", "y"], VarSet([])).terms == {(): 5}


def test_set_zero_keeps_the_ring_and_the_terms_free_of_the_zeroed_variables():
    src = VarSet(["x", "a", "y"])
    p = parse_poly("x^2*y + 3*a*x - 1/2*y^4 + a^2 + 7", src)
    assert set_zero(p, ["a"]) == parse_poly("x^2*y - 1/2*y^4 + 7", src)
    assert set_zero(p, ["a", "y"]) == p.substitute(
        {"a": Polynomial.zero(src), "y": Polynomial.zero(src)})
    assert set_zero(p, []) == p
    with pytest.raises(AmbientError):
        set_zero(p, ["b"])
    with pytest.raises(AmbientError):
        zero_section(p, ["a"], VarSet(["u"]))


def test_cancellation(xy, P):
    assert P("x + y", xy) + P("x - y", xy) == P("2*x", xy)


def test_exponent_addition():
    R = VarSet(["y"])
    k = 3
    assert parse_poly("y^3", R) * parse_poly(f"y^{3*k-4}", R) == parse_poly("y^8", R)


def test_expand_cross_checked_by_evaluation():
    R = VarSet(["u1", "y"])
    prod = parse_poly("y^3 + u1*y", R) * parse_poly("y^2", R)
    expected = parse_poly("y^5 + u1*y^3", R)
    assert prod == expected
    rng = random.Random(7)
    for _ in range(20):
        pt = {"u1": Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
              "y": Fraction(rng.randint(-9, 9), rng.randint(1, 4))}
        assert prod.evaluate(pt) == expected.evaluate(pt)


H_K1 = ("256*X^3 + 27*Y^4 + 144*X*Y^2*Z + 128*X^2*Z^2 + 4*Y^2*Z^3 + 16*X*Z^4")


def test_substitute_power():
    R = VarSet(["X", "Y", "Z"])
    p = parse_poly("144*X*Y^2*Z", R)
    assert p.substitute({"Z": parse_poly("Z^2", R)}) == parse_poly("144*X*Y^2*Z^2", R)


def test_substitute_identity(xy, P):
    p = P("x^2 - 3*x*y + 1", xy)
    ident = {"x": P("x", xy), "y": P("y", xy)}
    assert p.substitute(ident) == p


def test_substitute_inverse_pair():
    R = VarSet(["V2", "W1"])
    k = 2
    fwd = {"V2": parse_poly(f"V2 - W1^{k-1}", R)}
    p = parse_poly(f"V2 + W1^{k-1}", R)
    assert p.substitute(fwd) == parse_poly("V2", R)


def test_substitute_missing_image():
    R = VarSet(["x", "y"])
    S = VarSet(["a"])
    with pytest.raises(AmbientError):
        parse_poly("x + y", R).substitute({"x": parse_poly("a", S)})


def test_partial_derivative_of_h_derived_by_differences():
    R = VarSet(["X", "Y", "Z"])
    h = parse_poly(H_K1, R)
    dZ = h.diff("Z")
    assert dZ == parse_poly("144*X*Y^2 + 256*X^2*Z + 12*Y^2*Z^2 + 64*X*Z^3", R)
    rng = random.Random(11)
    for _ in range(8):
        pt = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for n in R.names}
        assert dZ.evaluate(pt) == newton_derivative_at(h, "Z", pt)


def test_derivative_of_constant(xy, P):
    assert P("5", xy).diff("x").is_zero


def test_derivative_paper_component():
    R = VarSet(["x", "y"])
    k = 2
    p = parse_poly(f"y^{3*k-1} + x*y", R)
    assert p.diff("y") == parse_poly("5*y^4 + x", R)


def test_unknown_variable_errors(xy, P):
    with pytest.raises(AmbientError):
        P("x", xy).diff("z")


def test_weighted_degrees_h():
    R = VarSet(["X", "Y", "Z"], [4, 3, 2])
    h = parse_poly(H_K1, R)
    assert h.weighted_degrees() == (12,)
    assert h.is_weighted_homogeneous()


def test_weighted_degrees_H2_components():
    R = VarSet(["x", "y"], [4, 1])
    comps = [parse_poly(s, R) for s in ("x", "y^3", "y^5 + x*y")]
    assert [c.weighted_degrees() for c in comps] == [(4,), (3,), (5,)]


def test_weighted_degrees_mixed(xy):
    p = parse_poly("x + y^2", xy)
    assert p.weighted_degrees([1, 1]) == (1, 2)
    assert not p.is_weighted_homogeneous([1, 1])


def test_ring_axioms_random():
    rng = random.Random(1234)
    R = VarSet(["x", "y", "z"])
    for _ in range(250):
        a = random_poly(rng, R)
        b = random_poly(rng, R)
        c = random_poly(rng, R)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_substitution_composition_random():
    rng = random.Random(99)
    R = VarSet(["x", "y"])
    for _ in range(200):
        p = random_poly(rng, R, max_deg=3, max_terms=3)
        sigma = {n: random_poly(rng, R, max_deg=2, max_terms=2) for n in R.names}
        tau = {n: random_poly(rng, R, max_deg=2, max_terms=2) for n in R.names}
        comp = {n: sigma[n].substitute(tau) for n in R.names}
        assert p.substitute(sigma).substitute(tau) == p.substitute(comp)


def test_derivative_linear_leibniz_random():
    rng = random.Random(5)
    R = VarSet(["x", "y"])
    for _ in range(200):
        a = random_poly(rng, R)
        b = random_poly(rng, R)
        v = rng.choice(R.names)
        assert (a + b).diff(v) == a.diff(v) + b.diff(v)
        assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


def test_orders_are_multiplicative_well_orders():
    # heap keys reverse the order: the greater monomial has the lesser key
    rng = random.Random(42)
    orders = [
        MonomialOrder.lex(),
        MonomialOrder.grevlex(),
        MonomialOrder.wgrevlex((3, 1, 2)),
        MonomialOrder.elimination([0]),
    ]
    zero = (0, 0, 0)
    for order in orders:
        for _ in range(300):
            a = tuple(rng.randint(0, 5) for _ in range(3))
            b = tuple(rng.randint(0, 5) for _ in range(3))
            c = tuple(rng.randint(0, 5) for _ in range(3))
            ka, kb = order.heap_key(a), order.heap_key(b)
            assert (ka < kb) + (ka == kb) + (ka > kb) == 1
            if a != b:
                assert ka != kb
            if ka < kb:
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert order.heap_key(ac) < order.heap_key(bc)
            if a != zero:
                assert order.heap_key(zero) > order.heap_key(a)


def test_elimination_order_blocks_dominate():
    order = MonomialOrder.elimination([0])
    # anything containing the first variable beats anything that does not
    assert order.heap_key((1, 0, 0)) < order.heap_key((0, 9, 9))


def test_leading_and_sorted_terms_follow_the_order():
    R = VarSet(["x", "y"])
    p = parse_poly("x*y + y^3 + x^2", R)
    assert p.leading(MonomialOrder.lex())[0] == (2, 0)
    assert p.leading(MonomialOrder.grevlex())[0] == (0, 3)
    assert [e for e, _ in p.sorted_terms(MonomialOrder.lex())] == [
        (2, 0), (1, 1), (0, 3)]
    assert [e for e, _ in p.sorted_terms(MonomialOrder.grevlex())] == [
        (0, 3), (2, 0), (1, 1)]


def test_exact_divide():
    R = VarSet(["x", "y"])
    a = parse_poly("x^2 - y^2", R)
    b = parse_poly("x + y", R)
    assert exact_divide(a, b) == parse_poly("x - y", R)
    with pytest.raises(NotDivisible):
        exact_divide(parse_poly("x^2 + 1", R), b)


def test_exact_divide_random():
    # the quotient of a product comes back, and a product plus a monomial
    # of lower degree than the divisor is not a multiple of it
    rng = random.Random(1902)
    R = VarSet(["x", "y", "z"])
    for _ in range(150):
        b = random_poly(rng, R, max_deg=3, max_terms=5)
        if b.total_degree() == 0:
            continue
        q = random_poly(rng, R, max_deg=4, max_terms=7)
        a = q * b
        assert exact_divide(a, b) == q
        e = tuple(rng.randint(0, 1) for _ in R.names)
        while sum(e) >= b.total_degree():
            e = tuple(x - 1 if x else 0 for x in e)
        bumped = a + Polynomial.monomial(R, e, Fraction(rng.choice([-2, 1, 3]), 2))
        with pytest.raises(NotDivisible):
            exact_divide(bumped, b)


def _clean(p: Polynomial) -> bool:
    """Every coefficient is a nonzero Fraction: ``Polynomial._of`` checks
    nothing, so the integer routines must build exactly that."""
    return all(isinstance(c, Fraction) and c for c in p.terms.values())


def test_exact_divide_on_the_integer_boundary(xy, P):
    # every lead exponent divides, but 2x + 1 is primitive and the quotient
    # would need a non-integer coefficient: refused by Gauss's lemma
    with pytest.raises(NotDivisible, match=r"^2\*x \+ 1 does not divide x \+ 1$"):
        exact_divide(P("x + 1", xy), P("2*x + 1", xy))
    # 3xy + y^2 = y*(2x + y) + xy: dropping the remainder 1 of 3 = 1*2 + 1
    # would leave a quotient y whose every later step divides
    with pytest.raises(NotDivisible):
        exact_divide(P("3*x*y + y^2", xy), P("2*x + y", xy))
    # a divisor of content 2, a quotient that is not integral
    q = exact_divide(P("x^2 - 1/4", xy), P("2*x + 1", xy))
    assert q == P("1/2*x - 1/4", xy) and _clean(q)
    # a divisor with a negative lead and denominators on both sides
    q = exact_divide(P("-3/2*x^2*y + 1/3*y^2", xy), P("-9/2*x^2 + y", xy))
    assert q == P("1/3*y", xy) and _clean(q)
    assert exact_divide(P("0", xy), P("-6*x + 4", xy)).is_zero
    for a, b in ((P("x^3 - 8/27", xy), P("3*x - 2", xy)), (P("x*y", xy), P("-x", xy))):
        q = exact_divide(a, b)
        assert q * b == a and _clean(q)


def test_exact_divide_reads_the_clock(xy, P):
    with pytest.raises(GroebnerTimeout, match="time limit"):
        exact_divide(P("x^2 - y^2", xy), P("x + y", xy), Budget(seconds=0))


def _random_matrix(rng, ring, n):
    return [[random_poly(rng, ring, max_deg=2, max_terms=3) for _ in range(n)]
            for _ in range(n)]


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(1901)
    R = VarSet(["x", "y"])
    zero = Polynomial.zero(R)
    for n in (1, 2, 3, 4):
        for case in range(12):
            M = _random_matrix(rng, R, n)
            if case % 4 == 1 and n > 1:
                # a zero first pivot: rows are swapped at the first step
                M[0][0] = zero
            elif case % 4 == 2 and n > 2:
                # a vanishing leading 2 x 2 minor: a swap at the second step
                c = random_poly(rng, R, max_deg=1, max_terms=2)
                M[1][0], M[1][1] = c * M[0][0], c * M[0][1]
            elif case % 4 == 3 and n > 1:
                # singular: the last row is a combination of the others
                cs = [random_poly(rng, R, max_deg=1) for _ in range(n - 1)]
                M[-1] = [sum((c * row[j] for c, row in zip(cs, M)), zero)
                         for j in range(n)]
                assert cofactor_determinant(M).is_zero
            assert determinant(M) == cofactor_determinant(M), (n, case)
    # a zero column below and at a pivot
    assert determinant([[zero, parse_poly("x", R)], [zero, parse_poly("y", R)]]).is_zero
    with pytest.raises(ValueError):
        determinant([[zero, zero]])


def test_determinant_of_rows_with_unlike_denominators(xy, P):
    M = [[P("1/2*x + 1", xy), P("y", xy), P("3/2", xy)],
         [P("1/3*x*y", xy), P("x - 2/3", xy), P("y^2", xy)],
         [P("5/6", xy), P("1/6*y - x", xy), P("1/2*x^2", xy)]]
    det = determinant(M)
    assert det == cofactor_determinant(M) and _clean(det)
    assert not det.is_zero
    # a zero first pivot: the rows and their scales are swapped, the sign flips
    M[0][0] = P("0", xy)
    det = determinant(M)
    assert det == cofactor_determinant(M) and _clean(det)


def test_determinant_refuses_entries_over_different_rings(xy, P):
    uv = VarSet(["u", "v"])
    with pytest.raises(AmbientError):
        determinant([[P("x", xy), P("1", xy)], [P("u", uv), P("v", uv)]])


def test_determinant_reads_the_clock_once_per_pivot():
    class Clock:
        reads = 0

        def check_clock(self):
            self.reads += 1

    R = VarSet(["x"])
    # x*I + (1 - I): every leading principal minor is a nonzero polynomial
    M = [[parse_poly("x" if i == j else "1", R) for j in range(4)] for i in range(4)]
    clock = Clock()
    assert determinant(M, clock) == cofactor_determinant(M)
    assert clock.reads == 3
    with pytest.raises(GroebnerTimeout, match="time limit"):
        determinant(M, Budget(seconds=0))


def test_integer_normalize():
    R = VarSet(["x"])
    p = parse_poly("x", R) * Fraction(-3, 4) + Polynomial.const(R, Fraction(1, 2))
    q = integer_normalize(p)
    assert q == parse_poly("3*x", R) - Polynomial.const(R, 2)


def test_integer_normalize_builds_clean_coefficients(xy, P):
    for text, expected in (("-4/3*x^2 + 2/9*y", "6*x^2 - y"),
                           ("6*x*y - 4", "3*x*y - 2"),
                           ("-1/5", "1")):
        q = integer_normalize(P(text, xy))
        assert q == P(expected, xy) and _clean(q), text


def test_ambient_mismatch():
    R = VarSet(["x"])
    S = VarSet(["y"])
    with pytest.raises(AmbientError):
        parse_poly("x", R) + parse_poly("y", S)
