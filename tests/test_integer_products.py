"""Products of several terms by several, powers of several terms and
``combine`` run in integers: their inputs are scaled to integer
coefficients, multiplied in ``int`` and scaled back with one Fraction per
term.  Each is checked against the term-by-term Fraction product of
``oracles.mul_terms`` on coefficients with denominators 2, 3 and 6,
negative leads and sums that cancel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlift.errors import GroebnerTimeout
from germlift.groebner import Budget
from germlift.modules import ModuleElement, combine
from germlift.poly import Polynomial, VarSet

from oracles import clean, mul_terms

COEFFS = (1, -1, 2, -5, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
          Fraction(-1, 3), Fraction(5, 6), Fraction(-7, 6))


def _poly(rng, ring: VarSet, terms: int, max_deg=3) -> Polynomial:
    """``terms`` distinct terms, or as many as there are monomials of degree
    at most ``max_deg`` in each variable, with coefficients from ``COEFFS``;
    the leading one is negative half of the time."""
    out = {}
    while len(out) < min(terms, (max_deg + 1) ** len(ring)):
        out[tuple(rng.randint(0, max_deg) for _ in ring.names)] = rng.choice(COEFFS)
    p = Polynomial(ring, out)
    if p.terms and (p.leading()[1] < 0) != (rng.random() < 0.5):
        p = -p
    return p


def _oracle_power(p: Polynomial, k: int) -> dict:
    out = {p.ring.zero_exp(): Fraction(1)}
    for _ in range(k):
        out = mul_terms(out, p.terms)
    return out


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_products_and_powers_match_the_term_by_term_product(seed, n):
    rng = random.Random(seed)
    ring = VarSet(["x", "y", "z"][:n])
    a = _poly(rng, ring, rng.randint(2, 5))
    b = _poly(rng, ring, rng.randint(2, 5))
    # (a + b)(a - b): the cross terms cancel, and with them whole terms
    for left, right in ((a, b), (b, a), (a, -a), (a + b, a - b)):
        prod = left * right
        assert prod.terms == mul_terms(left.terms, right.terms)
        assert clean(prod)
    assert (a + b) * (a - b) - a * a + b * b == Polynomial.zero(ring)
    for k in range(7):
        power = a ** k
        assert power.terms == _oracle_power(a, k)
        assert clean(power)
    # a sum whose terms all cancel is zero, and so is any product with it
    zero = a - a
    assert (zero * b).is_zero and (zero ** 3).is_zero and zero ** 0 == 1


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), rank=st.integers(1, 3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_combine_matches_the_term_by_term_sum(seed, n, rank):
    rng = random.Random(seed)
    ring = VarSet(["x", "y", "z"][:n])
    coeffs, gens = [], []
    for _ in range(rng.randint(1, 4)):
        g = ModuleElement(ring, [_poly(rng, ring, rng.randint(0, 4)) for _ in range(rank)])
        c = rng.choice([rng.choice(COEFFS), _poly(rng, ring, rng.randint(1, 3), 2)])
        # now and then the same generator again with the opposite
        # coefficient: its terms cancel in the sum
        pairs = [(c, g), (-c, g)] if rng.random() < 0.3 else [(c, g)]
        coeffs += [c for c, _ in pairs]
        gens += [g for _, g in pairs]
    got = combine(ring, rank, coeffs, gens)
    for j, q in enumerate(got.entries):
        want = {}
        for c, g in zip(coeffs, gens):
            c = c.terms if isinstance(c, Polynomial) else {ring.zero_exp(): Fraction(c)}
            for e, v in mul_terms(c, g.entries[j].terms).items():
                want[e] = want.get(e, 0) + v
        assert q.terms == {e: v for e, v in want.items() if v}
        assert clean(q)


def test_combine_of_terms_that_all_cancel_is_zero():
    R = VarSet(["x", "y"])
    g = ModuleElement(R, [Polynomial(R, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3)}),
                          Polynomial(R, {(2, 1): Fraction(5, 6)})])
    c = Polynomial(R, {(0, 0): Fraction(-3, 2), (1, 1): Fraction(1, 3)})
    assert combine(R, 2, [c, -c, Fraction(1, 6), Fraction(-1, 6)], [g, g, g, g]).is_zero


class _Clock:
    reads = 0

    def check_clock(self):
        self.reads += 1


@pytest.mark.parametrize("n", range(9))
def test_power_reads_the_clock_before_each_product(n):
    R = VarSet(["x", "y"])
    # square and multiply: a product for each set bit, a squaring for each
    # bit below the highest
    clock = _Clock()
    p = Polynomial(R, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3)})
    assert p.power(n, clock).terms == _oracle_power(p, n)
    assert clock.reads == bin(n).count("1") + max(n.bit_length() - 1, 0)
    # a power of one term makes no product
    clock = _Clock()
    Polynomial(R, {(1, 2): Fraction(-5, 6)}).power(n, clock)
    assert clock.reads == 0


def test_power_stops_at_the_time_limit():
    R = VarSet(["x", "y"])
    p = Polynomial(R, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    with pytest.raises(GroebnerTimeout, match="time limit"):
        p.power(5, Budget(seconds=0))
