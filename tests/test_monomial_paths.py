"""The shortcuts that move exponents instead of multiplying polynomials:
products and powers with one term, and ``combine``'s one term dict per
component.  ``compose`` has one path, the cached monomial images, for
every kind of image; its test feeds it single-term and zero images (often
only those), whose cached products are shifts and zeros.  Each is checked
against the term-by-term oracles of ``oracles`` (and sympy where it is
installed) on random data with negative, fractional and zero
coefficients."""

import random
from fractions import Fraction
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from germlift.germs import MapGerm, Unfolding, VectorField, wf_apply
from germlift.lifting import restrict_field, restrictable
from germlift.modules import ModuleElement, combine
from germlift.poly import Polynomial, VarSet, compose

from oracles import clean, compose_reference, mul_terms, random_poly

try:
    import sympy
except ImportError:
    sympy = None

COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4))


def _one_term(rng, ring: VarSet, max_deg=4) -> Polynomial:
    e = tuple(rng.randint(0, max_deg) for _ in ring.names)
    return Polynomial.monomial(ring, e, rng.choice(COEFFS))


def _image(rng, ring: VarSet) -> Polynomial:
    """Zero, one term, or (now and then) several terms."""
    kind = rng.random()
    if kind < 0.2:
        return Polynomial.zero(ring)
    if kind < 0.8:
        return _one_term(rng, ring, max_deg=3)
    return random_poly(rng, ring, max_deg=2, max_terms=3, allow_zero=False)


def _sympy_of(p: Polynomial):
    syms = sympy.symbols(p.ring.names)
    return sympy.expand(sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
         for e, c in p.terms.items()), sympy.Integer(0)))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_one_term_products_and_powers_match_the_term_by_term_product(seed, n):
    rng = random.Random(seed)
    ring = VarSet(["x", "y", "z"][:n])
    a = _one_term(rng, ring)
    b = random_poly(rng, ring, max_deg=4, max_terms=5)  # may be zero
    zero = Polynomial.zero(ring)
    for left, right in ((a, b), (b, a), (a, a), (a, zero), (zero, a)):
        prod = left * right
        assert prod.terms == mul_terms(left.terms, right.terms)
        assert clean(prod)
    k = rng.randint(0, 6)
    power = a ** k
    expected = {ring.zero_exp(): Fraction(1)}
    for _ in range(k):
        expected = mul_terms(expected, a.terms)
    assert power.terms == expected
    assert clean(power)
    # several terms: the summed product drops exactly the sums that cancel
    c = random_poly(rng, ring, max_deg=3, max_terms=4)
    d = random_poly(rng, ring, max_deg=3, max_terms=4)
    # (c + d)(c - d): the cross terms c*d cancel
    for left, right in ((c, d), (d, -c), (c + d, c - d)):
        prod = left * right
        assert prod.terms == mul_terms(left.terms, right.terms)
        assert clean(prod)
    assert (zero ** k) == (Polynomial.const(ring, 1) if k == 0 else zero)
    if sympy is not None:
        assert _sympy_of(a * b) == sympy.expand(_sympy_of(a) * _sympy_of(b))
        assert _sympy_of(power) == sympy.expand(_sympy_of(a) ** k)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_compose_with_monomial_and_zero_images_matches_the_reference(seed, n, m):
    rng = random.Random(seed)
    src = VarSet(["s", "t", "u", "v"][:n])
    dst = VarSet(["x", "y", "z"][:m])
    images = [_image(rng, dst) for _ in range(n)]
    p = random_poly(rng, src, max_deg=4, max_terms=6)
    if rng.random() < 0.5:
        # let p skip every variable whose image has several terms, so that
        # compose reads only single-term and zero images
        unread = [i for i, img in enumerate(images) if len(img.terms) > 1]
        p = Polynomial(src, {e: c for e, c in p.terms.items()
                             if not any(e[i] for i in unread)})
    expected = compose_reference(p, images, dst)
    got = compose(p, images, dst, {})
    assert got == expected
    assert clean(got)
    mapping = dict(zip(src.names, images))
    assert p.substitute(mapping, into=dst) == expected
    if sympy is not None:
        subs = {sympy.Symbol(v): _sympy_of(img) for v, img in mapping.items()}
        assert _sympy_of(got) == sympy.expand(_sympy_of(p).xreplace(subs))
    # a germ with monomial components, composed twice through its cache
    comps = [_one_term(rng, dst, max_deg=2) for _ in range(n)]
    comps = [c if c.constant_term() == 0 else c * Polynomial.variable(dst, "x")
             for c in comps]
    f = MapGerm(dst, src, comps)
    field = VectorField(src, [random_poly(rng, src, max_deg=3, max_terms=4)
                              for _ in range(n)])
    want = [compose_reference(q, comps, dst) for q in field.entries]
    assert list(wf_apply(field, f).entries) == want
    assert list(wf_apply(field, f).entries) == want


def _random_unfolding(rng, n, p, r):
    """A random unfolding whose core comes from ``compose_reference``: the
    constructor then checks ``Unfolding.restrict`` against it."""
    core_src = VarSet(["s", "t", "u"][:n])
    core_tgt = VarSet(["X", "Y", "Z"][:p])
    src_names, tgt_names = list(core_src.names), list(core_tgt.names)
    src_params, tgt_params = ["a", "b"][:r], ["A", "B"][:r]
    for sp, tp in zip(src_params, tgt_params):
        src_names.insert(rng.randint(0, len(src_names)), sp)
        tgt_names.insert(rng.randint(0, len(tgt_names)), tp)
    src, tgt = VarSet(src_names), VarSet(tgt_names)
    comps = []
    for name in tgt.names:
        if name in tgt_params:
            comps.append(Polynomial.variable(src, src_params[tgt_params.index(name)]))
        else:
            c = random_poly(rng, src, max_deg=3, max_terms=4)
            comps.append(c - c.constant_term())
    total = MapGerm(src, tgt, comps)
    kept = iter(core_src.names)
    images = [Polynomial.zero(core_src) if v in src_params
              else Polynomial.variable(core_src, next(kept)) for v in src.names]
    core = MapGerm(core_src, core_tgt, [
        compose_reference(c, images, core_src)
        for c, name in zip(comps, tgt.names) if name not in tgt_params])
    return Unfolding(total, src_params, tgt_params, core)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 3),
       r=st.integers(1, 2))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_restriction_matches_the_reference_substitution(seed, n, p, r):
    rng = random.Random(seed)
    U = _random_unfolding(rng, n, p, r)
    assert U.restrict() == U.core
    tgt, core_tgt = U.total.target, U.core.target
    kept = iter(core_tgt.names)
    to_core = [Polynomial.zero(core_tgt) if v in U.target_params
               else Polynomial.variable(core_tgt, next(kept)) for v in tgt.names]
    to_zero = [Polynomial.zero(tgt) if v in U.target_params
               else Polynomial.variable(tgt, v) for v in tgt.names]
    for _ in range(3):
        eta = VectorField(tgt, [random_poly(rng, tgt, max_deg=3, max_terms=5)
                                for _ in tgt.names])
        got = restrict_field(eta, U)
        assert list(got.entries) == [compose_reference(eta.entries[i], to_core, core_tgt)
                                     for i in U.non_param_target_indices()]
        assert all(clean(q) for q in got.entries)
        assert restrictable(eta, U) == all(
            compose_reference(eta.entries[j], to_zero, tgt).is_zero
            for j in U.target_param_indices())


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), rank=st.integers(1, 3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_combine_matches_the_sum_of_scales(seed, n, rank):
    rng = random.Random(seed)
    ring = VarSet(["x", "y", "z"][:n])
    gens, coeffs = [], []
    for _ in range(rng.randint(0, 5)):
        g = ModuleElement(ring, [random_poly(rng, ring, max_deg=3, max_terms=4)
                                 for _ in range(rank)])
        kind = rng.randrange(5)
        if kind == 0:
            c = rng.choice((0, 3, -2))
        elif kind == 1:
            c = rng.choice(COEFFS)
        elif kind == 2:
            c = _one_term(rng, ring, max_deg=2)
        else:
            c = random_poly(rng, ring, max_deg=2, max_terms=3)  # may be zero
        gens.append(g)
        coeffs.append(c)
        if rng.random() < 0.3:
            # the same generator again with the opposite coefficient: its
            # terms cancel in the sum
            gens.append(g)
            coeffs.append(-c)
    got = combine(ring, rank, coeffs, gens)
    expected = reduce(lambda acc, cg: acc + cg[1].scale(cg[0]), zip(coeffs, gens),
                      ModuleElement.zero(ring, rank))
    assert got == expected
    assert got.rank == rank
    assert all(clean(q) for q in got.entries)
