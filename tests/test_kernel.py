"""The reduction kernel against independent references.

``_Kernel.reduce_full`` pseudo-reduces integer vectors against primitive
ones, pops leading terms from a heap of flat heap keys and pre-filters
divisors by support masks; ``normal_form_maxscan`` in ``oracles`` reduces
over ``Fraction`` against monic vectors and rescans for the greatest term
under the nested sort keys.  The kernel's remainder must be the reference
times the kernel's scale, for the same number of reductions.  Reduced bases
are checked for their defining property, against a Fraction Buchberger
reference and, for ideals, against sympy.
"""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from germlift.groebner import (
    Budget,
    _Kernel,
    _embedded_key,
    _reduced_basis,
    _vec_of,
    compute_gb,
)
from germlift.modules import ModuleOrder, Submodule
from germlift.poly import MonomialOrder, Polynomial, VarSet, exp_divides
from germlift.suite import bundled_manifests

from oracles import (
    embedded_order_key,
    module_order_key,
    normal_form_maxscan,
    reduced_basis_reference,
)

try:
    import sympy
except ImportError:
    sympy = None

N_VARS = 3
RANK = 2
TAIL = 2  # trailing components of the embedded order

BASES = {
    "grevlex": MonomialOrder.grevlex(),
    "lex": MonomialOrder.lex(),
    "wgrevlex": MonomialOrder.wgrevlex([3, 1, 2]),
    "block": MonomialOrder.elimination(1),
}


def _cases():
    out = []
    morders = {name: ModuleOrder(base) for name, base in BASES.items()}
    morders["pot"] = ModuleOrder(MonomialOrder.grevlex(), position_over_term=True)
    morders["precedence"] = ModuleOrder(MonomialOrder.wgrevlex([1, 2, 1]),
                                        precedence=(1, 0))
    for name, morder in morders.items():
        out.append((name, partial(module_order_key, morder), morder.heap_key,
                    RANK, (None,)))
    for name in ("grevlex", "lex"):
        morder = ModuleOrder(BASES[name])
        out.append((f"embedded-{name}", embedded_order_key(morder, RANK),
                    _embedded_key(morder, RANK), RANK + TAIL, (None, RANK)))
    return out


CASES = _cases()
CASE_IDS = [c[0] for c in CASES]

coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))


def terms(ncomp, max_exp=3):
    return st.tuples(st.integers(0, ncomp - 1),
                     st.tuples(*[st.integers(0, max_exp)] * N_VARS))


def vectors(ncomp, max_size, max_exp=3, min_size=1):
    return st.dictionaries(terms(ncomp, max_exp), coeffs, min_size=min_size,
                           max_size=max_size)


def _monic_pairs(vecs, raw):
    pairs = []
    for v in vecs:
        lead = max(v, key=lambda t: raw(*t))
        lc = v[lead]
        pairs.append(({t: k / lc for t, k in v.items()}, lead))
    return pairs


def _integer(v):
    """``v`` times the lcm of its denominators, with int coefficients."""
    den = math.lcm(*(k.denominator for k in v.values()))
    return {t: int(k * den) for t, k in v.items()}


def _primitive(v, lead):
    """The integer multiple of ``v`` with coprime coefficients and a
    positive coefficient at ``lead``."""
    v = _integer(v)
    g = math.gcd(*v.values())
    g = g if v[lead] > 0 else -g
    return {t: k // g for t, k in v.items()}


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduce_full_matches_maxscan_reference(case, data):
    _, raw, heap, ncomp, main_ranks = case
    vecs = data.draw(st.lists(vectors(ncomp, 4, max_exp=2), min_size=1, max_size=6))
    # random terms plus multiples of basis vectors, so that reductions happen
    work = data.draw(vectors(ncomp, 4, min_size=0))
    multiples = st.tuples(st.integers(0, len(vecs) - 1),
                          st.tuples(*[st.integers(0, 2)] * N_VARS), coeffs)
    for i, shift, k in data.draw(st.lists(multiples, max_size=4)):
        for (c, e), v in vecs[i].items():
            t = (c, tuple(x + y for x, y in zip(e, shift)))
            work[t] = work.get(t, 0) + k * v
    work = _integer({t: v for t, v in work.items() if v})
    main_rank = data.draw(st.sampled_from(main_ranks))
    skip = data.draw(st.none() | st.integers(0, len(vecs) - 1))
    pairs = _monic_pairs(vecs, raw)
    got_budget = Budget()
    got, scale = _Kernel(heap, False, [(_primitive(v, lead), lead) for v, lead in pairs]
                         ).reduce_full(dict(work), got_budget, main_rank=main_rank, skip=skip)
    ref_budget = Budget()
    ref = normal_form_maxscan([v for v, _ in pairs], [lead for _, lead in pairs],
                              raw, {t: Fraction(k) for t, k in work.items()},
                              ref_budget, main_rank, skip)
    assert type(scale) is int and scale >= 1
    assert all(type(k) is int for k in got.values())
    assert got == {t: scale * k for t, k in ref.items()}
    assert got_budget.reductions == ref_budget.reductions


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_heap_key_reverses_order_key(case, data):
    _, raw, heap, ncomp, _ = case
    a = data.draw(terms(ncomp))
    b = data.draw(terms(ncomp))
    ha, hb = heap(*a), heap(*b)
    assert all(type(x) is int for x in ha)
    assert (raw(*a) > raw(*b)) == (ha < hb)
    assert (raw(*a) == raw(*b)) == (ha == hb) == (a == b)


def _monic(vec, lead):
    return {t: Fraction(k, vec[lead]) for t, k in vec.items()}


def _assert_reduced(pairs, heap):
    leads = [lead for _, lead in pairs]
    assert len(set(leads)) == len(leads)
    for vec, lead in pairs:
        # primitive: coprime integer coefficients, positive lead
        assert all(type(k) is int for k in vec.values())
        assert math.gcd(*vec.values()) == 1
        assert vec[lead] > 0
        vec = _monic(vec, lead)
        assert vec[lead] == 1
        assert lead == min(vec, key=lambda t: heap(*t))
        for t in vec:
            for other in leads:
                if t == lead == other:
                    continue
                assert not (other[0] == t[0] and exp_divides(other[1], t[1])), (t, other)


def _fixture_modules():
    for m in bundled_manifests():
        for table in m.fields.values():
            yield table.as_submodule()


def test_reduced_basis_of_fixture_modules_is_reduced():
    count = 0
    for M in _fixture_modules():
        vecs = [_vec_of(g) for g in M.generators]
        plain = _reduced_basis(M.order.heap_key, [v for v, _ in vecs], Budget(),
                               M.rank == 1)
        _assert_reduced(plain, M.order.heap_key)
        embedded = _embedded_key(M.order, M.rank)
        tracked = [{**v, (M.rank + i, M.ring.zero_exp()): den}
                   for i, (v, den) in enumerate(vecs)]
        _assert_reduced(_reduced_basis(embedded, tracked, Budget(), False),
                        embedded)
        count += 1
    assert count >= 10


@pytest.mark.parametrize("case", CASES[:6], ids=CASE_IDS[:6])
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduced_basis_of_random_modules_is_reduced(case, data):
    _, _, heap, ncomp, _ = case
    vecs = data.draw(st.lists(vectors(ncomp, 3, max_exp=2), min_size=1, max_size=3))
    _assert_reduced(_reduced_basis(heap, [_integer(v) for v in vecs], Budget(), False),
                    heap)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduced_basis_matches_fraction_reference(case, data):
    _, raw, heap, ncomp, _ = case
    vecs = data.draw(st.lists(vectors(ncomp, 3, max_exp=2), min_size=1, max_size=3))
    got = _reduced_basis(heap, [_integer(v) for v in vecs], Budget(), False)
    assert ({frozenset(_monic(vec, lead).items()) for vec, lead in got}
            == reduced_basis_reference(vecs, raw))


def _sympy_basis(polys, ring, order):
    gens = sympy.symbols(ring.names)
    exprs = [sympy.Add(*[sympy.Rational(k.numerator, k.denominator)
                         * sympy.Mul(*[g ** x for g, x in zip(gens, e)])
                         for e, k in p.terms.items()]) for p in polys]
    out = set()
    for g in sympy.groebner(exprs, *gens, order=order).exprs:
        terms = {tuple(int(x) for x in e): Fraction(int(k.p), int(k.q))
                 for e, k in sympy.Poly(g, *gens).terms()}
        lc = Polynomial(ring, terms).leading(BASES[order])[1]
        out.add(frozenset((e, k / lc) for e, k in terms.items()))
    return out


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@pytest.mark.parametrize("order", ["grevlex", "lex"])
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduced_ideal_basis_matches_sympy(order, data):
    ring = VarSet(["x", "y", "z"])
    small = vectors(1, 3, max_exp=2)
    polys = [Polynomial(ring, {e: k for (_, e), k in v.items()})
             for v in data.draw(st.lists(small, min_size=1, max_size=3))]
    expected = _sympy_basis(polys, ring, order)
    I = Submodule.ideal(ring, polys, ModuleOrder(BASES[order]))
    got = {frozenset(g.entries[0].terms.items()) for g in compute_gb(I).elements}
    assert got == expected
