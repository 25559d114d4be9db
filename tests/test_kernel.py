"""The reduction kernel against independent references.

``_Kernel.reduce_full`` pseudo-reduces integer vectors against primitive
ones, pops leading terms from a heap of packed terms (one int each, ordered
like the heap key) and pre-filters divisors by support masks;
``normal_form_maxscan`` in ``oracles`` reduces over ``Fraction`` against
monic vectors and rescans for the greatest term under the nested sort keys.
Vectors enter the kernel through ``_vec_of`` and leave it unpacked.  The
kernel's remainder must be the reference times the kernel's scale, for the
same number of reductions; against a basis shaped like a tracked basis's
reducer, every lead in a main component, the reference reduces no tail
term, and the kernel, which has no such mode, must agree.  S-vectors must
equal ``oracles.spair_reference``, and a product that would outgrow a
field must raise ``_Overflow`` before adding a term.  The packing must
agree with the heap key it is read from, probing it once per class of
components.  The guard-bit tests on packed leads (divisibility, lcm, the
product criterion) and the pair update built on them must agree with the
same on exponent tuples (``oracles.pair_update_reference``), on one
component with the product criterion.  Reduced bases are checked for their
defining property, against a Fraction Buchberger reference (also with
exponents above 2**64, and from fields just wide enough for the inputs,
which a run may outgrow) and, for ideals, against sympy.
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
    _Overflow,
    _Packer,
    _add_multiple,
    _embedded_key,
    _module_key,
    _packer,
    _reduced_basis,
    _split,
    _vec_of,
    _widening,
    compute_gb,
)
from germlift.modules import ModuleElement, Submodule
from germlift.poly import MonomialOrder, Polynomial, VarSet, exp_divides
from germlift.suite import bundled_manifests

from oracles import (
    embedded_order_key,
    exp_add,
    exp_lcm,
    module_order_key,
    normal_form_maxscan,
    order_key,
    pair_update_reference,
    reduced_basis_reference,
    spair_reference,
)

try:
    import sympy
except ImportError:
    sympy = None

N_VARS = 3
RING = VarSet(["x", "y", "z"])
RANK = 2
TAIL = 2  # trailing components of the embedded order
BITS = 16  # exponent fields that hold every random case below

BASES = {
    "grevlex": MonomialOrder.grevlex(),
    "lex": MonomialOrder.lex(),
    "wgrevlex": MonomialOrder.wgrevlex([3, 1, 2]),
    "block": MonomialOrder.elimination([0]),
}


def _cases():
    out = []
    for name, order in BASES.items():
        out.append((name, partial(module_order_key, order), _module_key(order),
                    RANK, (None,)))
    # Keys of no module order: the component before the monomial ("pot"),
    # and the components ranked in reverse ("precedence").  The packer and
    # the kernel take any key that is affine in the exponent on each class
    # of components, and these keep that contract under test.
    pot, weighted = MonomialOrder.grevlex(), MonomialOrder.wgrevlex([1, 2, 1])
    out.append(("pot", lambda c, e: (-c, order_key(pot, e)),
                lambda c, e: (c,) + pot.heap_key(e), RANK, (None,)))
    out.append(("precedence", lambda c, e: (order_key(weighted, e), c),
                lambda c, e: weighted.heap_key(e) + (RANK - 1 - c,), RANK, (None,)))
    for name in ("grevlex", "lex"):
        order = BASES[name]
        out.append((f"embedded-{name}", embedded_order_key(order, RANK),
                    _embedded_key(order, RANK), RANK + TAIL, (None, RANK)))
    return out


CASES = _cases()
CASE_IDS = [c[0] for c in CASES]
# the cases of one order on every component, with no tracking tails
MODULE_CASES = [c for c in CASES if c[4] == (None,)]
assert [c[0] for c in MODULE_CASES] == ["grevlex", "lex", "wgrevlex", "block", "pot",
                                        "precedence"]
# the same keys on one component, where the kernel applies the product criterion
IDEAL_CASES = [(f"{name}-ideal", raw, heap, 1, (None,))
               for name, raw, heap, _, _ in MODULE_CASES]

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


def _packed(packer, v, ncomp):
    """The integer vector ``v`` ({(comp, exp): int}) as the kernel takes
    it, through ``_vec_of``."""
    polys = [{} for _ in range(ncomp)]
    for (c, e), k in v.items():
        polys[c][e] = Fraction(k)
    vec, den = _vec_of(ModuleElement(RING, [Polynomial(RING, p) for p in polys]), packer)
    assert den == 1
    return vec


def _unpacked(packer, vec):
    return {packer.unpack(t): k for t, k in vec.items()}


def _reduced(key, ncomp, vecs, budget, bits=BITS):
    """``_reduced_basis`` of the integer vectors ``vecs`` ({(comp, exp): int})
    as unpacked (vector, lead) pairs, from fields ``bits`` wide, widened as
    often as the run needs."""
    def attempt(packer):
        pairs = _reduced_basis(packer, [_packed(packer, v, ncomp) for v in vecs], budget)
        return [(_unpacked(packer, vec), packer.unpack(lead)) for vec, lead in pairs]

    return _widening(budget, _Packer(key, ncomp, N_VARS, bits), attempt)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduce_full_matches_maxscan_reference(case, data):
    _, raw, heap, ncomp, main_ranks = case
    main_rank = data.draw(st.sampled_from(main_ranks))
    if main_rank is None:
        vecs = data.draw(st.lists(vectors(ncomp, 4, max_exp=2), min_size=1, max_size=6))
    else:
        # shaped like a tracked basis's reducer: every vector has a term, so
        # its lead, in a main component, and terms in the tails below it
        tails = st.builds(lambda v: {(c + main_rank, e): k for (c, e), k in v.items()},
                          vectors(ncomp - main_rank, 2, max_exp=2, min_size=0))
        vecs = data.draw(st.lists(st.builds(lambda m, t: {**m, **t},
                                            vectors(main_rank, 3, max_exp=2), tails),
                                  min_size=1, max_size=6))
    # random terms plus multiples of basis vectors, so that reductions happen
    work = data.draw(vectors(ncomp, 4, min_size=0))
    multiples = st.tuples(st.integers(0, len(vecs) - 1),
                          st.tuples(*[st.integers(0, 2)] * N_VARS), coeffs)
    for i, shift, k in data.draw(st.lists(multiples, max_size=4)):
        for (c, e), v in vecs[i].items():
            t = (c, tuple(x + y for x, y in zip(e, shift)))
            work[t] = work.get(t, 0) + k * v
    work = _integer({t: v for t, v in work.items() if v})
    skip = data.draw(st.none() | st.integers(0, len(vecs) - 1))
    pairs = _monic_pairs(vecs, raw)
    assert main_rank is None or all(c < main_rank for _, (c, _) in pairs)
    packer = _Packer(heap, ncomp, N_VARS, BITS)
    # the kernel has no targets: against a reducer's basis no term of a
    # tail finds a divisor, so it matches the reference that skips the tails
    kernel = _Kernel(packer, [(_packed(packer, _primitive(v, lead), ncomp),
                               packer.pack(*lead)) for v, lead in pairs])
    got_budget = Budget()
    got, scale = kernel.reduce_full(_packed(packer, work, ncomp), got_budget, skip=skip)
    got = _unpacked(packer, got)
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


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("bits", [1, 4, 70])
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_packing_agrees_with_heap_key(case, bits, data):
    _, _, heap, ncomp, _ = case
    packer = _Packer(heap, ncomp, N_VARS, bits)
    cap = packer.cap
    exps = st.tuples(*[st.integers(0, cap)] * N_VARS)
    a = (data.draw(st.integers(0, ncomp - 1)), data.draw(exps))
    b = (data.draw(st.integers(0, ncomp - 1)), data.draw(exps))
    pa, pb = packer.pack(*a), packer.pack(*b)
    assert type(pa) is int and pa >= 0
    # comparing packed ints compares heap keys
    assert (pa < pb) == (heap(*a) < heap(*b))
    assert (pa == pb) == (a == b)
    # multiplying by x^s adds the shift of s of the term's class
    c, e = a
    s = tuple(data.draw(st.integers(0, cap - x)) for x in e)
    fields = packer.pack(c, s) & packer.rawmask
    assert packer.pack(c, exp_add(e, s)) == pa + packer.shift(packer.cls[c], fields)
    # unpacking inverts packing
    assert packer.unpack(pa) == a


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("bits", [1, 4, 70])
@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_packed_pair_tests_agree_with_tuples(case, bits, data):
    _, _, heap, ncomp, _ = case
    packer = _Packer(heap, ncomp, N_VARS, bits)
    cap = packer.cap
    field = st.sampled_from([0, cap]) | st.integers(0, cap)
    a = data.draw(st.tuples(*[field] * N_VARS))
    b = data.draw(st.tuples(*[field] * N_VARS))
    # the exponent fields of a packed term of any component
    ra, rb = (packer.pack(data.draw(st.integers(0, ncomp - 1)), e) & packer.rawmask
              for e in (a, b))
    assert packer.divides(ra, rb) == exp_divides(a, b)
    assert packer.divides(rb, ra) == exp_divides(b, a)
    lcm = packer.lcm(ra, rb)
    assert packer.unpack(lcm)[1] == exp_lcm(a, b)
    assert lcm == packer.lcm(rb, ra)
    # the product criterion: the lcm is the product when no variable is shared
    assert (lcm == ra + rb) == (exp_lcm(a, b) == exp_add(a, b))


@pytest.mark.parametrize("case", CASES + IDEAL_CASES,
                         ids=CASE_IDS + [c[0] for c in IDEAL_CASES])
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_pair_update_matches_tuple_reference(case, data):
    _, raw, heap, ncomp, _ = case
    vecs = data.draw(st.lists(vectors(ncomp, 3), min_size=1, max_size=8))
    packer = _Packer(heap, ncomp, N_VARS, BITS)
    kernel = _Kernel(packer)
    leads, pairs, pushed = [], {}, []
    for v in vecs:
        kernel.add(_packed(packer, _integer(v), ncomp))
        leads.append(max(v, key=lambda t: raw(*t)))
        new = pair_update_reference(leads, pairs, ncomp == 1)
        pushed += [(raw(leads[j][0], L), i, j) for (i, j), L in new.items()]
        assert {ij: packer.unpack(P) for ij, P in kernel.pairs.items()} == {
            (i, j): (leads[j][0], L) for (i, j), L in pairs.items()}
        # least lcm first, then by index, stale pairs included
        assert [(i, j) for _, i, j in sorted(kernel.heap)] == [
            (i, j) for _, i, j in sorted(pushed)]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_spair_matches_tuple_reference(case, data):
    # the embedded vectors have terms in both shift classes (merged under
    # grevlex), so each half of an S-vector moves a tail by its own shift
    _, raw, heap, ncomp, _ = case
    vecs = data.draw(st.lists(vectors(ncomp, 4), min_size=2, max_size=5))
    leads = [max(v, key=lambda t: raw(*t)) for v in vecs]
    ints = [_primitive(v, lead) for v, lead in zip(vecs, leads)]
    packer = _Packer(heap, ncomp, N_VARS, BITS)
    kernel = _Kernel(packer, [(_packed(packer, v, ncomp), packer.pack(*lead))
                              for v, lead in zip(ints, leads)])
    for j in range(len(vecs)):
        for i in range(j):
            (c, ei), (cj, ej) = leads[i], leads[j]
            if c == cj:
                got = kernel.spair(i, j, packer.pack(c, exp_lcm(ei, ej)))
                assert _unpacked(packer, got) == spair_reference(ints, leads, i, j)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_product_outgrowing_a_field_raises_before_adding(case):
    _, _, heap, ncomp, _ = case
    packer = _Packer(heap, ncomp, N_VARS, 2)  # exponents up to 3
    x = packer.shift(packer.cls[0], packer.pack(0, (1, 0, 0)))  # what x adds in class 0
    out = {packer.pack(0, (1, 0, 0)): 5}
    # x times the first term fits, x times the second (of the last
    # component, a tail in the embedded cases) does not
    vec = {packer.pack(0, (0, 0, 0)): 1, packer.pack(ncomp - 1, (3, 1, 0)): 2}
    with pytest.raises(_Overflow):
        _add_multiple(out, -5, _split(vec, packer), x, packer.cls[0], packer)
    assert _unpacked(packer, out) == {(0, (1, 0, 0)): 5}
    vec = {packer.pack(0, (0, 0, 0)): 1, packer.pack(ncomp - 1, (2, 1, 0)): 2}
    _add_multiple(out, -5, _split(vec, packer), x, packer.cls[0], packer)
    assert _unpacked(packer, out) == {(ncomp - 1, (3, 1, 0)): -10}


class _CountingKey:
    def __init__(self, key):
        self.key = key
        self.calls = 0
        if hasattr(key, "classes"):
            self.classes = key.classes

    def __call__(self, c, e):
        self.calls += 1
        return self.key(c, e)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_packer_probes_each_class_once(case):
    _, _, heap, ncomp, _ = case
    key = _CountingKey(heap)
    packer = _Packer(key, ncomp, N_VARS, 4)
    classes = len(getattr(heap, "classes", (0,)))
    assert key.calls <= ncomp + classes * N_VARS
    calls = key.calls
    wide = packer.widened(70)
    assert key.calls == calls
    assert wide.bits == 70
    for c in range(ncomp):
        e = (wide.cap, 0, 3)
        assert wide.unpack(wide.pack(c, e)) == (c, e)


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
        packer = _packer(_module_key(M.order), M.rank, M.ring, M.generators)
        plain = _reduced_basis(packer, [_vec_of(g, packer)[0] for g in M.generators],
                               Budget())
        _assert_reduced([(_unpacked(packer, v), packer.unpack(lead)) for v, lead in plain],
                        _module_key(M.order))
        embedded = _embedded_key(M.order, M.rank)
        packer = _packer(embedded, M.rank + len(M.generators), M.ring, M.generators)
        tracked = []
        for i, g in enumerate(M.generators):
            v, den = _vec_of(g, packer)
            tracked.append({**v, packer.pack(M.rank + i, M.ring.zero_exp()): den})
        pairs = _reduced_basis(packer, tracked, Budget())
        _assert_reduced([(_unpacked(packer, v), packer.unpack(lead)) for v, lead in pairs],
                        embedded)
        count += 1
    assert count >= 10


@pytest.mark.parametrize("case", MODULE_CASES, ids=[c[0] for c in MODULE_CASES])
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduced_basis_of_random_modules_is_reduced(case, data):
    _, _, heap, ncomp, _ = case
    vecs = data.draw(st.lists(vectors(ncomp, 3, max_exp=2), min_size=1, max_size=3))
    _assert_reduced(_reduced(heap, ncomp, [_integer(v) for v in vecs], Budget()), heap)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_reduced_basis_matches_fraction_reference(case, data):
    _, raw, heap, ncomp, _ = case
    vecs = data.draw(st.lists(vectors(ncomp, 3, max_exp=2), min_size=1, max_size=3))
    budget = Budget()
    got = _reduced(heap, ncomp, [_integer(v) for v in vecs], budget)
    assert ({frozenset(_monic(vec, lead).items()) for vec, lead in got}
            == reduced_basis_reference(vecs, raw))
    # from fields just wide enough for the inputs the run may overflow and
    # start again on wider ones: the same basis, each step counted once
    narrow = Budget(max_reductions=budget.reductions)
    bits = max(x for v in vecs for _, e in v for x in e).bit_length() or 1
    assert _reduced(heap, ncomp, [_integer(v) for v in vecs], narrow, bits=bits) == got
    assert narrow.stats() == budget.stats()


@pytest.mark.parametrize("base", ["grevlex", "lex"])
def test_reduced_basis_with_exponents_above_2_64(base):
    # the basis reaches exponents above 2**65; fields too narrow for them
    # would wrap into their neighbours and give a wrong basis
    big = 2**64 + 5
    vecs = [{(0, (big, 1, 0)): Fraction(1), (1, (0, 0, big)): Fraction(-2)},
            {(0, (1, big, 0)): Fraction(3), (1, (big + 1, 0, 0)): Fraction(1)},
            {(0, (0, 2, 0)): Fraction(1), (1, (0, 0, 1)): Fraction(-1)}]
    order = BASES[base]
    expected = reduced_basis_reference(vecs, partial(module_order_key, order))
    got = _reduced(_module_key(order), RANK, [_integer(v) for v in vecs], Budget(), bits=1)
    assert {frozenset(_monic(vec, lead).items()) for vec, lead in got} == expected
    M = Submodule(RING, RANK, [ModuleElement(RING, [
        Polynomial(RING, {e: k for (c, e), k in v.items() if c == i}) for i in range(RANK)])
        for v in vecs], order)
    assert ({frozenset(((c, e), k) for c, p in enumerate(g.entries) for e, k in p.terms.items())
             for g in compute_gb(M).elements} == expected)
    assert max(x for vec, _ in got for _, e in vec for x in e) > 2**65


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
    I = Submodule.ideal(ring, polys, BASES[order])
    got = {frozenset(g.entries[0].terms.items()) for g in compute_gb(I).elements}
    assert got == expected
