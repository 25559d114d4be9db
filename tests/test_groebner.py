import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlift import groebner
from germlift.errors import AmbientError, GroebnerTimeout, RankError, StructureError
from germlift.exprio import parse_poly
from germlift.groebner import (
    Budget,
    _Packer,
    _embedded_key,
    _packer,
    _reduced_basis,
    _split,
    _vec_of,
    compute_gb,
    eliminate,
    express,
    module_equal,
    module_intersect,
    prune_module,
    syzygy_module,
)
from germlift.modules import GREVLEX, ModuleElement, Submodule, combine
from germlift.poly import MonomialOrder, Polynomial, VarSet, integer_normalize

from oracles import (
    intersection_bounded,
    membership_bounded,
    prune_reference,
    random_element,
    random_poly,
)

try:
    import sympy
except ImportError:
    sympy = None


def _ideal(ring, *texts):
    return Submodule.ideal(ring, [parse_poly(t, ring) for t in texts])


def test_gb_already_basis(xy):
    I = _ideal(xy, "x", "y")
    got = {g.entries[0] for g in compute_gb(I).elements}
    assert got == {parse_poly("x", xy), parse_poly("y", xy)}


def test_gb_contains_y_squared(xy):
    # Buchberger by hand: x^3 = x*(x^2 - y) + x*y, then y^2 from S(x^2-y, x*y)
    I = _ideal(xy, "x^2 - y", "x^3")
    got = {str(g.entries[0]) for g in compute_gb(I).elements}
    assert got == {"y^2", "x*y", "x^2 - y"}
    m = express(ModuleElement(xy, [parse_poly("y^2", xy)]), I)
    assert m.is_member


def test_gb_monomial_module_unchanged():
    R = VarSet(["L"])
    e1 = ModuleElement.unit(R, 2, 0)
    Le2 = ModuleElement.unit(R, 2, 1).scale(parse_poly("L", R))
    M = Submodule(R, 2, [e1, Le2])
    assert set(compute_gb(M).elements) == {e1, Le2}


def test_normal_form_member_is_zero(xy):
    g1 = ModuleElement(xy, [parse_poly("x", xy), Polynomial.zero(xy)])
    g2 = ModuleElement(xy, [Polynomial.zero(xy), parse_poly("y", xy)])
    M = Submodule(xy, 2, [g1, g2])
    assert express(g1.scale(parse_poly("x", xy)), M).remainder.is_zero


def test_normal_form_unit_vs_maximal_ideal(xy):
    I = _ideal(xy, "x", "y")
    one = ModuleElement(xy, [Polynomial.const(xy, 1)])
    assert express(one, I).remainder == one


def test_normal_form_nonmember_columns_of_jacobian():
    # third unit vector against the column module of the rank-3 jacobian of
    # (x, y^3, y^5 + x*y); a degree-bounded linear solve confirms the verdict
    R = VarSet(["x", "y"])
    cols = [
        ModuleElement(R, [parse_poly(t, R) for t in ("1", "0", "y")]),
        ModuleElement(R, [parse_poly(t, R) for t in ("0", "3*y^2", "5*y^4 + x")]),
    ]
    M = Submodule(R, 3, cols)
    v = ModuleElement.unit(R, 3, 2)
    assert not express(v, M).remainder.is_zero
    assert membership_bounded(v, cols, 6) is None


def test_express_simple(xy):
    g1 = ModuleElement(xy, [parse_poly("x", xy), Polynomial.zero(xy)])
    g2 = ModuleElement(xy, [Polynomial.zero(xy), parse_poly("y", xy)])
    M = Submodule(xy, 2, [g1, g2])
    v = g1 + g2.scale(parse_poly("x", xy))
    m = express(v, M)
    assert m.coefficients == (Polynomial.const(xy, 1), parse_poly("x", xy))


def test_express_not_member_monomial_ideal(xy):
    I = _ideal(xy, "x^2", "y^2")
    m = express(ModuleElement(xy, [parse_poly("x*y", xy)]), I)
    assert not m.is_member
    assert str(m.remainder.entries[0]) == "x*y"


def test_intersect_principal(xy):
    I = module_intersect(_ideal(xy, "x"), _ideal(xy, "y"))
    assert [str(g.entries[0]) for g in I.generators] == ["x*y"]
    assert module_intersect(_ideal(xy, "x"), Submodule(xy, 1, [])).generators == ()


def test_intersect_rank2_oracle(xy):
    z = Polynomial.zero(xy)
    one = Polynomial.const(xy, 1)
    M = Submodule(xy, 2, [ModuleElement(xy, [parse_poly("x", xy), z]),
                          ModuleElement(xy, [z, parse_poly("y", xy)])])
    N = Submodule(xy, 2, [ModuleElement(xy, [one, one])])
    K = module_intersect(M, N)
    assert [str(g) for g in K.generators] == ["(x*y, x*y)"]
    # brute force agreement up to degree 3
    for elem in intersection_bounded(list(M.generators), list(N.generators), 3):
        assert express(elem, K).is_member


def test_syzygy_koszul(xy):
    S = syzygy_module([ModuleElement(xy, [parse_poly("x", xy)]),
                       ModuleElement(xy, [parse_poly("y", xy)])])
    expected = Submodule(xy, 2, [ModuleElement(xy, [parse_poly("y", xy),
                                                    parse_poly("-x", xy)])])
    assert module_equal(S, expected)


def test_syzygy_rotation():
    R = VarSet(["X", "Y"])
    h = parse_poly("X^2 + Y^2", R)
    S = syzygy_module([ModuleElement(R, [h.diff("X")]),
                       ModuleElement(R, [h.diff("Y")])])
    expected = Submodule(R, 2, [ModuleElement(R, [parse_poly("Y", R),
                                                  parse_poly("-X", R)])])
    assert module_equal(S, expected)


def test_eliminate_cusp():
    R = VarSet(["x", "X", "Y"])
    I = _ideal(R, "X - x^2", "Y - x^3")
    E = eliminate(I, ["x"])
    assert [str(integer_normalize(g)) for g in E.ideal_generators()] == ["X^3 - Y^2"]


def test_eliminate_t_trick(xy):
    R = VarSet(["t", "x", "y"])
    I = _ideal(R, "t*x", "y - t*y")
    E = eliminate(I, ["t"])
    assert [str(g) for g in E.ideal_generators()] == ["x*y"]


# s and t sit at places 3 and 1 of (a, t, b, s) and are named out of ring order
SCATTERED = ("a - s^2 - t", "b - s*t", "t^2 - s^3")


def test_eliminate_a_block_that_is_neither_first_nor_in_ring_order():
    got, want = Budget(), Budget()
    E = eliminate(_ideal(VarSet(["a", "t", "b", "s"]), *SCATTERED), ["s", "t"], got)
    F = eliminate(_ideal(VarSet(["s", "t", "a", "b"]), *SCATTERED), ["s", "t"], want)
    assert E.ring == F.ring == VarSet(["a", "b"])
    assert E.generators == F.generators
    assert got.stats() == want.stats()
    # (a, b) = (u^4 + u^3, u^5) at s = u^2, t = u^3
    assert [str(g) for g in E.ideal_generators()] == ["a^5 - 5*a^2*b^2 - 5*a*b^3 - b^4 - b^3"]


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
def test_eliminate_a_scattered_block_matches_sympy_lex_elimination():
    ring = VarSet(["a", "t", "b", "s"])
    E = eliminate(_ideal(ring, *SCATTERED), ["s", "t"])
    a, t, b, s = sympy.symbols("a t b s")
    exprs = [sympy.sympify(x.replace("^", "**"), locals={"a": a, "t": t, "b": b, "s": s})
             for x in SCATTERED]
    polys = []
    for g in sympy.groebner(exprs, s, t, a, b, order="lex").exprs:
        if not g.has(s) and not g.has(t):
            polys.append(Polynomial(E.ring, {
                tuple(int(x) for x in e): Fraction(int(k.p), int(k.q))
                for e, k in sympy.Poly(g, a, b).terms()}))
    assert polys
    assert module_equal(E, Submodule.ideal(E.ring, polys))


@pytest.mark.parametrize("weights", [[3], [3, 1, 2]], ids=["short", "long"])
def test_order_weights_must_match_the_ring(xy, weights):
    # zip used to truncate the longer side silently
    order = MonomialOrder.wgrevlex(weights)
    gens = [ModuleElement(xy, [parse_poly("x^2 - y", xy)]),
            ModuleElement(xy, [parse_poly("x*y", xy)])]
    with pytest.raises(AmbientError, match="order weights"):
        Submodule(xy, 1, gens, order)
    with pytest.raises(AmbientError, match="order weights"):
        syzygy_module(gens, order=order)


def test_reduced_gb_unique_under_shuffle():
    rng = random.Random(17)
    R = VarSet(["x", "y", "z"])
    for _ in range(30):
        gens = [random_element(rng, R, 2, max_deg=2, max_terms=3)
                for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        M1 = Submodule(R, 2, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        M2 = Submodule(R, 2, shuffled)
        assert compute_gb(M1).elements == compute_gb(M2).elements


def test_budget_timeout_carries_stats(xy):
    I = _ideal(xy, "x^2 - y", "x^3", "y^3 - x")
    with pytest.raises(GroebnerTimeout) as ei:
        compute_gb(Submodule(xy, 1, I.generators), Budget(max_reductions=1))
    assert ei.value.stats["reductions"] > 1


def test_express_charges_basis_build_to_its_budget(xy):
    M = Submodule(xy, 1, _ideal(xy, "x^2 - y", "x^3", "y^3 - x").generators)
    with pytest.raises(GroebnerTimeout):
        express(ModuleElement.zero(xy, 1), M, Budget(max_reductions=1))


def test_budget_zero_seconds(xy):
    I = _ideal(xy, "x^2 - y", "x^3")
    with pytest.raises(GroebnerTimeout):
        compute_gb(I, Budget(seconds=0))


def test_budget_clock_starts_when_the_budget_is_made(xy):
    # time spent before the first clock read counts toward the limit
    budget = Budget(seconds=0.05)
    time.sleep(0.06)
    with pytest.raises(GroebnerTimeout, match="time limit"):
        compute_gb(_ideal(xy, "x^2 - y", "x^3"), budget)


def test_rank_mismatch(xy):
    I = _ideal(xy, "x")
    v = ModuleElement(xy, [parse_poly("x", xy), parse_poly("y", xy)])
    with pytest.raises(RankError):
        express(v, I)


def test_prune(xy):
    P1 = prune_module(_ideal(xy, "x", "x^2"))
    assert [str(g.entries[0]) for g in P1.generators] == ["x"]
    g1 = ModuleElement(xy, [parse_poly("x", xy), Polynomial.zero(xy)])
    g2 = ModuleElement(xy, [Polynomial.zero(xy), parse_poly("y", xy)])
    g3 = g1 + g2.scale(parse_poly("y", xy))
    P2 = prune_module(Submodule(xy, 2, [g1, g2, g3]))
    assert len(P2.generators) == 2
    assert module_equal(P2, Submodule(xy, 2, [g1, g2]))


def test_prune_with_nothing_dropped_builds_no_basis_of_its_output(xy):
    # a kept generator lies in the pruned module by construction; only a
    # dropped one needs the membership check, which would build out._gb
    M = _ideal(xy, "x^2 + y", "y^2 - x")
    out = prune_module(M)
    assert set(out.generators) == set(M.generators)
    assert out._gb is None


def test_prune_tests_against_the_generators_kept_above(xy):
    # sorted: x < y^2 < x^2 + y.  x^2 + y stays, as y is not in <x, y^2>;
    # y^2 goes only because x^2 + y, kept above it, is in the test module.
    M = _ideal(xy, "x^2 + y", "y^2", "x")
    kept = prune_module(M).generators
    assert [str(g.entries[0]) for g in kept] == ["x", "x^2 + y"]
    assert list(kept) == prune_reference(M, Budget())


def test_prune_charges_its_kernel_run_to_the_budget(xy, monkeypatch):
    # with the final membership check stubbed out, only prune's own
    # incremental run does kernel work, so it alone can exhaust the budget
    monkeypatch.setattr(groebner, "express",
                        lambda v, M, budget=None: groebner.Membership((), None))
    M = _ideal(xy, "x^2 - y", "x^3", "y^3 - x")
    with pytest.raises(GroebnerTimeout) as ei:
        prune_module(M, Budget(max_reductions=1))
    assert ei.value.stats["reductions"] == 2


def test_divisions_reuse_the_reducer_of_the_basis(xy, monkeypatch):
    # the tracked basis builds its reducer once; no later division builds one
    M = _ideal(xy, "x^2 - y", "x*y")
    compute_gb(M)
    built = []

    class Counted(groebner._Kernel):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(groebner, "_Kernel", Counted)
    for text in ("x^3", "y^2", "x + 1"):
        v = ModuleElement(xy, [parse_poly(text, xy)])
        express(v, M)
        groebner._divide(v, M)
    assert built == []


def test_submodule_operations(xy):
    x = parse_poly("x", xy)
    y = parse_poly("y", xy)
    M = Submodule.ideal(xy, [x, x * y, y])
    v = ModuleElement(xy, [x * y])
    assert express(v, M).is_member
    assert express(ModuleElement(xy, [Polynomial.const(xy, 1)]), M).remainder is not None
    assert module_equal(M, Submodule.ideal(xy, [y, x]))
    assert len(prune_module(M).generators) == 2
    K = module_intersect(Submodule.ideal(xy, [x]), Submodule.ideal(xy, [y]))
    assert [str(g.entries[0]) for g in K.generators] == ["x*y"]


def _nonzero_elements(rng, ring, rank, count):
    out = []
    while len(out) < count:
        g = random_element(rng, ring, rank, max_deg=2, max_terms=3, coeff_bound=4)
        if not g.is_zero:
            out.append(g)
    return out


@given(seed=st.integers(0, 2**32 - 1), perturb=st.sampled_from(["none", "tail", "main"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_integer_re_expansion_agrees_with_combine(seed, perturb):
    # _recombines checks sum(c_i * gen_i) == v on the embedded integer
    # vector (v, c); modules.combine multiplies it out over Fraction.  They
    # must agree whether the identity holds or, after one coefficient or
    # one entry of v gains a term, fails.
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    rank = rng.randint(1, 3)
    ring = VarSet(["x", "y", "z"][:nvars])
    gens = [random_element(rng, ring, rank, max_deg=2, max_terms=3)
            for _ in range(rng.randint(1, 4))]
    coeffs = [random_poly(rng, ring, max_deg=2, max_terms=3) for _ in gens]
    v = combine(ring, rank, coeffs, gens)
    term = Polynomial(ring, {tuple(rng.randint(0, 2) for _ in range(nvars)):
                             Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))})
    i = rng.randrange(len(gens))
    if perturb == "tail":
        coeffs[i] = coeffs[i] + term
    elif perturb == "main":
        entries = list(v.entries)
        entries[i % rank] = entries[i % rank] + term
        v = ModuleElement(ring, entries)
    holds = combine(ring, rank, coeffs, gens) == v
    assert holds == (perturb == "none" or (perturb == "tail" and gens[i].is_zero))
    # every exponent, and every product's, is at most 4
    packer = _Packer(_embedded_key(ring.default_order(), rank),
                     rank + len(gens), nvars, 3)
    mains, dens = zip(*(_vec_of(g, packer) for g in gens))
    vec = _vec_of(ModuleElement(ring, v.entries + tuple(coeffs)), packer)[0]
    split = [_split(m, packer) for m in mains]
    assert groebner._recombines(vec, rank, split, dens, packer) == holds


def test_re_expansion_outgrowing_the_fields_is_redone_on_wider_ones(xy):
    # every input exponent is at most 3, which two-bit fields hold; the
    # products x^3 * x^3 that cancel in the identity are not
    x3 = parse_poly("x^3", xy)
    gens = [ModuleElement(xy, [x3]), ModuleElement(xy, [x3 - parse_poly("y", xy)])]
    whole = ModuleElement(xy, [parse_poly("x^3*y", xy), x3, -x3])
    packer = _Packer(_embedded_key(xy.default_order(), 1), 3, 2, 2)

    def attempt(packer):
        mains, dens = zip(*(_vec_of(g, packer) for g in gens))
        split = [_split(m, packer) for m in mains]
        return groebner._recombines(_vec_of(whole, packer)[0], 1, split, dens, packer)

    with pytest.raises(groebner._Overflow):
        attempt(packer)
    assert groebner._widening(Budget(), packer, attempt)


def test_corrupted_basis_vector_is_refused(xy, monkeypatch):
    # bump one tail term, then one main term, of each tracked basis vector
    # in turn: both builders of a tracked basis must refuse every such basis
    gens = [ModuleElement(xy, (parse_poly(t, xy),)) for t in ("x^2 - y", "x*y", "y^2 + x")]
    packer = _packer(_embedded_key(xy.default_order(), 1), 1 + len(gens),
                     xy, gens)
    vecs = []
    for i, g in enumerate(gens):
        v, den = _vec_of(g, packer)
        vecs.append({**v, packer.pack(1 + i, (0, 0)): den})
    basis = _reduced_basis(packer, vecs, Budget())
    mutants = 0
    for n, (vec, _) in enumerate(basis):
        for tail in (True, False):
            terms = [packer.unpack(t) for t in vec if (packer.comp(t) >= 1) == tail]
            if not terms:
                continue

            def bumped(packer, vecs, budget, _n=n, _t=terms[0]):
                pairs = _reduced_basis(packer, vecs, budget)
                vec, lead = pairs[_n]
                t = packer.pack(*_t)
                pairs[_n] = ({**vec, t: vec[t] + 1}, lead)
                return pairs

            mutants += 1
            monkeypatch.setattr(groebner, "_reduced_basis", bumped)
            with pytest.raises(StructureError, match="expand"):
                syzygy_module(gens)
            with pytest.raises(StructureError, match="expand"):
                compute_gb(Submodule(xy, 1, gens))
            monkeypatch.undo()
    assert mutants >= len(basis) + 2  # every vector has a tail, and some have mains


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_results_agree_across_orders(seed):
    # verdicts are module equalities, so no answer may depend on the order
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    rank = rng.randint(1, 2)
    ring = VarSet(["x", "y", "z"][:nvars])
    gm = _nonzero_elements(rng, ring, rank, rng.randint(1, 3))
    gn = _nonzero_elements(rng, ring, rank, rng.randint(1, 2))
    if rng.random() < 0.5:
        v = _nonzero_elements(rng, ring, rank, 1)[0]
    else:
        v = ModuleElement.zero(ring, rank)
        for g in gm:
            v = v + g.scale(random_element(rng, ring, 1, max_deg=1).entries[0])
    orders = [MonomialOrder.grevlex(), MonomialOrder.lex(),
              MonomialOrder.wgrevlex((2, 3, 1)[:nvars])]
    members, meets, syzygies = [], [], []
    for order in orders:
        M = Submodule(ring, rank, gm, order)
        N = Submodule(ring, rank, gn, order)
        members.append(express(v, M).is_member)
        meets.append(module_intersect(M, N))
        syzygies.append(syzygy_module(gm, order=order))
    assert len(set(members)) == 1
    for out in (meets, syzygies):
        for other in out[1:]:
            assert module_equal(out[0], other)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_prune_and_membership_do_not_depend_on_the_working_order(seed):
    # prune's output follows the ring's default order whatever the module's
    # working order is; membership agrees with a bounded linear-algebra search
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    rank = rng.randint(1, 3)
    weights = (2, 3, 1)[:nvars] if rng.random() < 0.5 else None
    ring = VarSet(["x", "y", "z"][:nvars], weights)
    gens = _nonzero_elements(rng, ring, rank, rng.randint(1, 3))
    combo = ModuleElement.zero(ring, rank)
    for g in gens:
        combo = combo + g.scale(random_element(rng, ring, 1, max_deg=1).entries[0])
    if not combo.is_zero:
        gens.insert(rng.randint(0, len(gens)), combo)
    v = combo if rng.random() < 0.5 else _nonzero_elements(rng, ring, rank, 1)[0]
    witness = membership_bounded(v, gens, 1)
    orders = [MonomialOrder.grevlex(), MonomialOrder.wgrevlex((3, 1, 2)[:nvars]),
              MonomialOrder.lex()]
    pruned = []
    for order in orders:
        M = Submodule(ring, rank, gens, order)
        pruned.append(prune_module(M).generators)
        if witness is not None:
            assert express(v, M).is_member
    assert pruned[1:] == pruned[:1] * (len(orders) - 1)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_prune_matches_the_direct_reference(seed):
    # The incremental run must keep exactly the generators that the direct
    # prune keeps, in the same order, under every working order.  Rank 1
    # runs with the product criterion; equal copies, scalar and polynomial
    # multiples, sums of earlier generators and combinations make
    # generators that must go, and that the run itself may reduce to zero.
    # Random non-homogeneous modules can grow very long coefficients, so
    # both sides run on a reduction budget and are compared when both finish.
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    rank = rng.randint(1, 3)
    weights = (2, 3, 1)[:nvars] if rng.random() < 0.5 else None
    ring = VarSet(["x", "y", "z"][:nvars], weights)
    gens = _nonzero_elements(rng, ring, rank, rng.randint(1, 4))
    for _ in range(rng.randint(0, 4)):
        g = rng.choice(gens)
        kind = rng.randrange(6)
        if kind == 0:
            extra = g
        elif kind == 1:
            extra = ModuleElement(ring, g.entries)
        elif kind == 2:
            extra = g.scale(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)))
        elif kind == 3:
            extra = g.scale(random_element(rng, ring, 1, max_deg=1).entries[0])
        elif kind == 4:
            extra = ModuleElement.zero(ring, rank)
            for h in rng.sample(gens, rng.randint(1, len(gens))):
                extra = extra + h
        else:
            extra = ModuleElement.zero(ring, rank)
            for h in gens:
                extra = extra + h.scale(random_element(rng, ring, 1, max_deg=1).entries[0])
        gens.insert(rng.randint(0, len(gens)), extra)
    for order in (GREVLEX, MonomialOrder.wgrevlex((2, 3, 1)[:nvars]),
                  MonomialOrder.lex()):
        M = Submodule(ring, rank, gens, order)
        try:
            expected = prune_reference(M, Budget(max_reductions=20_000))
            got = prune_module(M, Budget(max_reductions=20_000)).generators
        except GroebnerTimeout:
            continue
        assert list(got) == expected


def _kernel_results(seed):
    """Bases, syzygies, memberships, prunes and an elimination of seeded
    random modules, each with the counters of its budget."""
    rng = random.Random(seed)
    ring = VarSet(["x", "y", "z"])
    out = []
    for order in (MonomialOrder.grevlex(), MonomialOrder.lex(),
                  MonomialOrder.wgrevlex((2, 3, 1))):
        rank = rng.randint(1, 2)
        gens = _nonzero_elements(rng, ring, rank, 3)
        M = Submodule(ring, rank, gens, order)
        budget = Budget()
        v = combine(ring, rank, [random_poly(rng, ring, max_deg=2) for _ in gens], gens)
        out.append((compute_gb(M, budget).elements,
                    syzygy_module(gens, budget, order).generators,
                    express(v, M, budget).coefficients,
                    prune_module(Submodule(ring, rank, gens + [v]), budget).generators,
                    budget.stats()))
    I = Submodule.ideal(ring, [g.entries[0] for g in _nonzero_elements(rng, ring, 1, 2)])
    budget = Budget()
    out.append((eliminate(I, ["x"], budget).generators, budget.stats()))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_narrow_fields_change_no_answer_and_no_counter(seed, monkeypatch):
    # with fields just wide enough for the inputs, the runs outgrow them and
    # start again on wider ones; the results and the counters stay the same
    expected = _kernel_results(seed)
    widened = []

    def narrow(key, ncomp, ring, elems):
        top = max((x for g in elems for p in g.entries for e in p.terms for x in e),
                  default=0)
        return _Packer(key, ncomp, len(ring), max(top.bit_length(), 1))

    def counted(packer, bits):
        widened.append(bits)
        return real(packer, bits)

    real = _Packer.widened
    monkeypatch.setattr(groebner, "_packer", narrow)
    monkeypatch.setattr(_Packer, "widened", counted)
    assert _kernel_results(seed) == expected
    assert widened
