"""Randomized property suites (seeded, deterministic).

Each suite runs a requested number of cases and raises AssertionError on the
first violation; the acceptance module runs all five at 200+ cases.
"""

import random

from germlift.exprio import parse_poly
from germlift.germs import MapGerm, VectorField, jacobian, wf_apply
from germlift.groebner import compute_gb, express, module_intersect, syzygy_module
from germlift.lifting import is_liftable
from germlift.modules import ModuleElement, Submodule
from germlift.poly import Polynomial, VarSet, exp_sub

from oracles import (
    exp_lcm,
    intersection_bounded,
    module_order_key,
    random_element,
    random_poly,
)


def _lead(elem, order):
    terms = [
        ((c, e), k)
        for c, p in enumerate(elem.entries)
        for e, k in p.terms.items()
    ]
    return max(terms, key=lambda t: module_order_key(order, *t[0]))


def _random_module(rng, rank_choices=(1, 2), nvars=2, gens=3, max_deg=2):
    ring = VarSet(["x", "y", "z"][:nvars])
    rank = rng.choice(rank_choices)
    gs = []
    for _ in range(rng.randint(1, gens)):
        g = random_element(rng, ring, rank, max_deg=max_deg, max_terms=3,
                           coeff_bound=5)
        if not g.is_zero:
            gs.append(g)
    if not gs:
        gs = [ModuleElement(ring, [Polynomial.variable(ring, ring.names[0])]
                            + [Polynomial.zero(ring)] * (rank - 1))]
    return Submodule(ring, rank, gs)


def suite_gb_s_vectors(n=200) -> int:
    """Every S-vector of every computed basis reduces to zero, and the
    reduced basis does not depend on generator order."""
    rng = random.Random(101)
    cases = 0
    while cases < n:
        M = _random_module(rng)
        basis = compute_gb(M).elements
        shuffled = list(M.generators)
        rng.shuffle(shuffled)
        M2 = Submodule(M.ring, M.rank, shuffled)
        assert compute_gb(M2).elements == basis
        for i in range(len(basis)):
            for j in range(i):
                (ci, ei), ki = _lead(basis[i], M.order)
                (cj, ej), kj = _lead(basis[j], M.order)
                if ci != cj:
                    continue
                L = exp_lcm(ei, ej)
                mi = Polynomial.monomial(M.ring, exp_sub(L, ei), 1 / ki)
                mj = Polynomial.monomial(M.ring, exp_sub(L, ej), 1 / kj)
                s = basis[i].scale(mi) - basis[j].scale(mj)
                assert express(s, M).remainder.is_zero
                cases += 1
        cases += 1
    return cases


def suite_express_consistency(n=200) -> int:
    """express succeeds iff the normal form vanishes; returned coefficients
    always re-expand exactly; normal forms are idempotent."""
    rng = random.Random(202)
    for _ in range(n):
        M = _random_module(rng)
        member = ModuleElement.zero(M.ring, M.rank)
        for g in M.generators:
            member = member + g.scale(
                random_poly(rng, M.ring, max_deg=2, max_terms=2))
        res = express(member, M)
        assert res.is_member
        acc = ModuleElement.zero(M.ring, M.rank)
        for c, g in zip(res.coefficients, M.generators):
            acc = acc + g.scale(c)
        assert acc == member
        w = random_element(rng, M.ring, M.rank, max_deg=2, max_terms=3)
        r = express(w, M)
        nf = express(w, M).remainder
        assert r.is_member == nf.is_zero
        assert express(nf, M).remainder == nf
    return n


def suite_intersection(n=200) -> int:
    """Intersection outputs lie in both inputs, and contain every element the
    degree-bounded brute-force oracle finds."""
    rng = random.Random(303)
    for i in range(n):
        nv = 3 if i % 4 == 0 else 2
        M = _random_module(rng, rank_choices=(1, 2), nvars=nv, gens=2)
        N = Submodule(M.ring, M.rank, [
            random_element(rng, M.ring, M.rank, max_deg=2, max_terms=2,
                           allow_zero=False)
            for _ in range(rng.randint(1, 2))])
        K = module_intersect(M, N)
        for g in K.generators:
            assert express(g, M).is_member
            assert express(g, N).is_member
        for elem in intersection_bounded(list(M.generators),
                                         list(N.generators), 2):
            assert express(elem, K).is_member
    return n


def suite_syzygy(n=200) -> int:
    """Every syzygy generator and every random combination of them expands
    to the zero vector exactly."""
    rng = random.Random(404)
    for _ in range(n):
        ring = VarSet(["x", "y"])
        rank = rng.choice((1, 2))
        gens = [random_element(rng, ring, rank, max_deg=2, max_terms=2,
                               allow_zero=False)
                for _ in range(rng.randint(2, 3))]
        S = syzygy_module(gens)
        for s in S.generators:
            acc = ModuleElement.zero(ring, rank)
            for c, g in zip(s.entries, gens):
                acc = acc + g.scale(c)
            assert acc.is_zero
        if S.generators:
            combo = ModuleElement.zero(ring, len(gens))
            for s in S.generators:
                combo = combo + s.scale(
                    random_poly(rng, ring, max_deg=1, max_terms=2))
            acc = ModuleElement.zero(ring, rank)
            for c, g in zip(combo.entries, gens):
                acc = acc + g.scale(c)
            assert acc.is_zero
    return n


def _h2():
    src2 = VarSet(["x", "y"], [4, 1])
    tgt3 = VarSet(["X", "Y", "Z"], [4, 3, 5])
    germ = MapGerm(src2, tgt3, [parse_poly(t, src2) for t in
                                ("x", "y^3", "y^5 + x*y")])
    table = [
        ("4*X", "3*Y", "5*Z"),
        ("X^2 + 5*Y*Z", "-3*X*Y", "5*Y^3"),
        ("Z^2 - X*Y^2", "0", "X^2*Y + Y^2*Z"),
        ("5*Y^3 + X*Z", "-3*Y*Z", "-5*X*Y^2"),
        ("-5*Y^2*Z - X^2*Y", "3*Z^2", "6*X*Y*Z + X^3"),
    ]
    gens = [VectorField(tgt3, [parse_poly(t, tgt3) for t in row])
            for row in table]
    return germ, gens


def suite_certificates(n=200) -> int:
    """Every certified verdict re-verifies df(xi) = eta o f by independent
    expansion of both sides."""
    rng = random.Random(505)
    germ, gens = _h2()
    tgt = germ.target
    passes = 0
    for i in range(n):
        if i % 2 == 0:
            eta = (ModuleElement.zero(tgt, 3)
                   + gens[rng.randrange(len(gens))].scale(
                       random_poly(rng, tgt, max_deg=1, max_terms=2))
                   + gens[rng.randrange(len(gens))].scale(
                       random_poly(rng, tgt, max_deg=1, max_terms=2)))
        else:
            eta = VectorField(tgt, [random_poly(rng, tgt, max_deg=2,
                                                max_terms=2)
                                    for _ in range(3)])
        res = is_liftable(germ, eta)
        if res.certified:
            passes += 1
            J = jacobian(germ)
            xi = res.certificate.xi
            lhs = []
            for r in range(germ.p):
                acc = Polynomial.zero(germ.source)
                for c in range(germ.n):
                    acc = acc + J[r][c] * xi.entries[c]
                lhs.append(acc)
            assert ModuleElement(germ.source, lhs) == wf_apply(eta, germ)
        else:
            assert not res.obstruction.is_zero
    assert passes >= n // 2
    return n
