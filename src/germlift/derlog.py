"""Discriminants, logarithmic vector fields, and augmentation transforms.

A discriminant is the squarefree part of a norm when the leading terms of
the components show ``Q[x]`` free over ``Q[X]`` on power products: the
determinant of multiplication by det(df) in that basis, checked by
dividing ``h o f`` by det(df) and the norm by ``h``.  The discriminant of
any other germ is a Groebner elimination of its graph ideal.

For a reduced equation h, the strict module is the annihilator
{eta : eta(h) = 0}; the tangent module is {eta : eta(h) in <h>}, computed as
syzygies of the partials (with h adjoined), with the quotient eta(h)/h
read off the syzygy of every generator.  Both identities are verified once,
where ``groebner.syzygy_module`` re-expands every syzygy it returns;
``derlog_strict`` and ``derlog_tangent`` apply no field to h.  The
augmentation machinery moves fields between the discriminant of a
one-parameter stable unfolding and the discriminants of its augmentations
by powers of the augmenting variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from math import gcd
from operator import add, sub

from .errors import (
    AmbientError,
    DescentResidueError,
    NotDivisible,
    NotEquidimensional,
    StructureError,
)
from .germs import (
    MapGerm,
    Unfolding,
    VectorField,
    apply_to,
    check_field,
    jacobian,
    pull_back,
)
from .groebner import Budget, eliminate, prune_module, syzygy_module
from .modules import GREVLEX, ModuleElement, Submodule, membership_module
from .poly import (
    MonomialOrder,
    Polynomial,
    VarSet,
    _cleared,
    determinant,
    exact_divide,
    fresh_name,
    integer_normalize,
    positive_weights,
    rering,
    set_zero,
    zero_section,
)


class Divisor:
    """A reduced hypersurface germ given by its defining equation."""

    __slots__ = ("ring", "h", "weights")

    def __init__(self, ring: VarSet, h: Polynomial, weights=None):
        if h.ring != ring:
            raise AmbientError("equation must live over the ambient ring")
        if h.is_zero:
            raise StructureError("divisor equation is zero")
        if h.constant_term() != 0:
            raise StructureError("divisor must pass through the origin")
        self.ring = ring
        self.h = h
        self.weights = None if weights is None else positive_weights(weights, len(ring))
        if self.weights is not None and not h.is_weighted_homogeneous(self.weights):
            raise StructureError("equation is not quasihomogeneous for the weights")

    def effective_weights(self):
        return self.weights if self.weights is not None else self.ring.weights

    def __repr__(self) -> str:
        return f"Divisor({self.h})"


def tangency_quotient(eta: ModuleElement, h: Polynomial) -> Polynomial | None:
    """The quotient eta(h)/h when it exists exactly, else None."""
    try:
        return exact_divide(apply_to(eta, h), h)
    except NotDivisible:
        return None


def derlog_strict(D: Divisor, budget: Budget | None = None) -> Submodule:
    """Fields annihilating h: the syzygies of the partial derivatives.
    ``syzygy_module`` has expanded each ``sum eta_i * dh/dx_i`` to zero."""
    ring = D.ring
    partials = [ModuleElement(ring, (D.h.diff(v),)) for v in ring.names]
    return syzygy_module(partials, budget)


@dataclass(frozen=True)
class TangentFields:
    """Derlog of the divisor: generators plus their quotients eta(h) = a*h."""

    module: Submodule
    quotients: tuple


def derlog_tangent(D: Divisor, budget: Budget | None = None) -> TangentFields:
    """Fields tangent to the divisor, with the quotient of each generator.

    Each generator ``eta`` is the head of a syzygy ``(eta, s)`` of
    ``(dh/dx_1, ..., dh/dx_p, h)``, which ``syzygy_module`` has expanded:
    ``eta(h) + s*h = 0``, so the quotient is ``-s``.  The module's working
    order is grevlex (``membership_module``); its generators are sorted by
    the ring's default order.
    """
    ring = D.ring
    p = len(ring)
    gens = [ModuleElement(ring, (D.h.diff(v),)) for v in ring.names]
    gens.append(ModuleElement(ring, (D.h,)))
    quotient_of = {}  # eta -> eta(h)/h
    for s in syzygy_module(gens, budget).generators:
        eta = ModuleElement(ring, s.entries[:p])
        if not eta.is_zero:
            quotient_of[eta] = -s.entries[p]
    module = prune_module(membership_module(ring, p, list(quotient_of)), budget)
    return TangentFields(module, tuple(quotient_of[g] for g in module.generators))


def euler_field(space: VarSet, weights=None) -> ModuleElement:
    """sum w_i x_i d/dx_i for the given (or the ring's) weights."""
    w = positive_weights(weights, len(space)) if weights is not None else space.weights
    if w is None:
        raise AmbientError("no weights available for an Euler field")
    return VectorField(
        space, [Polynomial.variable(space, n) * wi for n, wi in zip(space.names, w)]
    )


def _cofactor(a: Polynomial, b: Polynomial, budget: Budget | None) -> Polynomial:
    """The first entry ``s`` of the one generator ``(s, t)`` of the relations
    ``s*a + t*b = 0``: ``s`` is ``b / gcd(a, b)`` up to a constant.  The
    relation module is principal because Q[x] is a UFD, and
    ``syzygy_module`` has expanded ``s*a + t*b`` to zero."""
    ring = a.ring
    syz = syzygy_module([ModuleElement(ring, (a,)), ModuleElement(ring, (b,))],
                        budget, GREVLEX)
    if len(syz.generators) != 1:
        raise StructureError("the relations of two polynomials are not principal")
    return syz.generators[0].entries[0]


def poly_lcm(a: Polynomial, b: Polynomial, budget: Budget | None = None) -> Polynomial:
    """Least common multiple ``s*a``, with ``s`` from the one syzygy of (a, b)."""
    return integer_normalize(_cofactor(a, b, budget) * a)


def poly_gcd(a: Polynomial, b: Polynomial, budget: Budget | None = None) -> Polynomial:
    """Greatest common divisor ``b / s``, with ``s`` from the one syzygy of (a, b)."""
    if a.is_zero:
        return integer_normalize(b)
    if b.is_zero:
        return integer_normalize(a)
    return integer_normalize(exact_divide(b, _cofactor(a, b, budget), budget))


# the point at which squarefree_part's certificate evaluates the other
# variables: the j-th variable of the ring is set to _CERT_POINT_START + j
_CERT_POINT_START = 2


def _coprime_to_derivative(c: list[int]) -> bool:
    """Whether ``sum c[k] v^k`` (degree >= 1, leading entry nonzero) has
    no common factor with its derivative, by a primitive remainder sequence
    over the integers."""
    a, b = c, [k * ck for k, ck in enumerate(c)][1:]
    while len(b) > 1:
        r, lead = list(a), b[-1]
        while len(r) >= len(b):
            q, shift = r[-1], len(r) - len(b)
            r = [x * lead for x in r]
            for k, bk in enumerate(b):
                r[shift + k] -= q * bk
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return False
        g = reduce(gcd, r)
        a, b = b, [x // g for x in r]
    return True


def _certified_squarefree(h: Polynomial) -> bool:
    """Whether h is certified squarefree without a Groebner run.

    For a variable ``v`` whose only term of top ``v``-degree ``d >= 1`` is
    ``c*v^d``, set the other variables to a fixed integer point, giving
    ``h_a`` of degree ``d`` in ``v``.  If ``g^2`` divides ``h`` with ``g``
    nonconstant, ``lc_v(g)`` divides ``c``, so ``deg_v g >= 1`` and
    ``g_a^2`` divides ``h_a`` with ``deg g_a = deg_v g``: a ``h_a`` prime
    to its derivative therefore proves ``h`` squarefree.
    """
    (cleared,), _ = _cleared(h)
    terms = cleared.items()
    for i in range(len(h.ring)):
        d = max(e[i] for e, _ in terms)
        top = [e for e, _ in terms if e[i] == d]
        if d == 0 or len(top) > 1 or sum(top[0]) != d:
            continue
        coeffs = [0] * (d + 1)
        for e, c in terms:
            for j, x in enumerate(e):
                if j != i:
                    c *= (_CERT_POINT_START + j) ** x
            coeffs[e[i]] += c
        if _coprime_to_derivative(coeffs):
            return True
    return False


def squarefree_part(h: Polynomial, budget: Budget | None = None) -> Polynomial:
    """h with repeated factors removed, scaled to coprime integer
    coefficients with positive leading term.

    A squarefree h that :func:`_certified_squarefree` certifies is returned
    without any Groebner run.  Otherwise ``g`` is the gcd of h with its
    partials (one syzygy run each, :func:`poly_gcd`), and the result is
    ``h / g``: that route is the general one, for an h with a repeated
    factor or with no variable of constant leading coefficient.
    """
    if h.is_zero or h.total_degree() == 0:
        return h
    if _certified_squarefree(h):
        return integer_normalize(h)
    g = h
    for v in h.ring.names:
        d = h.diff(v)
        if d.is_zero:
            continue
        g = poly_gcd(g, d, budget)
        if g.total_degree() == 0:
            break
    return integer_normalize(exact_divide(h, g, budget))


def _bare_variable(p: Polynomial) -> str | None:
    """The name of the variable that p is exactly, else None."""
    if len(p.terms) != 1:
        return None
    ((e, c),) = p.terms.items()
    if c != 1 or sum(e) != 1:
        return None
    return p.ring.names[e.index(1)]


def _free_norm(gens: list, d: Polynomial, target: VarSet,
               budget: Budget | None) -> Polynomial | None:
    """The norm of ``d`` over ``Q[X]``, or None when ``gens``, the ``X_i -
    f_i`` over the ``q`` non-bare source variables and then ``target``, lack
    the shape.

    The shape asks for lex or grevlex over some ordering of the ``q``
    variables under which each ``f_i`` has ``c_i*x_j^d_j`` as its greatest
    power product in them, ``c_i`` a constant and the ``j`` distinct.  Those
    leads are pairwise coprime, so the ``X_i - f_i`` are a Groebner basis
    (Buchberger's first criterion) and ``Q[x]`` is free over ``Q[X]`` with
    basis ``{x^a : a_j < d_j}``.  The normal form rewrites ``x_j^d_j`` as
    ``(X_i - rest_i)/c_i`` in every term it divides, pass after pass; each
    rewrite puts lesser terms in the order for one, so the passes end.
    Column ``a`` of the matrix of multiplication by ``d``, the normal form
    of ``d*x^a``, is an earlier column times one variable, with
    :meth:`Budget.check_clock` read once per column.  For ``d = det(df)``
    the norm generates the 0th Fitting ideal of ``f_*O`` (D. Mond and R.
    Pellikaan, LNM 1414, 1989).
    """
    q, zero = len(gens), Polynomial.zero(target)

    def coords(p: Polynomial) -> dict:
        """p over ``Q[X]``: exponent of the ``q`` variables -> coefficient."""
        out: dict = {}
        for e, c in p.terms.items():
            out.setdefault(e[:q], {})[e[q:]] = c
        return {a: Polynomial._of(target, t) for a, t in out.items()}

    parts = [coords(g) for g in gens]
    for key in (lambda a, o=o, p=p: o.heap_key(tuple(a[k] for k in p))
                for p in permutations(range(q)) for o in (MonomialOrder.lex(), GREVLEX)):
        rules = {}  # j -> (d_j, x_j^d_j in A, its exponents less those of x_j^d_j)
        for part in parts:
            a = min(part, key=key)
            if 0 < (m := max(a)) == sum(a) and part[a].total_degree() == 0:
                inv = -1 / part[a].constant_term()
                rules[a.index(m)] = (m, {tuple(map(sub, b, a)): r * inv
                                         for b, r in part.items() if b != a})
        if len(rules) == q:
            break
    else:
        return None

    def normal_form(work: dict) -> dict:
        out = {}
        while work:
            new = {}
            for a, c in work.items():
                j = next((j for j, (m, _) in rules.items() if a[j] >= m), None)
                if j is None:
                    out[a] = out[a] + c if a in out else c
                    continue
                for b, r in rules[j][1].items():
                    u = tuple(map(add, a, b))
                    new[u] = new[u] + c * r if u in new else c * r
            work = new
        return out

    basis = list(product(*(range(rules[j][0]) for j in range(q))))
    unit = [tuple(int(i == j) for i in range(q)) for j in range(q)]
    columns = {}
    for a in basis:
        if budget is not None:
            budget.check_clock()
        j = next((j for j in reversed(range(q)) if a[j]), None)
        columns[a] = normal_form(coords(d) if j is None else {
            tuple(map(add, b, unit[j])): c
            for b, c in columns[tuple(map(sub, a, unit[j]))].items()})
    return determinant([[columns[a].get(b, zero) for b in basis] for a in basis], budget)


def _certify_discriminant(f: MapGerm, h: Polynomial, det: Polynomial,
                          norm: Polynomial | None = None,
                          budget: Budget | None = None) -> None:
    """Raise :class:`StructureError` unless det(df) divides ``h o f`` (h
    vanishes on the image of the critical set) and, given the ``norm`` of
    det(df), whose zero set is that image for a finite germ, ``h`` divides
    it (a squarefree ``h`` is then fixed up to a scalar): exact divisions."""
    checks = [(pull_back(h, f, budget), det, "det(df) does not divide h o f")]
    if norm is not None:
        checks.append((norm, h, "h does not divide the norm of det(df)"))
    for a, b, failed in checks:
        try:
            exact_divide(a, b, budget)
        except NotDivisible:
            raise StructureError(f"discriminant certificate failed: {failed}") from None


def discriminant(f: MapGerm, budget: Budget | None = None) -> Divisor:
    """Reduced defining equation of the image of the non-submersive points.

    Restricted to equidimensional germs; the result is normalized to coprime
    integer coefficients with positive leading term.

    A component ``X_i = x_j`` that is one source variable, not taken by an
    earlier component, is bare: ``X_i`` replaces ``x_j`` in the other
    components and in det(df).  When those components have a free basis
    (:func:`_free_norm`: under lex or grevlex over some ordering of the
    other source variables, each leads with a constant times a power of its
    own variable), ``h`` is the squarefree part of the norm of det(df), and
    no Groebner run is made unless ``squarefree_part`` needs one.  Lex with
    the one non-bare variable first is the corank-1 shape.

    Otherwise the other source variables are eliminated from the ``X_i -
    f_i`` together with det(df), and ``h`` is the squarefree part of the one
    generator: the image of the graph ideal under ``x_j -> X_i`` fixes the
    target ring, so its elimination ideal, and the generator, are the same.

    On either route ``h o f`` is checked to be a multiple of det(df) by
    exact division (:func:`_certify_discriminant`), and on the norm route
    ``h`` is checked to divide the norm.  A submersion at 0 (``det(df)(0) !=
    0``) has no discriminant there and raises before either route runs.
    """
    if f.n != f.p:
        raise NotEquidimensional(f"need n = p, got {f.n} -> {f.p}")
    det = determinant(jacobian(f))
    if det.is_zero:
        raise StructureError("Jacobian determinant vanishes identically")
    if det.constant_term() != 0:
        raise StructureError("germ is a submersion at 0 and has no discriminant there")
    if set(f.source.names) & set(f.target.names):
        raise AmbientError("source and target variable names must be disjoint")
    bare = {}  # source variable -> the target coordinate equal to it
    kept = []  # the other components with their target coordinates
    for name, comp in zip(f.target.names, f.components):
        x = _bare_variable(comp)
        if x is not None and x not in bare:
            bare[x] = name
        else:
            kept.append((name, comp))
    rest = [n for n in f.source.names if n not in bare]
    big = VarSet(rest + list(f.target.names))
    image = {n: Polynomial.variable(big, bare.get(n, n)) for n in f.source.names}
    gens = [Polynomial.variable(big, name) - comp.substitute(image, into=big)
            for name, comp in kept]
    d = det.substitute(image, into=big)
    norm = _free_norm(gens, d, f.target, budget)
    if norm is not None:
        h = squarefree_part(norm, budget)
    else:
        elim = eliminate(Submodule.ideal(big, gens + [d]), rest, budget)
        polys = elim.ideal_generators()
        if len(polys) != 1:
            raise StructureError(
                f"eliminated ideal is not principal ({len(polys)} generators)"
            )
        h = squarefree_part(rering(polys[0], f.target), budget)
    _certify_discriminant(f, h, det, norm, budget)
    weights = None
    if f.target.weights is not None and h.is_weighted_homogeneous(f.target.weights):
        weights = f.target.weights
    return Divisor(f.target, h, weights)


def augment_map(unfolding: Unfolding, k: int) -> MapGerm:
    """The augmentation of ``unfolding``'s core by the one-parameter
    unfolding and z -> z^k: substitute z^k for the unfolding parameter and
    keep the parameter slot as the new source variable z."""
    if unfolding.r != 1:
        raise StructureError("augmentation needs a one-parameter unfolding")
    if k < 1:
        raise StructureError("k must be a positive integer")
    F = unfolding.total
    lam = unfolding.source_params[0]
    tgt_idx = unfolding.target_param_indices()[0]
    lam_poly = Polynomial.variable(F.source, lam)
    mapping = {lam: lam_poly**k}
    comps = [lam_poly if i == tgt_idx else c.substitute(mapping)
             for i, c in enumerate(F.components)]
    return MapGerm(F.source, F.target, comps)


def augmented_target(unfolding: Unfolding) -> VarSet:
    """The target ring of :func:`augment_unfolding`, for every k: the
    unfolding's target and a fresh coordinate for the new parameter."""
    target = unfolding.total.target
    return VarSet(target.names + (fresh_name(target, "Mu"),))


def augment_unfolding(unfolding: Unfolding, k: int) -> Unfolding:
    """The canonical one-parameter stable unfolding of the augmented germ,
    obtained by substituting z^k + mu for the unfolding parameter."""
    core = augment_map(unfolding, k)
    F = unfolding.total
    lam = unfolding.source_params[0]
    tgt_idx = unfolding.target_param_indices()[0]
    mu = fresh_name(F.source, "mu")
    src = VarSet(F.source.names + (mu,))
    tgt = augmented_target(unfolding)
    MU = tgt.names[-1]
    lam_poly = Polynomial.variable(src, lam)
    mu_poly = Polynomial.variable(src, mu)
    mapping = {
        lam: lam_poly**k + mu_poly,
        **{n: Polynomial.variable(src, n) for n in F.source.names if n != lam},
    }
    comps = [lam_poly if i == tgt_idx else c.substitute(mapping, into=src)
             for i, c in enumerate(F.components)]
    comps.append(mu_poly)
    total = MapGerm(src, tgt, comps)
    return Unfolding(total, (mu,), (MU,), core)


def _substitute_power(eta: ModuleElement, k: int, into: VarSet | None):
    """The entries of the field eta with z^k for the last coordinate z, over
    ``into``, and the derivative k*z^(k-1)."""
    check_field(eta, eta.ring, "its ring")
    space = into if into is not None else eta.ring
    if space.names != eta.ring.names:
        raise AmbientError("target space must share coordinate names")
    name = space.names[-1]
    z = Polynomial.variable(space, name)
    zk = z ** k
    entries = [p.substitute({name: zk}, into=space) for p in eta.entries]
    return space, entries, z ** (k - 1) * k


def augment_field(eta: ModuleElement, k: int, into: VarSet | None = None) -> ModuleElement:
    """Transform a field on the unfolding target to the augmentation target:
    substitute z^k for the last coordinate everywhere, and multiply every
    entry except the last by the derivative k*z^(k-1)."""
    space, entries, phi_prime = _substitute_power(eta, k, into)
    return VectorField(space, [q * phi_prime for q in entries[:-1]] + entries[-1:])


def augment_field_div(eta: ModuleElement, k: int, into: VarSet | None = None) -> ModuleElement:
    """The transform above divided exactly by k*z^(k-1); requires the last
    entry of eta to vanish on the zero section of the last coordinate."""
    space, entries, divisor = _substitute_power(eta, k, into)
    if not set_zero(eta.entries[-1], space.names[-1:]).is_zero:
        raise NotDivisible("last entry does not vanish at the zero section")
    return VectorField(space, entries[:-1] + [exact_divide(entries[-1], divisor)])


def last_component_ideal(M: Submodule) -> Submodule:
    """Ideal of last components with the last coordinate set to zero,
    over the ring without that coordinate."""
    ring = M.ring
    if M.rank != len(ring):
        raise AmbientError("module rank must match the coordinate count")
    short = VarSet(
        ring.names[:-1],
        ring.weights[:-1] if ring.weights is not None else None,
    )
    out = [zero_section(g.entries[-1], ring.names[-1:], short) for g in M.generators]
    return Submodule.ideal(short, [q for q in out if not q.is_zero])


@dataclass(frozen=True)
class DescentResult:
    """Outcome of descending a field from an augmented discriminant."""

    field: ModuleElement        # tangent to the unfolding discriminant
    discarded: ModuleElement    # eta_bar minus the re-transformed field
    quotient: Polynomial        # field(H) / H


def descend_field(eta_bar: ModuleElement, k: int, H_div: Divisor) -> DescentResult:
    """Descend a field tangent to the discriminant of the k-th augmentation
    to one tangent to the unfolding discriminant.

    Only the residue classes of the degree in the last coordinate that
    survive the substitution z -> z^k are retained; which classes those are
    depends on whether the last entry vanishes on the zero section (the two
    descent cases).  The discarded part is returned and checked
    to be tangent to the augmented discriminant itself.
    """
    space = eta_bar.ring
    H_ring = H_div.ring
    check_field(eta_bar, space, "its ring")
    if space.names != H_ring.names:
        raise AmbientError("field and divisor must share coordinate names")
    z = space.names[-1]
    zi = len(space) - 1
    h = H_div.h.substitute({z: Polynomial.variable(space, z) ** k}, into=space)
    alpha_bar = tangency_quotient(eta_bar, h)
    if alpha_bar is None:
        raise DescentResidueError("input field is not tangent to the augmented divisor")
    p = len(space) - 1
    beta_zero = set_zero(eta_bar.entries[-1], (z,)).is_zero

    def extract(poly: Polynomial, residue: int, post_add: int,
                scale: Fraction) -> Polynomial:
        terms = {}
        for e, c in poly.terms.items():
            if e[zi] % k != residue % k:
                continue
            new = list(e)
            new[zi] = (e[zi] - residue) // k + post_add
            terms[tuple(new)] = c * scale
        return Polynomial(H_ring, terms)

    if beta_zero:
        entries = [extract(q, 0, 0, Fraction(1)) for q in eta_bar.entries[:p]]
        entries.append(extract(eta_bar.entries[-1], 1, 1, Fraction(k)))
    else:
        entries = [extract(q, k - 1, 0, Fraction(1, k)) for q in eta_bar.entries[:p]]
        entries.append(extract(eta_bar.entries[-1], 0, 0, Fraction(1)))
    field = VectorField(H_ring, entries)

    alpha = tangency_quotient(field, H_div.h)
    if alpha is None:
        raise DescentResidueError("retained part is not tangent to the divisor")
    if beta_zero:
        reconstructed = augment_field_div(field, k, into=space)
    else:
        reconstructed = augment_field(field, k, into=space)
    discarded = eta_bar - reconstructed
    if tangency_quotient(discarded, h) is None:
        raise DescentResidueError("discarded part is not tangent to the augmented divisor")
    return DescentResult(field, discarded, alpha)
