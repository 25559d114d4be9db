"""Buchberger kernel for submodules of free modules over Q[x_1..x_n].

One engine serves five needs:

* reduced Groebner bases (deterministic for a fixed module order),
* normal forms and membership with coefficient extraction (``_divide``);
  ``express`` re-verifies each returned identity, and
  ``lifting.is_liftable`` divides directly because its certificate
  re-expands the same identity,
* syzygy modules, computed by embedding the generators alongside unit
  vectors and eliminating the leading block,
* submodule intersection, read off the syzygies of both generating sets
  together, and variable elimination via block orders,
* pruning a generating set (``prune_module``) with one incremental run
  whose basis prefixes answer every drop test.

The kernel runs fraction-free.  Its vectors are plain dicts mapping
``(component, exponent-tuple)`` to ``int``, and its basis vectors are
primitive: coefficients with gcd 1 and a positive lead coefficient.
Reduction is pseudo-reduction (Becker-Weispfenning, *Groebner Bases*,
1993): the working vector is scaled by an integer instead of dividing the
reducer by its lead coefficient, so every step cancels the same term as
over Q and the kernel makes the same reductions.  Fractions appear only at
the boundary: :func:`_vec_of` clears denominators when a vector enters,
and :func:`_elem_of` divides by a given integer (a lead coefficient, or in
:func:`_divide` the denominator times the reduction's scale) when it
leaves.

Each kernel identity is verified once, in the kernel's integers, by
:func:`_recombines`: with the generators as ``main_i = den_i * gen_i`` and
``D = lcm(den_i)``, the embedded vector ``(v, tail)`` must satisfy
``D * v == sum_i tail_i * main_i * (D / den_i)``.  The tracked basis checks
every basis vector so (an element against its representation, a syzygy
against zero), and :func:`express` checks each membership it returns.  The
callers of ``syzygy_module`` (``derlog``) rely on that check instead of
expanding the syzygies again.

Every step above runs through one normal-form routine,
``_Kernel.reduce_full``.  It compares terms by heap keys: flat int tuples,
computed straight from the order (``ModuleOrder.heap_key``,
:func:`_embedded_key`) and memoized once per kernel, in which the greatest
term has the least key.  The terms still to be reduced sit in a heap of
those keys (Monagan-Pearce, 2007), so each leading term is popped instead
of found by rescanning the vector.  Each lead exponent carries a bitmask of
the variables it contains; a lead whose mask is not within the term's mask
cannot divide it, so most divisibility tests are one integer operation
(Bachmann-Schoenemann, 1998).  Interreduction needs one sweep: once the
basis is minimal its leads no longer change, and reducibility depends on
the leads alone.

A tracked basis builds its reducer, the kernel that only reduces against
it, once: its self-check runs on it, and so does every later division by
the module.  Each call charges the budget it is given, and the reducer's
heap-key memo carries over from one division to the next.

:class:`Budget` alone decides every limit: the kernel charges it each
reduction and each S-pair, and the charge raises :class:`GroebnerTimeout`
itself once a cap or the budget's deadline is passed.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .errors import AmbientError, GroebnerTimeout, RankError, StructureError
from .modules import GREVLEX, ModuleElement, ModuleOrder, Submodule, combine
from .poly import (
    MonomialOrder,
    Polynomial,
    VarSet,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
)

Vec = dict  # {(comp, exp): int}


@dataclass
class Budget:
    """Caps on kernel work, and the one place that enforces them.

    ``seconds`` limits wall-clock time; its clock starts when the budget is
    made, and ``None`` or ``inf`` sets no limit.  Each charge checks its
    cap and :meth:`check_clock` checks the deadline; a limit that is passed
    raises :class:`GroebnerTimeout` with :meth:`stats` attached.  The clock
    is read per S-pair, every 512 reductions, and wherever other work calls
    :meth:`check_clock` (``poly.determinant``, once per pivot).
    """

    max_reductions: int | None = 4_000_000
    max_basis: int | None = 4000
    seconds: float | None = None
    reductions: int = 0
    spairs: int = 0
    zero_reductions: int = 0
    _deadline: float = field(init=False, repr=False)

    def __post_init__(self):
        self._deadline = (math.inf if self.seconds is None
                          else time.monotonic() + self.seconds)

    def _exhausted(self, limit: str):
        raise GroebnerTimeout(f"{limit} exceeded", stats=self.stats())

    def check_clock(self) -> None:
        if time.monotonic() >= self._deadline:
            self._exhausted(f"time limit {self.seconds}s")

    def charge_reduction(self) -> None:
        self.reductions += 1
        if self.max_reductions is not None and self.reductions > self.max_reductions:
            self._exhausted(f"reduction limit {self.max_reductions}")
        if self.reductions % 512 == 0:
            self.check_clock()

    def charge_spair(self, basis_size: int) -> None:
        self.spairs += 1
        if self.max_basis is not None and basis_size > self.max_basis:
            self._exhausted(f"basis size limit {self.max_basis}")
        self.check_clock()

    def stats(self) -> dict:
        return {
            "reductions": self.reductions,
            "s_pairs": self.spairs,
            "zero_reductions": self.zero_reductions,
        }


def _vec_of(elem: ModuleElement) -> tuple[Vec, int]:
    """``(den * elem, den)`` with ``den`` the lcm of elem's denominators, so
    that the vector has integer coefficients."""
    den = math.lcm(*(k.denominator for p in elem.entries for k in p.terms.values()))
    v: Vec = {}
    for c, p in enumerate(elem.entries):
        for e, k in p.terms.items():
            v[(c, e)] = k.numerator * (den // k.denominator)
    return v, den


def _elem_of(ring: VarSet, rank: int, vec: Vec, den: int) -> ModuleElement:
    """The element ``vec / den``."""
    polys = [dict() for _ in range(rank)]
    for (c, e), k in vec.items():
        polys[c][e] = Fraction(k, den)
    return ModuleElement(ring, [Polynomial(ring, t) for t in polys])


def _primitive(vec: Vec, lead) -> Vec:
    """``vec`` divided by the gcd of its coefficients, signed so that the
    coefficient at ``lead`` is positive."""
    g = math.gcd(*vec.values())
    if vec[lead] < 0:
        g = -g
    if g == 1:
        return vec
    return {t: k // g for t, k in vec.items()}


def _support(e) -> int:
    """Bitmask of the variables that occur in the exponent tuple ``e``."""
    mask = 0
    bit = 1
    for x in e:
        if x:
            mask |= bit
        bit <<= 1
    return mask


class _Kernel:
    """One Buchberger run over a fixed heap-key function.

    ``key(c, e)`` is the order's heap key (``ModuleOrder.heap_key`` or
    :func:`_embedded_key`): a flat int tuple, least for the greatest term.
    ``basis``, (primitive vector, lead) pairs of a finished basis, makes a
    kernel that only reduces.  The work of each call is charged to the
    ``Budget`` the call is given, so one kernel can serve many callers.
    """

    def __init__(self, key: Callable, use_product: bool,
                 basis: Sequence[tuple[Vec, tuple]] = ()):
        self.memo: dict = {}
        self.order_key = key
        self.use_product = use_product
        self.basis: list[Vec] = [vec for vec, _ in basis]
        self.leads: list[tuple] = [lead for _, lead in basis]  # (comp, exp)
        self.masks: list[int] = [_support(e) for _, e in self.leads]
        self.pairs: dict = {}  # (i,j) -> lcm exp
        self.heap: list = []

    def prefix(self, n: int) -> "_Kernel":
        """A kernel holding the first ``n`` basis vectors, sharing this one's
        heap-key memo.  When ``n`` is the basis size at the end of an
        earlier :meth:`run`, no pair was pending then, so the prefix is a
        Groebner basis of the vectors taken in up to that point."""
        out = _Kernel(self.order_key, self.use_product)
        out.memo = self.memo
        out.basis = self.basis[:n]
        out.leads = self.leads[:n]
        out.masks = self.masks[:n]
        return out

    def key(self, t):
        k = self.memo.get(t)
        if k is None:
            k = self.order_key(t[0], t[1])
            self.memo[t] = k
        return k

    def _lead(self, vec: Vec):
        return min(vec, key=self.key)

    def reduce_full(self, work: Vec, budget: Budget, main_rank: int | None = None,
                    skip: int | None = None) -> tuple[Vec, int]:
        """Complete pseudo-normal form of the integer vector ``work`` against
        the current basis: ``(rem, scale)`` with ``rem / scale`` the normal
        form of ``work`` over Q and ``scale`` a positive integer.

        With ``main_rank`` set, only terms in components < main_rank are
        reduction targets (the rest pass through to the remainder).  ``skip``
        excludes one basis index (used during interreduction).

        Targets sit in a heap of heap keys, so each step pops the greatest
        remaining target.  A term is pushed when it enters ``work``; a
        popped term that has since cancelled is skipped.  A reduction step
        only adds terms below the term it removes, so a popped term never
        returns and the steps are those of a full rescan for the maximum.
        Divisor candidates are pre-filtered by support masks: lead ``l``
        can divide ``e`` only if ``mask(l) & ~mask(e) == 0``.

        A target ``a`` against a lead coefficient ``L`` with ``d = gcd(a, L)``
        scales ``work`` by ``L/d`` (when that is not 1) and subtracts
        ``a/d`` times the shifted reducer.  Terms already moved to the
        remainder are brought up to the final scale once, at the end.
        """
        rem: Vec = {}
        earlier: list = []  # (scale, remainder terms moved out at that scale)
        scale = 1
        basis = self.basis
        leads = self.leads
        masks = self.masks
        key = self.key
        limit = math.inf if main_rank is None else main_rank
        heap = [(key(t), t) for t in work if t[0] < limit]
        heapq.heapify(heap)
        while heap:
            t = heapq.heappop(heap)[1]
            coeff = work.get(t)
            if coeff is None:
                continue
            c, e = t
            outside = ~_support(e)
            hit = -1
            for i, m in enumerate(masks):
                if not m & outside and i != skip:
                    lc_, le_ = leads[i]
                    if lc_ == c and exp_divides(le_, e):
                        hit = i
                        break
            if hit < 0:
                rem[t] = coeff
                del work[t]
                continue
            budget.charge_reduction()
            lead_t = leads[hit]
            shift = exp_sub(e, lead_t[1])
            red = basis[hit]
            q = coeff
            lc = red[lead_t]
            if lc != 1:
                d = math.gcd(coeff, lc)
                m = lc // d
                if m != 1:
                    if rem:
                        earlier.append((scale, rem))
                        rem = {}
                    work = {u: k * m for u, k in work.items()}
                    scale *= m
                q = coeff // d
            zero_shift = not any(shift)
            for (c2, e2), k2 in red.items():
                t2 = (c2, e2) if zero_shift else (c2, exp_add(e2, shift))
                s = work.get(t2)
                if s is None:
                    work[t2] = -q * k2
                    if c2 < limit:
                        heapq.heappush(heap, (key(t2), t2))
                else:
                    s = s - q * k2
                    if s:
                        work[t2] = s
                    else:
                        del work[t2]
        for s, part in earlier:
            m = scale // s
            rem.update((u, k * m) for u, k in part.items())
        rem.update(work)
        return rem, scale

    def add(self, vec: Vec):
        """Insert a (nonzero) vector, updating the pair set a la Gebauer-Moeller."""
        t = len(self.basis)
        lead = self._lead(vec)
        self.basis.append(_primitive(vec, lead))
        self.leads.append(lead)
        self.masks.append(_support(lead[1]))
        ct, et = lead
        # criterion B: prune old pairs strictly covered by the new lead
        for (i, j), L in list(self.pairs.items()):
            if self.leads[i][0] == ct and exp_divides(et, L):
                if exp_lcm(self.leads[i][1], et) != L and exp_lcm(self.leads[j][1], et) != L:
                    del self.pairs[(i, j)]
        cand = [i for i in range(t) if self.leads[i][0] == ct]
        lcms = {i: exp_lcm(self.leads[i][1], et) for i in cand}
        # criterion M: keep only minimal lcms.  A proper divisor of an lcm
        # has lower degree, and divisibility is transitive, so each lcm is
        # tested only against the minimal lcms of lower degree.
        minimal: list = []  # (degree, lcm) of the minimal lcms found so far
        kept = set()
        for i in sorted(cand, key=lambda i: sum(lcms[i])):
            Li = lcms[i]
            deg = sum(Li)
            if not any(dj < deg and exp_divides(Lj, Li) for dj, Lj in minimal):
                kept.add(i)
                minimal.append((deg, Li))
        keep = [i for i in cand if i in kept]
        # criterion F: one representative per lcm
        seen: dict = {}
        for i in keep:
            L = lcms[i]
            if L in seen:
                continue
            seen[L] = i
            # product criterion is only sound for ideals (rank 1)
            if self.use_product and L == exp_add(self.leads[i][1], et):
                continue
            self.pairs[(i, t)] = L
            # normal strategy: least lcm first.  Negating a flat heap key
            # reverses its order, as all keys of one component have one length.
            rank = tuple(-x for x in self.order_key(ct, L))
            heapq.heappush(self.heap, (rank, i, t))

    def spair(self, i: int, j: int) -> Vec:
        """``(c_j/d) x^{s_i} g_i - (c_i/d) x^{s_j} g_j`` for lead coefficients
        ``c_i``, ``c_j`` with ``d = gcd(c_i, c_j)``: a positive multiple of the
        S-vector of the monic forms."""
        ci, ei = self.leads[i]
        cj, ej = self.leads[j]
        gi = self.basis[i]
        gj = self.basis[j]
        ki = gi[self.leads[i]]
        kj = gj[self.leads[j]]
        d = math.gcd(ki, kj)
        fi = kj // d
        fj = ki // d
        L = exp_lcm(ei, ej)
        si = exp_sub(L, ei)
        sj = exp_sub(L, ej)
        out: Vec = {}
        for (c, e), k in gi.items():
            out[(c, exp_add(e, si))] = fi * k
        for (c, e), k in gj.items():
            t = (c, exp_add(e, sj))
            s = out.get(t)
            if s is None:
                out[t] = -fj * k
            else:
                s = s - fj * k
                if s:
                    out[t] = s
                else:
                    del out[t]
        return out

    def run(self, vecs: Sequence[Vec], budget: Budget):
        for v in vecs:
            if not v:
                continue
            r = self.reduce_full(dict(v), budget)[0]
            if r:
                self.add(r)
        while self.heap:
            _, i, j = heapq.heappop(self.heap)
            if (i, j) not in self.pairs:
                continue
            del self.pairs[(i, j)]
            budget.charge_spair(len(self.basis))
            r = self.reduce_full(self.spair(i, j), budget)[0]
            if r:
                self.add(r)
            else:
                budget.zero_reductions += 1

    def interreduce(self, budget: Budget):
        """Minimalize and tail-reduce; the result is the unique reduced basis
        up to a positive factor per element (each stays primitive).

        After minimalization no lead divides another, so each element keeps
        its lead (still positive) when reduced against the others.  Whether a
        term is reducible depends only on the leads, which no longer change,
        so one sweep leaves every element reduced.
        """
        order = sorted(range(len(self.basis)), key=lambda i: self.key(self.leads[i]),
                       reverse=True)
        minimal: list[int] = []
        for i in order:
            ci, ei = self.leads[i]
            if any(self.leads[j][0] == ci and exp_divides(self.leads[j][1], ei)
                   for j in minimal):
                continue
            minimal.append(i)
        self.basis = [self.basis[i] for i in minimal]
        self.leads = [self.leads[i] for i in minimal]
        self.masks = [self.masks[i] for i in minimal]
        for i in range(len(self.basis)):
            rem = self.reduce_full(dict(self.basis[i]), budget, skip=i)[0]
            self.basis[i] = _primitive(rem, self.leads[i])


def _embedded_key(morder: ModuleOrder, main_rank: int):
    """Heap key of the order that embeds ``morder`` on components below
    ``main_rank`` above trailing components ordered by grevlex, then position."""
    base = morder.heap_key
    tail = MonomialOrder.grevlex().heap_key

    def key(c, e):
        if c < main_rank:
            return (-1,) + base(c, e)
        return (0,) + tail(e) + (c - main_rank,)

    return key


def _reduced_basis(key, vecs: Sequence[Vec], budget: Budget,
                   use_product: bool) -> list[tuple[Vec, tuple]]:
    """The reduced basis of the integer vectors ``vecs`` as (primitive
    vector, lead) pairs, least lead first in the order whose heap key is
    ``key``."""
    kern = _Kernel(key, use_product)
    kern.run(vecs, budget)
    kern.interreduce(budget)
    return sorted(zip(kern.basis, kern.leads), key=lambda p: kern.key(p[1]),
                  reverse=True)


def grevlex_basis(ring: VarSet, rank: int, elems: Sequence[ModuleElement],
                  budget: Budget) -> list[ModuleElement]:
    """The reduced grevlex (term over position) basis of the module that
    ``elems`` generate, least lead first, without tracking."""
    pairs = _reduced_basis(GREVLEX.heap_key, [_vec_of(g)[0] for g in elems], budget,
                           rank == 1)
    return [_elem_of(ring, rank, vec, vec[lead]) for vec, lead in pairs]


def _recombines(vec: Vec, rank: int, mains: Sequence[Vec],
                dens: Sequence[int]) -> bool:
    """Whether the embedded vector ``vec`` re-expands exactly: its part in
    components below ``rank`` equals ``sum_i tail_i * gen_i``, where
    ``tail_i`` is its component ``rank + i`` and each generator is given as
    the integer vector ``mains[i] = dens[i] * gen_i`` (:func:`_vec_of`).

    Both sides are multiplied by ``D = lcm(dens)``: every term product of
    ``sum_i tail_i * mains[i] * (D / dens[i])`` is summed into one int dict,
    less ``D`` times the main part, and the identity holds when nothing is
    left.  No ``Fraction`` is built.
    """
    D = math.lcm(*dens)
    acc: Vec = {}
    get = acc.get
    for t, k in vec.items():
        c, e = t
        if c < rank:
            acc[t] = get(t, 0) - D * k
            continue
        i = c - rank
        f = k * (D // dens[i])
        zero_shift = not any(e)
        for (c2, e2), k2 in mains[i].items():
            t = (c2, e2) if zero_shift else (c2, exp_add(e, e2))
            acc[t] = get(t, 0) + f * k2
    return not any(acc.values())


@dataclass
class GroebnerBasis:
    """Reduced basis of a submodule plus tracking data.

    ``pairs`` is the reduced basis of the embedded order, least lead first,
    as (primitive integer vector, lead) pairs: each vector carries its
    representation in the original generators in the trailing components.
    ``mains`` and ``dens`` are those generators as :func:`_vec_of` gives
    them, ``mains[i] = dens[i] * gen_i``.  ``reducer`` is the kernel that
    reduces against the pairs whose lead lies in the module itself, not in
    a tail; it is built once, with the basis, and every division by the
    module runs on it.  The Fraction forms below are built on first read.
    """

    ring: VarSet
    rank: int
    pairs: tuple = field(repr=False)
    mains: tuple = field(repr=False)
    dens: tuple = field(repr=False)
    reducer: _Kernel = field(repr=False)

    @cached_property
    def elements(self) -> tuple:
        """The monic basis elements, least lead first."""
        rank = self.rank
        return tuple(
            _elem_of(self.ring, rank, {t: k for t, k in vec.items() if t[0] < rank},
                     vec[lead])
            for vec, lead in zip(self.reducer.basis, self.reducer.leads))

    @cached_property
    def syzygies(self) -> tuple:
        """Monic generators of all relations among the original generators."""
        rank = self.rank
        return tuple(
            _elem_of(self.ring, len(self.mains),
                     {(c - rank, e): k for (c, e), k in vec.items()}, vec[lead])
            for vec, lead in self.pairs if lead[0] >= rank)


def _tracked_gb(ring: VarSet, rank: int, gens: Sequence[ModuleElement],
                morder: ModuleOrder, budget: Budget | None) -> GroebnerBasis:
    budget = budget or Budget()
    key = _embedded_key(morder, rank)
    zero = ring.zero_exp()
    inputs = [_vec_of(g) for g in gens]
    mains = tuple(v for v, _ in inputs)
    dens = tuple(den for _, den in inputs)
    vecs = [{**v, (rank + i, zero): den} for i, (v, den) in enumerate(inputs)]
    pairs = tuple(_reduced_basis(key, vecs, budget, False))
    gb = GroebnerBasis(ring, rank, pairs, mains, dens,
                       _Kernel(key, False, [p for p in pairs if p[1][0] < rank]))

    # self-check: every basis vector re-expands from its tracking components
    # (an element from its representation, a syzygy to zero), and every
    # input generator reduces to zero against the basis (mutual membership
    # of the cached basis).
    for vec, lead in gb.pairs:
        if not _recombines(vec, rank, mains, dens):
            if lead[0] < rank:
                raise StructureError("internal: basis representation failed to re-expand")
            raise StructureError("internal: syzygy failed to expand to zero")
    for v in mains:
        rem = gb.reducer.reduce_full(dict(v), budget, main_rank=rank)[0]
        if any(t[0] < rank for t in rem):
            raise StructureError("internal: generator does not reduce to zero")
    return gb


def compute_gb(M: Submodule, budget: Budget | None = None) -> GroebnerBasis:
    """The cached reduced basis (with tracking) of a submodule."""
    if M._gb is None:
        M._gb = _tracked_gb(M.ring, M.rank, M.generators, M.order, budget)
    return M._gb


@dataclass
class Membership:
    """Result of dividing a vector by a submodule's basis."""

    coefficients: tuple | None
    remainder: ModuleElement

    @property
    def is_member(self) -> bool:
        return self.coefficients is not None


def _divide(v: ModuleElement, M: Submodule, budget: Budget | None = None) -> Membership:
    """Division of ``v`` by the tracked basis of ``M``: the normal form and,
    when it is zero, the coefficients read off the tracking components.
    The identity sum(c_i * gen_i) == v is not re-expanded here; every
    caller does that once (:func:`express`, ``lifting.LiftCertificate``).
    """
    if v.ring != M.ring:
        raise AmbientError("vector and module over different rings")
    if v.rank != M.rank:
        raise RankError(f"rank mismatch: {v.rank} vs {M.rank}")
    budget = budget or Budget()
    gb = compute_gb(M, budget)
    m = len(M.generators)
    work, den = _vec_of(v)
    rem_all, scale = gb.reducer.reduce_full(work, budget, main_rank=M.rank)
    den *= scale
    remainder = _elem_of(M.ring, M.rank,
                         {t: k for t, k in rem_all.items() if t[0] < M.rank}, den)
    if not remainder.is_zero:
        return Membership(None, remainder)
    coeffs = _elem_of(M.ring, m if m else 1,
                      {(t[0] - M.rank, t[1]): -k for t, k in rem_all.items()
                       if t[0] >= M.rank}, den)
    return Membership(tuple(coeffs.entries[:m]), remainder)


def express(v: ModuleElement, M: Submodule, budget: Budget | None = None) -> Membership:
    """Division with coefficient extraction against the original generators.

    On membership, returns coefficients c with sum(c_i * gen_i) == v, the
    identity re-verified by :func:`_recombines` on ``(v, c)`` as an integer
    vector before returning.  Otherwise the nonzero normal form is the
    certificate of polynomial non-membership.
    """
    membership = _divide(v, M, budget)
    if membership.is_member:
        gb = M._gb  # cached by _divide
        vec = _vec_of(ModuleElement(M.ring, v.entries + membership.coefficients))[0]
        if not _recombines(vec, M.rank, gb.mains, gb.dens):
            raise StructureError("internal: expressed coefficients failed to re-expand")
    return membership


def module_equal(M: Submodule, N: Submodule, budget: Budget | None = None) -> bool:
    """Two-sided membership of generators."""
    return all(express(g, N, budget).is_member for g in M.generators) and all(
        express(g, M, budget).is_member for g in N.generators
    )


def syzygy_module(gens: Sequence[ModuleElement], budget: Budget | None = None,
                  order: ModuleOrder | None = None) -> Submodule:
    """All relations sum(c_i * gens_i) = 0, each verified by exact expansion
    (:func:`_recombines`) before it is returned."""
    if not gens:
        raise RankError("syzygy computation needs at least one generator")
    ring = gens[0].ring
    rank = gens[0].rank
    for g in gens:
        if g.ring != ring:
            raise AmbientError("generators over different rings")
        if g.rank != rank:
            raise RankError("generators of unequal rank")
    morder = order or ModuleOrder(ring.default_order())
    gb = _tracked_gb(ring, rank, gens, morder, budget)
    return Submodule(ring, len(gens), gb.syzygies)


def module_intersect(M: Submodule, N: Submodule,
                     budget: Budget | None = None) -> Submodule:
    """Generators of the intersection: the reduced grevlex basis of the
    elements sum(b_i * m_i) = -sum(c_j * n_j) over the syzygies (b, c) of
    M's and N's generators together.  Every output generator is checked for
    membership in both inputs before being returned.

    No pipeline step calls it: the stable-unfolding pipeline reads its
    intersection off one syzygy computation (``lifting.restrictable_part``),
    and ``derlog.poly_lcm`` off the one syzygy of its two polynomials.
    """
    if M.ring != N.ring:
        raise AmbientError("modules over different rings")
    if M.rank != N.rank:
        raise RankError(f"rank mismatch: {M.rank} vs {N.rank}")
    ring = M.ring
    rank = M.rank
    if not M.generators or not N.generators:
        return Submodule(ring, rank, (), M.order)
    budget = budget or Budget()
    m = len(M.generators)
    syz = syzygy_module(M.generators + N.generators, budget, GREVLEX)
    gens_out = grevlex_basis(
        ring, rank,
        [combine(ring, rank, s.entries[:m], M.generators) for s in syz.generators],
        budget)
    for g in gens_out:
        if not express(g, M, budget).is_member or not express(g, N, budget).is_member:
            raise StructureError("internal: intersection output failed membership")
    return Submodule(ring, rank, gens_out, M.order)


def eliminate(I: Submodule, names: Sequence[str],
              budget: Budget | None = None) -> Submodule:
    """Generators of I intersected with the subring without ``names``.

    ``I`` must have rank 1; the result lives over the reduced variable set.
    """
    if I.rank != 1:
        raise RankError("elimination expects a rank-1 module (an ideal)")
    ring = I.ring
    elim_idx = [ring.index(n) for n in names]
    keep_idx = [i for i in range(len(ring)) if i not in elim_idx]
    perm = elim_idx + keep_idx
    kept_weights = None
    if ring.weights is not None:
        kept_weights = [ring.weights[i] for i in keep_idx]
    kept_ring = VarSet([ring.names[i] for i in keep_idx], kept_weights)
    nb = len(elim_idx)
    base = MonomialOrder.elimination(nb)
    key = ModuleOrder(base).heap_key

    def permute(e):
        return tuple(e[i] for i in perm)

    vecs = [{(0, permute(e)): k for (_, e), k in _vec_of(g)[0].items()}
            for g in I.generators]
    out = []
    for vec, lead in _reduced_basis(key, vecs, budget or Budget(), True):
        if all(not any(e[:nb]) for (_, e) in vec):
            kept = {(0, e[nb:]): k for (_, e), k in vec.items()}
            out.append(_elem_of(kept_ring, 1, kept, vec[lead]).entries[0])
    return Submodule.ideal(kept_ring, out)


def _element_sort_key(g: ModuleElement, morder: ModuleOrder):
    """Terms in descending order, each as (negated heap key, coefficient):
    negating flat keys of one length orders them like their terms."""
    terms = sorted((morder.heap_key(c, e), k)
                   for c, p in enumerate(g.entries) for e, k in p.terms.items())
    return tuple((tuple(-x for x in h), k) for h, k in terms)


def prune_module(M: Submodule, budget: Budget | None = None) -> Submodule:
    """Drop generators lying in the submodule of the others; canonical sort.

    Generators are sorted, and tried for dropping from the greatest down,
    by the ring's default order, so the output is the same under every
    working order ``M.order``; the drop tests and the final check only
    decide membership and run under ``M.order`` (grevlex for a
    ``membership_module``), which is also the working order of the
    returned module.

    One incremental Buchberger run takes the sorted generators one at a
    time.  It only appends and never changes a stored vector, so the first
    ``n_i`` basis vectors, those present before generator ``i`` went in,
    are a (not reduced) Groebner basis of the generators below ``i``.  The
    test of generator ``i`` extends a copy of that prefix by the
    generators kept above ``i``, which together generate the module of the
    others, and drops ``i`` when it reduces to zero.  Module equality with
    the input is verified by membership of every dropped generator in the
    pruned module; a kept one generates it, so when nothing is dropped no
    basis of the pruned module is built.
    """
    budget = budget or Budget()
    sort_order = ModuleOrder(M.ring.default_order())
    gens = [g for g in M.generators if not g.is_zero]
    gens.sort(key=lambda g: _element_sort_key(g, sort_order))
    vecs = [_vec_of(g)[0] for g in gens]

    kern = _Kernel(M.order.heap_key, M.rank == 1)
    sizes = []
    for v in vecs:
        sizes.append(len(kern.basis))
        kern.run([v], budget)
    above: list[int] = []  # indices of the generators kept, greatest first
    for i in reversed(range(len(vecs))):
        test = kern.prefix(sizes[i])
        test.run([vecs[j] for j in reversed(above)], budget)
        if test.reduce_full(dict(vecs[i]), budget)[0]:
            above.append(i)
    out = Submodule(M.ring, M.rank, [gens[i] for i in reversed(above)], M.order)
    kept = set(above)
    for i, g in enumerate(gens):
        if i not in kept and not express(g, out, budget).is_member:
            raise StructureError("internal: prune changed the module")
    return out
