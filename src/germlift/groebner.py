"""Buchberger kernel for submodules of free modules over Q[x_1..x_n].

One engine serves five needs:

* reduced Groebner bases (deterministic for a fixed monomial order),
* normal forms and membership with coefficient extraction (``_divide``);
  ``express`` re-verifies each returned identity, and
  ``lifting.is_liftable`` divides directly because its certificate
  re-expands the same identity through the same routine,
* syzygy modules, computed by embedding the generators alongside unit
  vectors and eliminating the leading block,
* submodule intersection, read off the syzygies of both generating sets
  together, and variable elimination via block orders, both finished by
  :func:`reduced_basis`,
* pruning a generating set (``prune_module``) with one incremental run
  whose basis prefixes answer every drop test.

The kernel runs fraction-free.  Its vectors are plain dicts mapping a
packed term (below) to an ``int``, and its basis vectors are primitive:
coefficients with gcd 1 and a positive lead coefficient.  Reduction is
pseudo-reduction (Becker-Weispfenning, *Groebner Bases*, 1993): the working
vector is scaled by an integer instead of dividing the reducer by its lead
coefficient, so every step cancels the same term as over Q and the kernel
makes the same reductions.  Fractions appear only at the boundary:
:func:`_vec_of` clears denominators when a vector enters, and
:func:`_elem_of` divides by a given integer (a lead coefficient, or in
:func:`_divide` the denominator times the reduction's scale) when it
leaves.

A term ``(c, e)`` is packed into one non-negative int (Monagan-Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007) by a :class:`_Packer`.  From the most significant end
the int holds the fields of the order's heap key (:func:`_module_key`
or :func:`_embedded_key`, least for the greatest term), each offset to be
non-negative, then the component, then the raw exponents, each under a
guard bit.  The packer reads this layout off the heap key by probing unit
exponents once per class of components, within which every key in use is
affine in the exponent (one class for a module order; the embedded order
declares a second, the tracking tails, which merges with the first when
its base is grevlex).  So the int of the greatest term is the least,
multiplying a term by ``x^s`` adds one constant per class, and every test
on leads reads their exponent fields as they are: ``a`` divides ``b``
when ``(b | guard) - a`` keeps every guard bit, the same subtraction
marks the fields of a fieldwise max, and a proper divisor is a smaller
int.  The fields are sized from the inputs' largest exponent with room to
grow.  Every product of a vector by a term (a reduction step, each half
of an S-vector, each tail term of a re-expansion) is formed by one
routine, :func:`_add_multiple`, which raises ``_Overflow`` before it adds
anything when a product would outgrow the fields, and :func:`_widening`
runs the whole computation again on wider fields, with the budget's
counters put back, so the width changes neither an answer nor a counter.
Terms are packed and unpacked only at the kernel's boundary.

Every module identity ``v == sum_i c_i * gen_i`` is verified once, in the
kernel's integers, by :func:`_recombines`: with the generators as
``main_i = den_i * gen_i``, kept split as the kernel keeps its basis
vectors, and ``D = lcm(den_i)``, the embedded vector ``(v, c)`` must
satisfy ``D * v == sum_i c_i * main_i * (D / den_i)``.  The tracked basis
checks every basis vector so (an element against its representation, a
syzygy against zero).  :func:`re_expands` packs any other identity and
checks it the same way: each membership :func:`express` returns, and each
``lifting.LiftCertificate``.  The callers of ``syzygy_module``
(``derlog``) rely on that check instead of expanding the syzygies again.

Every step above runs through one normal-form routine,
``_Kernel.reduce_full``.  Every term of the working vector sits in a heap
of packed ints (Monagan-Pearce), so each leading term is popped instead of
found by rescanning the vector.  Each lead carries a bitmask of the
variables it contains, on the guard bits; a lead whose mask is not within
the term's mask cannot divide it, so most divisibility tests end after one
integer operation (Bachmann-Schoenemann, 1998).  Interreduction needs one
sweep: once the basis is minimal its leads no longer change, and
reducibility depends on the leads alone.

A tracked basis builds its reducer, the kernel that only reduces against
its vectors led in the module's own components, once: its self-check
runs on it, and so does every later division by the module.  Each call
charges the budget it is given.

:class:`Budget` alone decides every limit: the kernel charges it each
reduction and each S-pair, and the charge raises :class:`GroebnerTimeout`
itself once a cap or the budget's deadline is passed.
"""

from __future__ import annotations

import copy
import heapq
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import add, lshift, mul, or_, sub
from typing import Callable, Sequence

from .errors import AmbientError, GroebnerTimeout, RankError, StructureError
from .modules import GREVLEX, ModuleElement, Submodule, combine
from .poly import MonomialOrder, Polynomial, VarSet, zero_section

Vec = dict  # {packed term: int}


@dataclass
class Budget:
    """Caps on kernel work, and the one place that enforces them.

    ``seconds`` limits wall-clock time; its clock starts when the budget is
    made, and ``None`` or ``inf`` sets no limit.  Each charge checks its
    cap and :meth:`check_clock` checks the deadline; a limit that is passed
    raises :class:`GroebnerTimeout` with :meth:`stats` attached.  The clock
    is read per S-pair, every 512 reductions, and wherever other work calls
    :meth:`check_clock` (``poly.determinant``, once per pivot,
    ``poly.exact_divide``, once per division, and ``poly.compose``, before
    each product for a monomial image).
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


class _Overflow(Exception):
    """A term would outgrow the packer's exponent fields; ``bits`` is a
    field width that holds it."""

    def __init__(self, bits: int):
        super().__init__(bits)
        self.bits = bits


class _Packer:
    """Packs terms ``(c, e)`` over ``ncomp`` components and ``nvars``
    variables into ints ordered like ``key(c, e)``, for exponents of at most
    ``cap = 2**bits - 1``.

    ``key`` must be affine in ``e`` on each class of components.  The key
    declares its classes: ``key.classes``, when set, holds the first
    component of each, and otherwise all components form one.  The key is
    probed at the zero exponent of every component and at the unit
    exponents of each class's first component; classes whose keys move
    alike are merged.  Then
    ``pack(c, e) = base[c] + sum(e_i * units[cls[c]][i])``, and each field
    of the key is offset and sized by its least and greatest value over all
    exponents up to ``cap``.
    """

    def __init__(self, key: Callable, ncomp: int, nvars: int, bits: int):
        self.ncomp = ncomp
        self.nvars = nvars
        consts = [key(c, (0,) * nvars) for c in range(ncomp)]
        # each key has one length on a component; shorter ones get zero fields
        self.width = width = max(map(len, consts))

        def padded(k):
            return k + (0,) * (width - len(k))

        self.consts = consts = [padded(k) for k in consts]
        starts = [c for c in getattr(key, "classes", (0,)) if c < ncomp] + [ncomp]
        # per class: field j's change per unit of variable i, at i * width + j
        self.slopes: list = []
        self.cls: list[int] = []
        for c, end in zip(starts, starts[1:]):
            moved = [padded(key(c, tuple(int(i == j) for j in range(nvars))))
                     for i in range(nvars)]
            s = tuple(map(sub, chain.from_iterable(moved), consts[c] * nvars))
            if s not in self.slopes:
                self.slopes.append(s)
            self.cls += [self.slopes.index(s)] * (end - c)
        self._lay_out(bits)

    def _lay_out(self, bits: int):
        """Place the fields for exponents of at most ``2**bits - 1``."""
        nvars, width, slopes = self.nvars, self.width, self.slopes
        self.bits = bits
        self.cap = cap = (1 << bits) - 1
        # each field's least and greatest value over exponents up to cap
        down = [[cap * sum(filter((0).__gt__, s[j::width])) for j in range(width)]
                for s in slopes]
        up = [[cap * sum(filter((0).__lt__, s[j::width])) for j in range(width)]
              for s in slopes]
        lo = [min(col) for col in zip(*[map(add, k0, down[k])
                                        for k0, k in zip(self.consts, self.cls)])]
        hi = [max(col) for col in zip(*[map(add, k0, up[k])
                                        for k0, k in zip(self.consts, self.cls)])]
        self.raw_pos = [i * (bits + 1) for i in range(nvars)]
        self.guard = sum(1 << (p + bits) for p in self.raw_pos)
        self.low = sum(cap << p for p in self.raw_pos)
        self.comp_pos = pos = nvars * (bits + 1)
        self.rawmask = (1 << pos) - 1
        self.comp_mask = (1 << (self.ncomp - 1).bit_length()) - 1
        pos += (self.ncomp - 1).bit_length()
        place = [0] * width
        for j in reversed(range(width)):
            place[j] = pos
            pos += (hi[j] - lo[j]).bit_length()
        offset = -sum(map(lshift, lo, place))
        self.base = [sum(map(lshift, k0, place)) + offset + (c << self.comp_pos)
                     for c, k0 in enumerate(self.consts)]
        self.units = [[sum(map(lshift, s[i * width:(i + 1) * width], place)) + (1 << r)
                       for i, r in enumerate(self.raw_pos)] for s in slopes]

    def widened(self, bits: int) -> "_Packer":
        """A packer for the same order with fields at least ``bits`` wide,
        and at least twice as wide as these, from the same probes of the key."""
        out = copy.copy(self)
        out._lay_out(max(2 * self.bits, bits))
        return out

    def pack(self, c: int, e) -> int:
        return self.base[c] + sum(map(mul, e, self.units[self.cls[c]]))

    def shift(self, cls: int, s: int) -> int:
        """What multiplying a term of class ``cls`` by ``x^e`` adds, where
        ``e`` is read off the exponent fields of ``s``."""
        cap = self.cap
        return sum([((s >> p) & cap) * u for p, u in zip(self.raw_pos, self.units[cls])])

    def comp(self, t: int) -> int:
        return (t >> self.comp_pos) & self.comp_mask

    def unpack(self, t: int) -> tuple:
        return self.comp(t), tuple([(t >> p) & self.cap for p in self.raw_pos])

    def support(self, t: int) -> int:
        """The guard bits of the nonzero exponent fields of ``t``."""
        return ((t & self.rawmask) + self.low) & self.guard

    def divides(self, a: int, b: int) -> bool:
        """Whether the exponent fields ``a`` divide ``b``: no field of
        ``(b | guard) - a`` borrows its guard bit."""
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        """The fieldwise greatest of the exponent fields ``a`` and ``b``;
        ``(a | guard) - b`` keeps the guard bit of each field where ``a``
        is at least ``b``."""
        ge = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (ge - (ge >> self.bits)))


def _packer(key: Callable, ncomp: int, ring: VarSet,
            elems: Sequence[ModuleElement]) -> _Packer:
    """A packer for ``key`` on ``ring`` whose fields hold four times the
    largest exponent in ``elems``, and at least 63."""
    top = max((x for g in elems for p in g.entries for e in p.terms for x in e), default=0)
    return _Packer(key, ncomp, len(ring), max(top, 15).bit_length() + 2)


def _widening(budget: Budget, packer: _Packer, attempt: Callable):
    """``attempt(packer)``, run again on wider fields for as long as it
    raises :class:`_Overflow`.  The budget's counters are put back before
    each new attempt: the steps up to the overflow are the same again, so
    they are counted once."""
    while True:
        saved = budget.reductions, budget.spairs, budget.zero_reductions
        try:
            return attempt(packer)
        except _Overflow as over:
            budget.reductions, budget.spairs, budget.zero_reductions = saved
            packer = packer.widened(over.bits)


def _vec_of(elem: ModuleElement, packer: _Packer) -> tuple[Vec, int]:
    """``(den * elem, den)`` packed, with ``den`` the lcm of elem's
    denominators, so that the vector has integer coefficients."""
    den = math.lcm(*(k.denominator for p in elem.entries for k in p.terms.values()))
    v: Vec = {}
    for c, p in enumerate(elem.entries):
        if not p.terms:
            continue
        top = max(map(max, p.terms)) if packer.nvars else 0
        if top > packer.cap:
            raise _Overflow(top.bit_length() + 2)
        base = packer.base[c]
        units = packer.units[packer.cls[c]]
        for e, k in p.terms.items():
            v[base + sum(map(mul, e, units))] = k.numerator * (den // k.denominator)
    return v, den


def _elem_of(ring: VarSet, rank: int, vec: Vec, den: int, packer: _Packer,
             first: int = 0) -> ModuleElement:
    """The element ``vec / den`` of components ``first`` to
    ``first + rank - 1``; terms of other components are left out."""
    polys = [dict() for _ in range(rank)]
    comp_pos, comp_mask = packer.comp_pos, packer.comp_mask
    cap, raw_pos = packer.cap, packer.raw_pos
    for t, k in vec.items():
        c = ((t >> comp_pos) & comp_mask) - first
        if 0 <= c < rank:
            polys[c][tuple([(t >> p) & cap for p in raw_pos])] = Fraction(k, den)
    return ModuleElement(ring, [Polynomial._of(ring, t) for t in polys])


def _primitive(vec: Vec, lead) -> Vec:
    """``vec`` divided by the gcd of its coefficients, signed so that the
    coefficient at ``lead`` is positive."""
    g = math.gcd(*vec.values())
    if vec[lead] < 0:
        g = -g
    if g == 1:
        return vec
    return {t: k // g for t, k in vec.items()}


def _split(vec: Vec, packer: _Packer) -> tuple:
    """``vec``'s terms grouped by shift class, ``[(cls, [(term, coeff)])]``,
    and ``top``, the bitwise or of their exponent fields: at least their
    greatest exponent in each variable."""
    if len(packer.slopes) == 1:
        groups = {0: list(vec.items())}
    else:
        comp_pos, comp_mask, cls = packer.comp_pos, packer.comp_mask, packer.cls
        groups = {}
        for t, k in vec.items():
            groups.setdefault(cls[(t >> comp_pos) & comp_mask], []).append((t, k))
    return list(groups.items()), reduce(or_, vec, 0) & packer.rawmask


def _add_multiple(out: Vec, f: int, split: tuple, step: int, own: int,
                  packer: _Packer, heap: list | None = None) -> None:
    """Add ``f * x^s * v`` into ``out``, for ``v`` split by :func:`_split`
    and ``step`` what ``x^s`` adds to a term of class ``own``: the exponent
    fields of ``step`` are those of ``s``, and a term of another class
    moves by the shift of the same exponent.  A product outgrows a field
    only if the fields of ``s`` added to ``top`` set a guard bit; then
    :class:`_Overflow` is raised before anything is added.  Each term new
    to ``out`` is pushed onto ``heap``, when one is given."""
    groups, top = split
    raw = step & packer.rawmask
    if (top + raw) & packer.guard:
        raise _Overflow(packer.bits + 1)
    for cls, items in groups:
        sh = step if cls == own else packer.shift(cls, raw)
        for u, k in items:
            u += sh
            v = out.get(u)
            if v is None:
                out[u] = f * k
                if heap is not None:
                    heapq.heappush(heap, u)
            else:
                v += f * k
                if v:
                    out[u] = v
                else:
                    del out[u]


class _Kernel:
    """One Buchberger run over packed terms.

    ``basis``, (primitive vector, packed lead) pairs of a finished basis,
    makes a kernel that only reduces; a term no lead divides, as in a
    component that holds no lead, passes to the remainder.  The product
    criterion, sound for ideals only, applies when the packer has one
    component.  The work of each call is charged to the ``Budget`` the
    call is given, so one kernel can serve many callers.

    Each basis vector is kept with its terms split once, when it is added,
    by :func:`_split`.  The leads are kept packed (``keys``) and nowhere
    decoded: the pair criteria, the S-pairs and minimalization read their
    exponent fields with the guard-bit tests of :meth:`_Packer.divides` and
    :meth:`_Packer.lcm`.  Each pending pair keeps the packed lcm of its
    leads, which orders the pair heap and, less either lead, is the shift
    of that lead's class.
    """

    def __init__(self, packer: _Packer, basis: Sequence[tuple[Vec, int]] = ()):
        self.packer = packer
        self.basis: list[Vec] = []
        self.keys: list[int] = []  # packed leads
        self.last = -1  # the greatest packed lead, the least lead in the order
        self.terms: list[tuple] = []  # each basis vector split by _split
        self.slots: dict = {}  # comp -> [(index, support mask, lead fields)]
        self.pairs: dict = {}  # (i, j) -> packed lcm of the leads
        self.heap: list = []
        for vec, lead in basis:
            self._append(vec, lead)

    def _slot(self, i: int):
        """File lead ``i`` under its component in ``slots``."""
        lead = self.keys[i]
        self.slots.setdefault(self.packer.comp(lead), []).append(
            (i, self.packer.support(lead), lead & self.packer.rawmask))

    def _append(self, vec: Vec, lead: int):
        self.basis.append(vec)
        self.keys.append(lead)
        self.last = max(self.last, lead)
        self.terms.append(_split(vec, self.packer))
        self._slot(len(self.keys) - 1)

    def prefix(self, n: int) -> "_Kernel":
        """A kernel holding the first ``n`` basis vectors.  When ``n`` is the
        basis size at the end of an earlier :meth:`run`, no pair was pending
        then, so the prefix is a Groebner basis of the vectors taken in up
        to that point."""
        out = _Kernel(self.packer)
        out.basis = self.basis[:n]
        out.keys = self.keys[:n]
        out.last = max(out.keys, default=-1)
        out.terms = self.terms[:n]
        for i in range(n):
            out._slot(i)
        return out

    def reduce_full(self, work: Vec, budget: Budget,
                    skip: int | None = None) -> tuple[Vec, int]:
        """Complete pseudo-normal form of the integer vector ``work`` against
        the current basis: ``(rem, scale)`` with ``rem / scale`` the normal
        form of ``work`` over Q and ``scale`` a positive integer.  ``skip``
        excludes one basis index (used during interreduction).

        Every term of ``work`` sits in a heap of packed ints, so each step
        pops the greatest remaining term.  A term is pushed when it enters
        ``work``; a popped term that has since cancelled is skipped.  A
        reduction step only adds terms below the term it removes, so a
        popped term never returns and the steps are those of a full rescan
        for the maximum.  Divisor candidates are the leads of the term's
        component, pre-filtered by support masks: lead ``l`` can divide
        ``t`` only if ``mask(l) & ~mask(t) == 0``; the guard-bit subtraction
        then decides.  A term no lead divides moves to the remainder.  A
        lead divides only terms at least as great, which are ints no greater
        than it, so once a popped term is a greater int than every lead
        (``last``), all of ``work`` moves to the remainder at once: on a
        tracked basis's reducer that is every tail term, which the embedded
        key puts after every main term.  The reducer times the quotient
        monomial is added by :func:`_add_multiple`, with ``t - lead`` added
        to each term of the lead's class.

        A term ``a`` against a lead coefficient ``L`` with ``d = gcd(a, L)``
        scales ``work`` by ``L/d`` (when that is not 1) and subtracts
        ``a/d`` times the shifted reducer.  Terms already moved to the
        remainder are brought up to the final scale once, at the end.
        """
        pk = self.packer
        guard = pk.guard
        rawmask = pk.rawmask
        low = pk.low
        comp_pos = pk.comp_pos
        comp_mask = pk.comp_mask
        cls_of = pk.cls
        keys = self.keys
        last = self.last
        terms = self.terms
        slots = self.slots
        rem: Vec = {}
        earlier: list = []  # (scale, remainder terms moved out at that scale)
        scale = 1
        heap = list(work)
        heapq.heapify(heap)
        pop = heapq.heappop
        while heap:
            t = pop(heap)
            if t > last:
                rem.update(work)
                break
            coeff = work.get(t)
            if coeff is None:
                continue
            c = (t >> comp_pos) & comp_mask
            hit = -1
            row = slots.get(c)
            if row:
                raw = t & rawmask
                outside = guard ^ ((raw + low) & guard)
                above = raw | guard
                for i, m, lead_raw in row:
                    if not m & outside and (above - lead_raw) & guard == guard \
                            and i != skip:
                        hit = i
                        break
            if hit < 0:
                rem[t] = coeff
                del work[t]
                continue
            budget.charge_reduction()
            lead = keys[hit]
            lc = self.basis[hit][lead]
            q = -coeff  # the negated quotient, so that the product is added
            if lc != 1:
                d = math.gcd(coeff, lc)
                m = lc // d
                if m != 1:
                    if rem:
                        earlier.append((scale, rem))
                        rem = {}
                    work = {u: k * m for u, k in work.items()}
                    scale *= m
                q = -(coeff // d)
            _add_multiple(work, q, terms[hit], t - lead, cls_of[c], pk, heap)
        for s, part in earlier:
            m = scale // s
            rem.update((u, k * m) for u, k in part.items())
        return rem, scale

    def add(self, vec: Vec):
        """Insert a (nonzero) vector, updating the pair set a la Gebauer-Moeller."""
        pk = self.packer
        rawmask = pk.rawmask
        lcm = pk.lcm
        keys = self.keys
        t = len(self.basis)
        lead = min(vec)
        self._append(_primitive(vec, lead), lead)
        ct = pk.comp(lead)
        et = lead & rawmask
        # criterion B: prune old pairs strictly covered by the new lead
        for (i, j), P in list(self.pairs.items()):
            L = P & rawmask
            if pk.comp(P) == ct and pk.divides(et, L):
                if lcm(keys[i] & rawmask, et) != L and lcm(keys[j] & rawmask, et) != L:
                    del self.pairs[(i, j)]
        # criteria M and F: one pair, the one of least index, per lcm that
        # no other lcm properly divides.  A proper divisor is a smaller int
        # and divisibility is transitive, so in ascending order each lcm is
        # tested against the lcms kept before it, an equal one included.
        own = pk.cls[ct]
        kept: list = []
        for L, i in sorted((lcm(e, et), i) for i, _, e in self.slots[ct][:-1]):
            if any(pk.divides(K, L) for K in kept):
                continue
            kept.append(L)
            # the product criterion is sound for ideals only
            if pk.ncomp == 1 and L == (keys[i] & rawmask) + et:
                continue
            # the lcm's fields are those of leads, so they hold it
            P = lead + pk.shift(own, L - et)
            self.pairs[(i, t)] = P
            # normal strategy: least lcm first, so the greatest packed lcm
            heapq.heappush(self.heap, (-P, i, t))

    def spair(self, i: int, j: int, lcm: int) -> Vec:
        """``(c_j/d) x^{s_i} g_i - (c_i/d) x^{s_j} g_j`` for lead coefficients
        ``c_i``, ``c_j`` with ``d = gcd(c_i, c_j)`` and the packed lcm
        ``lcm`` of the leads: a positive multiple of the S-vector of the
        monic forms.  In the leads' class ``x^{s_i}`` adds ``lcm`` less
        lead ``i``; its exponent fields are that difference's."""
        pk = self.packer
        keys = self.keys
        ki = self.basis[i][keys[i]]
        kj = self.basis[j][keys[j]]
        d = math.gcd(ki, kj)
        own = pk.cls[pk.comp(lcm)]
        out: Vec = {}
        _add_multiple(out, kj // d, self.terms[i], lcm - keys[i], own, pk)
        _add_multiple(out, -(ki // d), self.terms[j], lcm - keys[j], own, pk)
        return out

    def run(self, vecs: Sequence[Vec], budget: Budget):
        for v in vecs:
            if not v:
                continue
            r = self.reduce_full(dict(v), budget)[0]
            if r:
                self.add(r)
        while self.heap:
            neg_lcm, i, j = heapq.heappop(self.heap)
            if (i, j) not in self.pairs:
                continue
            del self.pairs[(i, j)]
            budget.charge_spair(len(self.basis))
            r = self.reduce_full(self.spair(i, j, -neg_lcm), budget)[0]
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
        so one sweep leaves every element reduced.  An element whose tail
        reduction takes no step (charges no reduction) keeps its vector and
        its split.
        """
        pk = self.packer
        keys = self.keys
        order = sorted(range(len(self.basis)), key=keys.__getitem__, reverse=True)
        # the minimal leads are those that no other lead divides: a lead
        # divided by one that is not minimal is divided by a minimal one
        minimal = [i for i in order
                   if not any(j != i and pk.divides(e, keys[i] & pk.rawmask)
                              for j, _, e in self.slots[pk.comp(keys[i])])]
        self.basis = [self.basis[i] for i in minimal]
        self.keys = [self.keys[i] for i in minimal]
        self.last = max(self.keys, default=-1)
        self.terms = [self.terms[i] for i in minimal]
        self.slots = {}
        for i in range(len(self.basis)):
            self._slot(i)
        for i in range(len(self.basis)):
            steps = budget.reductions
            rem = self.reduce_full(dict(self.basis[i]), budget, skip=i)[0]
            if budget.reductions != steps:
                self.basis[i] = vec = _primitive(rem, self.keys[i])
                self.terms[i] = _split(vec, pk)


def _module_key(order: MonomialOrder) -> Callable:
    """Heap key of ``order`` extended to terms ``(c, e)`` term over
    position: the monomial's key, then the component, so that of two equal
    monomials the one in the earlier component is greater.  Every module
    basis, sort and packer reads its order through this key."""
    mono = order.heap_key
    return lambda c, e: mono(e) + (c,)


def _embedded_key(order: MonomialOrder, rank: int):
    """Heap key of the order that embeds ``order`` on components below
    ``rank`` above trailing components ordered by grevlex, each term over
    position."""
    base = _module_key(order)
    tail = _module_key(GREVLEX)

    def key(c, e):
        if c < rank:
            return (-1,) + base(c, e)
        return (0,) + tail(c - rank, e)

    key.classes = (0, rank)  # the main components, then the tails
    return key


def _reduced_basis(packer: _Packer, vecs: Sequence[Vec],
                   budget: Budget) -> list[tuple[Vec, int]]:
    """The reduced basis of the packed integer vectors ``vecs`` as (primitive
    vector, packed lead) pairs, least lead first."""
    kern = _Kernel(packer)
    kern.run(vecs, budget)
    kern.interreduce(budget)
    return sorted(zip(kern.basis, kern.keys), key=lambda p: p[1], reverse=True)


def reduced_basis(ring: VarSet, rank: int, elems: Sequence[ModuleElement],
                  order: MonomialOrder, budget: Budget) -> list[ModuleElement]:
    """The reduced basis under ``order`` (term over position) of the module
    that ``elems`` generate, least lead first, without tracking."""
    def attempt(packer):
        pairs = _reduced_basis(packer, [_vec_of(g, packer)[0] for g in elems], budget)
        return [_elem_of(ring, rank, vec, vec[lead], packer) for vec, lead in pairs]

    return _widening(budget, _packer(_module_key(order), rank, ring, elems), attempt)


def _recombines(vec: Vec, rank: int, gens: Sequence[tuple], dens: Sequence[int],
                packer: _Packer) -> bool:
    """Whether the embedded vector ``vec`` re-expands exactly: its part in
    components below ``rank`` equals ``sum_i tail_i * gen_i``, where
    ``tail_i`` is its component ``rank + i`` and ``gens[i]`` is the integer
    vector ``dens[i] * gen_i`` (:func:`_vec_of`) split by :func:`_split`.

    Both sides are multiplied by ``D = lcm(dens)``: starting from ``-D``
    times the main part, :func:`_add_multiple` adds each product
    ``tail_i * gens[i] * (D / dens[i])`` into one int dict, and the
    identity holds when nothing is left.  No ``Fraction`` is built.  The
    components below ``rank`` share one shift class, as a module order's
    key moves with the exponent alike in every component.
    """
    D = math.lcm(*dens)
    main = packer.cls[0]
    comp = packer.comp
    acc: Vec = {t: -D * k for t, k in vec.items() if comp(t) < rank}
    for t, k in vec.items():
        i = comp(t) - rank
        if i >= 0:
            _add_multiple(acc, k * (D // dens[i]), gens[i], packer.shift(main, t), main,
                          packer)
    return not acc


def re_expands(v: ModuleElement, coeffs: Sequence[Polynomial], M: Submodule,
               budget: Budget | None = None) -> bool:
    """Whether ``v == sum_i coeffs_i * gen_i`` over the generators of ``M``,
    checked by :func:`_recombines` on ``(v, coeffs)`` packed as one embedded
    vector.  The packer is that of ``M``'s cached basis when it has one, and
    otherwise one sized from the identity; a product that outgrows its
    fields is redone on wider ones (:func:`_widening`)."""
    gens = M.generators
    whole = ModuleElement(M.ring, v.entries + tuple(coeffs))

    def attempt(packer):
        inputs = [_vec_of(g, packer) for g in gens]
        return _recombines(_vec_of(whole, packer)[0], M.rank,
                           [_split(vec, packer) for vec, _ in inputs],
                           [den for _, den in inputs], packer)

    packer = M._gb.packer if M._gb is not None else _packer(
        _embedded_key(M.order, M.rank), M.rank + len(gens), M.ring, [whole, *gens])
    return _widening(budget or Budget(), packer, attempt)


@dataclass
class GroebnerBasis:
    """Reduced basis of a submodule plus tracking data.

    ``pairs`` is the reduced basis of the embedded order, least lead first,
    as (primitive integer vector, lead) pairs of terms packed by
    ``packer``, whose components past ``rank`` are one per original
    generator: each vector carries its representation in the generators
    there.  ``reducer`` is the kernel that reduces against the pairs whose
    lead lies in the module itself, not in a tail, so every tail term
    passes to the remainder; it is built with the basis, and every division
    by the module runs on it.  A division whose terms outgrow the packer's
    fields moves the pairs to a wider packer (:meth:`use`).  The Fraction
    forms below are built on first read.
    """

    ring: VarSet
    rank: int
    packer: _Packer = field(repr=False)
    pairs: tuple = field(repr=False)
    reducer: _Kernel = field(init=False, repr=False)

    def __post_init__(self):
        self.reducer = _Kernel(self.packer, [p for p in self.pairs
                                             if self.packer.comp(p[1]) < self.rank])

    def use(self, packer: _Packer) -> None:
        """Repack the pairs, and rebuild the reducer, by ``packer``."""
        old = self.packer
        if packer is old:
            return
        self.pairs = tuple(({packer.pack(*old.unpack(t)): k for t, k in vec.items()},
                            packer.pack(*old.unpack(lead))) for vec, lead in self.pairs)
        self.packer = packer
        self.__post_init__()

    @cached_property
    def elements(self) -> tuple:
        """The monic basis elements, least lead first."""
        return tuple(_elem_of(self.ring, self.rank, vec, vec[lead], self.packer)
                     for vec, lead in zip(self.reducer.basis, self.reducer.keys))

    @cached_property
    def syzygies(self) -> tuple:
        """Monic generators of all relations among the original generators."""
        rank, packer = self.rank, self.packer
        return tuple(
            _elem_of(self.ring, packer.ncomp - rank, vec, vec[lead], packer, rank)
            for vec, lead in self.pairs if packer.comp(lead) >= rank)


def _tracked_gb(ring: VarSet, rank: int, gens: Sequence[ModuleElement],
                order: MonomialOrder, budget: Budget | None) -> GroebnerBasis:
    budget = budget or Budget()
    zero = ring.zero_exp()

    def attempt(packer):
        inputs = [_vec_of(g, packer) for g in gens]
        split = [_split(v, packer) for v, _ in inputs]
        dens = [den for _, den in inputs]
        vecs = [{**v, packer.pack(rank + i, zero): den} for i, (v, den) in enumerate(inputs)]
        gb = GroebnerBasis(ring, rank, packer, tuple(_reduced_basis(packer, vecs, budget)))

        # self-check: every basis vector re-expands from its tracking
        # components (an element from its representation, a syzygy to
        # zero), and every input generator reduces to zero against the
        # basis (mutual membership of the cached basis).
        for vec, lead in gb.pairs:
            if not _recombines(vec, rank, split, dens, packer):
                if packer.comp(lead) < rank:
                    raise StructureError("internal: basis representation failed to re-expand")
                raise StructureError("internal: syzygy failed to expand to zero")
        for v, _ in inputs:
            rem = gb.reducer.reduce_full(dict(v), budget)[0]
            if any(packer.comp(t) < rank for t in rem):
                raise StructureError("internal: generator does not reduce to zero")
        return gb

    return _widening(budget, _packer(_embedded_key(order, rank), rank + len(gens), ring,
                                     gens), attempt)


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
    caller does that once, by :func:`re_expands`.
    """
    if v.ring != M.ring:
        raise AmbientError("vector and module over different rings")
    if v.rank != M.rank:
        raise RankError(f"rank mismatch: {v.rank} vs {M.rank}")
    budget = budget or Budget()
    gb = compute_gb(M, budget)
    m = len(M.generators)

    def attempt(packer):
        gb.use(packer)
        work, den = _vec_of(v, packer)
        return gb.reducer.reduce_full(work, budget), den

    (rem_all, scale), den = _widening(budget, gb.packer, attempt)
    den *= scale
    remainder = _elem_of(M.ring, M.rank, rem_all, den, gb.packer)
    if not remainder.is_zero:
        return Membership(None, remainder)
    coeffs = _elem_of(M.ring, m, {t: -k for t, k in rem_all.items()}, den, gb.packer, M.rank)
    return Membership(coeffs.entries, remainder)


def express(v: ModuleElement, M: Submodule, budget: Budget | None = None) -> Membership:
    """Division with coefficient extraction against the original generators.

    On membership, returns coefficients c with sum(c_i * gen_i) == v, the
    identity re-verified by :func:`re_expands` before returning.  Otherwise
    the nonzero normal form is the certificate of polynomial non-membership.
    """
    membership = _divide(v, M, budget)
    if membership.is_member and not re_expands(v, membership.coefficients, M, budget):
        raise StructureError("internal: expressed coefficients failed to re-expand")
    return membership


def module_equal(M: Submodule, N: Submodule, budget: Budget | None = None) -> bool:
    """Two-sided membership of generators."""
    return all(express(g, N, budget).is_member for g in M.generators) and all(
        express(g, M, budget).is_member for g in N.generators
    )


def syzygy_module(gens: Sequence[ModuleElement], budget: Budget | None = None,
                  order: MonomialOrder | None = None) -> Submodule:
    """All relations sum(c_i * gens_i) = 0, each verified by exact expansion
    (:func:`_recombines`) before it is returned."""
    if not gens:
        raise RankError("syzygy computation needs at least one generator")
    # the generators' module checks their ring, their rank and the order
    M = Submodule(gens[0].ring, gens[0].rank, gens, order)
    gb = _tracked_gb(M.ring, M.rank, M.generators, M.order, budget)
    return Submodule(M.ring, len(gens), gb.syzygies)


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
    gens_out = reduced_basis(
        ring, rank,
        [combine(ring, rank, s.entries[:m], M.generators) for s in syz.generators],
        GREVLEX, budget)
    for g in gens_out:
        if not express(g, M, budget).is_member or not express(g, N, budget).is_member:
            raise StructureError("internal: intersection output failed membership")
    return Submodule(ring, rank, gens_out, M.order)


def eliminate(I: Submodule, names: Sequence[str],
              budget: Budget | None = None) -> Submodule:
    """Generators of I intersected with the subring without ``names``.

    ``I`` must have rank 1.  The block order eliminating ``names`` runs on
    ``I``'s own ring; each basis element free of them moves onto the ring of
    the other variables, in order and with their weights (``zero_section``).
    """
    if I.rank != 1:
        raise RankError("elimination expects a rank-1 module (an ideal)")
    ring = I.ring
    elim = [ring.index(n) for n in names]
    kept_ring = VarSet([n for i, n in enumerate(ring.names) if i not in elim],
                       None if ring.weights is None else
                       [w for i, w in enumerate(ring.weights) if i not in elim])
    out = []
    for g in reduced_basis(ring, 1, I.generators, MonomialOrder.elimination(elim),
                           budget or Budget()):
        p = g.entries[0]
        if not any(e[i] for e in p.terms for i in elim):
            out.append(zero_section(p, names, kept_ring))
    return Submodule.ideal(kept_ring, out)


def _element_sort_key(g: ModuleElement, order: MonomialOrder):
    """Terms in descending order under ``order`` (term over position), each
    as (negated heap key, coefficient): negating flat keys of one length
    orders them like their terms."""
    key = _module_key(order)
    terms = sorted((key(c, e), k)
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
    are a (not reduced) Groebner basis of the generators below ``i``.  A
    generator that the run reduced to zero, so that the basis did not
    grow, lies in the span of the generators below it and is dropped with
    no further test.  The test of any other generator ``i`` extends a copy
    of that prefix by the generators kept above ``i``, which together
    generate the module of the others, and drops ``i`` when it reduces to
    zero.  Module equality with the input is verified by membership of
    every dropped generator in the pruned module; a kept one generates it,
    so when nothing is dropped no basis of the pruned module is built.
    """
    budget = budget or Budget()
    sort_order = M.ring.default_order()
    gens = [g for g in M.generators if not g.is_zero]
    gens.sort(key=lambda g: _element_sort_key(g, sort_order))

    def attempt(packer):
        vecs = [_vec_of(g, packer)[0] for g in gens]
        kern = _Kernel(packer)
        sizes = [0]  # basis size before generator i, then after the last
        for v in vecs:
            kern.run([v], budget)
            sizes.append(len(kern.basis))
        above: list[int] = []  # indices of the generators kept, greatest first
        for i in reversed(range(len(vecs))):
            if sizes[i + 1] == sizes[i]:
                continue  # it reduced to zero against the generators below it
            test = kern.prefix(sizes[i])
            test.run([vecs[j] for j in reversed(above)], budget)
            if test.reduce_full(dict(vecs[i]), budget)[0]:
                above.append(i)
        return above

    above = _widening(budget, _packer(_module_key(M.order), M.rank, M.ring, gens), attempt)
    out = Submodule(M.ring, M.rank, [gens[i] for i in reversed(above)], M.order)
    kept = set(above)
    for i, g in enumerate(gens):
        if i not in kept and not express(g, out, budget).is_member:
            raise StructureError("internal: prune changed the module")
    return out
