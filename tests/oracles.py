"""Independent oracles used to derive or cross-check expected test values.

Membership and intersection are decided by degree-bounded exact linear
algebra, derivatives by Newton forward differences of point evaluations,
normal forms by a plain rescan for the greatest term under the nested sort
keys of the orders, S-vectors by shifting exponent tuples, and reduced
bases by Buchberger's algorithm over ``Fraction`` with every S-pair and no
criteria; none of these touches the Groebner kernel.  The two exceptions check bookkeeping around the
kernel, not the kernel: ``prune_reference``, the direct prune (one reduced
basis per tested generator) that ``prune_module``'s incremental run
replaced, ``pair_update_reference``, the Gebauer-Moeller update on
decoded exponent tuples that ``_Kernel.add`` ran before it read packed
leads, and ``discriminant_reference``, the discriminant by elimination
of every source variable and the gcd loop, the construction that
``derlog.discriminant`` shortens or, for corank-1 germs, replaces by a
determinant.  Products and compositions of polynomials are made term by
term on plain dicts (``mul_terms``, ``compose_reference``), with no
shortcut for one-term factors or monomial images, and determinants by
cofactor expansion (``cofactor_determinant``), with no division.  These
deliberately slower paths stay independent of the code they check.
"""

from fractions import Fraction
from itertools import product
from math import gcd
from operator import add

from germlift.derlog import poly_gcd
from germlift.germs import jacobian
from germlift.groebner import (
    _element_sort_key,
    _Kernel,
    _module_key,
    _packer,
    _reduced_basis,
    _vec_of,
    eliminate,
)
from germlift.modules import ModuleElement, Submodule
from germlift.poly import (
    MonomialOrder,
    Polynomial,
    VarSet,
    exact_divide,
    exp_divides,
    integer_normalize,
    rering,
)


def exp_add(a, b):
    """The exponents of the product of two monomials."""
    return tuple(map(add, a, b))


def exp_lcm(a, b):
    """The exponents of the lcm of two monomials."""
    return tuple(x if x > y else y for x, y in zip(a, b))


def monomials_up_to(n_vars, max_deg):
    """All exponent tuples of total degree <= max_deg."""
    out = []
    for exps in product(range(max_deg + 1), repeat=n_vars):
        if sum(exps) <= max_deg:
            out.append(exps)
    return sorted(out)


def solve_exact(rows, rhs):
    """Solve rows * x = rhs over Q; returns one solution or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        pr = A[r]
        inv = Fraction(1) / pr[c]
        A[r] = [x * inv for x in pr]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if A[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = A[i][n]
    return x


def nullspace(rows, n_cols):
    """Basis of the kernel of the matrix over Q."""
    m = len(rows)
    A = [list(r) for r in rows]
    piv_of_col = {}
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, m) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = Fraction(1) / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_of_col[c] = r
        r += 1
        if r == m:
            break
    basis = []
    free = [c for c in range(n_cols) if c not in piv_of_col]
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for c, pr in piv_of_col.items():
            v[c] = -A[pr][fc]
        basis.append(v)
    return basis


def membership_bounded(v: ModuleElement, gens, max_deg):
    """Coefficients c_i of degree <= max_deg with sum(c_i g_i) = v, or None."""
    ring = v.ring
    monos = monomials_up_to(len(ring), max_deg)
    unknown_cols = []
    for g in gens:
        for e in monos:
            col = {}
            for comp, p in enumerate(g.entries):
                for pe, pc in p.terms.items():
                    key = (comp, tuple(a + b for a, b in zip(pe, e)))
                    col[key] = col.get(key, Fraction(0)) + pc
            unknown_cols.append(col)
    keys = set()
    for col in unknown_cols:
        keys.update(col)
    for comp, p in enumerate(v.entries):
        for pe in p.terms:
            keys.add((comp, pe))
    keys = sorted(keys)
    rows = [
        [col.get(k, Fraction(0)) for col in unknown_cols] for k in keys
    ]
    rhs = []
    for k in keys:
        comp, pe = k
        rhs.append(v.entries[comp].terms.get(pe, Fraction(0)))
    sol = solve_exact(rows, rhs)
    if sol is None:
        return None
    out = []
    idx = 0
    for _ in gens:
        terms = {}
        for e in monos:
            if sol[idx]:
                terms[e] = sol[idx]
            idx += 1
        out.append(Polynomial(ring, terms))
    return out


def intersection_bounded(gens_m, gens_n, max_deg):
    """Basis of the span of elements of <gens_m> ∩ <gens_n> whose coefficient
    degree is <= max_deg: exact kernel computation on stacked multiples."""
    ring = gens_m[0].ring
    rank = gens_m[0].rank
    monos = monomials_up_to(len(ring), max_deg)

    def columns(gens):
        cols = []
        for g in gens:
            for e in monos:
                col = {}
                for comp, p in enumerate(g.entries):
                    for pe, pc in p.terms.items():
                        key = (comp, tuple(a + b for a, b in zip(pe, e)))
                        col[key] = col.get(key, Fraction(0)) + pc
                cols.append(col)
        return cols

    cols_m = columns(gens_m)
    cols_n = columns(gens_n)
    keys = set()
    for col in cols_m + cols_n:
        keys.update(col)
    keys = sorted(keys)
    rows = [
        [col.get(k, Fraction(0)) for col in cols_m]
        + [-col.get(k, Fraction(0)) for col in cols_n]
        for k in keys
    ]
    combos = nullspace(rows, len(cols_m) + len(cols_n))
    out = []
    for combo in combos:
        acc = {}
        for j, c in enumerate(combo[: len(cols_m)]):
            if not c:
                continue
            for key, val in cols_m[j].items():
                acc[key] = acc.get(key, Fraction(0)) + c * val
        polys = [dict() for _ in range(rank)]
        for (comp, pe), val in acc.items():
            if val:
                polys[comp][pe] = val
        elem = ModuleElement(ring, [Polynomial(ring, t) for t in polys])
        if not elem.is_zero:
            out.append(elem)
    return out


def newton_derivative_at(p: Polynomial, var: str, point: dict) -> Fraction:
    """d p/d var at a rational point, from forward differences of exact
    evaluations; independent of the formal differentiation rule."""
    i = p.ring.index(var)
    d = max((e[i] for e in p.terms), default=0)
    base = dict(point)
    samples = []
    for j in range(d + 1):
        shifted = dict(base)
        shifted[var] = base[var] + j
        samples.append(p.evaluate(shifted))
    # forward differences at 0
    deltas = [samples]
    for _ in range(d):
        prev = deltas[-1]
        deltas.append([b - a for a, b in zip(prev, prev[1:])])
    total = Fraction(0)
    for j in range(1, d + 1):
        total += Fraction((-1) ** (j - 1), j) * deltas[j][0]
    return total


def random_poly(rng, ring: VarSet, max_deg=3, max_terms=4, coeff_bound=6,
                allow_zero=True) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in ring.names)
        if sum(e) > max_deg:
            e = tuple(0 for _ in ring.names)
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 3)
        if num:
            terms[e] = terms.get(e, Fraction(0)) + Fraction(num, den)
    return Polynomial(ring, terms)


def random_element(rng, ring: VarSet, rank, **kw) -> ModuleElement:
    return ModuleElement(ring, [random_poly(rng, ring, **kw) for _ in range(rank)])


def _grevlex(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def order_key(order, e):
    """Nested sort key of the MonomialOrder ``order``: the greater monomial
    has the greater key.  Written from the definitions of the orders, apart
    from ``MonomialOrder.heap_key``, which must reverse it."""
    if order.kind == "grevlex":
        return _grevlex(e)
    if order.kind == "wgrevlex":
        return (sum(w * x for w, x in zip(order.weights, e)), _grevlex(e))
    if order.kind == "lex":
        return e
    if order.kind == "block":
        return (_grevlex(tuple(e[i] for i in order.block)),
                _grevlex(tuple(x for i, x in enumerate(e) if i not in order.block)))
    raise ValueError(f"unknown order kind {order.kind!r}")


def module_order_key(order, c, e):
    """Nested sort key of the MonomialOrder ``order`` extended term over
    position on the term (c, e): the monomial, then the earlier component."""
    return (order_key(order, e), -c)


def embedded_order_key(order, main_rank):
    """Sort key (greater term, greater key) of the order that puts components
    below ``main_rank``, ordered by ``order``, above the trailing ones, which
    compare by grevlex and then by position."""
    tail = MonomialOrder.grevlex()

    def key(c, e):
        if c < main_rank:
            return (1, module_order_key(order, c, e))
        return (0, (order_key(tail, e), main_rank - c))

    return key


def normal_form_maxscan(basis, leads, key, work, budget, main_rank=None,
                        skip=None):
    """Complete normal form of the vector ``work`` ({(comp, exp): coeff})
    against ``basis`` with lead terms ``leads``: rescan for the greatest
    target term under ``key(comp, exp)`` at every step and reduce it by the
    first lead of its component that divides it, charging ``budget`` once
    per reduction.  Terms in components >= ``main_rank`` are not targets and
    pass to the remainder; ``skip`` excludes one basis index."""
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    rem = {}
    work = dict(work)
    while work:
        targets = [t for t in work if main_rank is None or t[0] < main_rank]
        if not targets:
            break
        t = max(targets, key=lambda u: key(*u))
        c, e = t
        coeff = work[t]
        hit = next((i for i, (lc, le) in enumerate(leads)
                    if i != skip and lc == c and divides(le, e)), None)
        if hit is None:
            rem[t] = work.pop(t)
            continue
        budget.charge_reduction()
        shift = tuple(x - y for x, y in zip(e, leads[hit][1]))
        q = coeff / basis[hit][leads[hit]]
        for (c2, e2), k2 in basis[hit].items():
            t2 = (c2, tuple(x + y for x, y in zip(e2, shift)))
            s = work.get(t2, Fraction(0)) - q * k2
            if s:
                work[t2] = s
            else:
                work.pop(t2, None)
    rem.update(work)
    return rem


class _Unbounded:
    """A budget for ``normal_form_maxscan`` that never runs out."""

    def charge_reduction(self):
        return None


def reduced_basis_reference(vecs, key):
    """The monic reduced Groebner basis, as a set of frozensets of
    ``((comp, exp), coeff)``, of the module that the vectors
    ({(comp, exp): Fraction}) generate under the term order with sort key
    ``key(comp, exp)`` (greater term, greater key): Buchberger's algorithm
    over Q with every S-pair of equal lead components and no criteria,
    normal forms by ``normal_form_maxscan``, then minimalization and tail
    reduction."""
    def lead(v):
        return max(v, key=lambda t: key(*t))

    def monic(v):
        lc = v[lead(v)]
        return {t: Fraction(k) / lc for t, k in v.items()}

    def nf(v, basis):
        return normal_form_maxscan(basis, [lead(b) for b in basis], key,
                                   {t: Fraction(k) for t, k in v.items()},
                                   _Unbounded())

    basis = []
    pairs = []
    todo = list(vecs)
    while todo or pairs:
        if todo:
            v = todo.pop(0)
        else:
            i, j = pairs.pop(0)
            (ci, ei), (cj, ej) = lead(basis[i]), lead(basis[j])
            if ci != cj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            v = {}
            for b, sign in ((basis[i], 1), (basis[j], -1)):
                shift = tuple(x - y for x, y in zip(lcm, lead(b)[1]))
                for (c, e), k in b.items():
                    t = (c, tuple(x + y for x, y in zip(e, shift)))
                    v[t] = v.get(t, Fraction(0)) + sign * k
            v = {t: k for t, k in v.items() if k}
        r = nf(v, basis)
        if r:
            pairs += [(i, len(basis)) for i in range(len(basis))]
            basis.append(monic(r))
    minimal = []
    for b in sorted(basis, key=lambda b: key(*lead(b))):
        c, e = lead(b)
        if not any(lead(o)[0] == c and all(x <= y for x, y in zip(lead(o)[1], e))
                   for o in minimal):
            minimal.append(b)
    return {frozenset(monic(nf(b, [o for o in minimal if o is not b])).items())
            for b in minimal}


def pair_update_reference(leads, pairs, use_product):
    """The Gebauer-Moeller update for the last of the leads ``leads``
    (decoded ``(comp, exp)`` tuples): ``pairs`` ({(i, j): lcm exponent}, the
    pending pairs among the earlier leads) loses the pairs that criterion B
    prunes, and gains and returns the new pairs ``(i, t)`` with their lcms,
    in index order, that criteria M and F and, with ``use_product``, the
    product criterion keep."""
    t = len(leads) - 1
    ct, et = leads[t]
    # criterion B: prune old pairs strictly covered by the new lead
    for (i, j), L in list(pairs.items()):
        if leads[i][0] == ct and exp_divides(et, L):
            if exp_lcm(leads[i][1], et) != L and exp_lcm(leads[j][1], et) != L:
                del pairs[(i, j)]
    cand = [i for i in range(t) if leads[i][0] == ct]
    lcms = {i: exp_lcm(leads[i][1], et) for i in cand}
    # criterion M: keep only the lcms that no other lcm properly divides
    keep = [i for i in cand
            if not any(lcms[j] != lcms[i] and exp_divides(lcms[j], lcms[i]) for j in cand)]
    # criterion F: one representative per lcm
    seen = set()
    new = {}
    for i in keep:
        L = lcms[i]
        if L in seen:
            continue
        seen.add(L)
        if use_product and L == exp_add(leads[i][1], et):
            continue
        new[(i, t)] = L
    pairs.update(new)
    return new


def spair_reference(vecs, leads, i, j):
    """The S-vector ``(c_j/d) x^{s_i} g_i - (c_i/d) x^{s_j} g_j`` of the
    integer vectors ``g_n = vecs[n]`` ({(comp, exp): int}) with leads
    ``leads[n]`` ((comp, exp)) in one component and lead coefficients
    ``c_n``, where ``d = gcd(c_i, c_j)`` and ``x^{s_n}`` is the lcm of the
    two lead monomials over that of lead ``n``, on exponent tuples."""
    ci, cj = vecs[i][leads[i]], vecs[j][leads[j]]
    d = gcd(ci, cj)
    lcm = exp_lcm(leads[i][1], leads[j][1])
    out = {}
    for n, f in ((i, cj // d), (j, -(ci // d))):
        shift = tuple(x - y for x, y in zip(lcm, leads[n][1]))
        for (c, e), k in vecs[n].items():
            t = (c, exp_add(e, shift))
            out[t] = out.get(t, 0) + f * k
    return {t: k for t, k in out.items() if k}


def prune_reference(M, budget):
    """The generators of the submodule ``M`` that ``prune_module`` keeps,
    found directly: sort the nonzero generators by the ring's default
    order, then, from the greatest down, build the reduced basis of the
    generators still kept other than this one and drop it when it reduces
    to zero against that basis.  Every basis is charged to ``budget``."""
    sort_order = M.ring.default_order()
    gens = [g for g in M.generators if not g.is_zero]
    gens.sort(key=lambda g: _element_sort_key(g, sort_order))
    packer = _packer(_module_key(M.order), M.rank, M.ring, gens)
    kept = list(range(len(gens)))
    for i in sorted(kept, key=lambda i: _element_sort_key(gens[i], sort_order),
                    reverse=True):
        others = [j for j in kept if j != i]
        if not others:
            continue
        plain = _reduced_basis(packer, [_vec_of(gens[j], packer)[0] for j in others],
                               budget)
        if not _Kernel(packer, plain).reduce_full(_vec_of(gens[i], packer)[0], budget)[0]:
            kept = others
    return [gens[j] for j in kept]


def cofactor_determinant(rows) -> Polynomial:
    """The determinant of a nonempty square matrix of polynomials, by
    cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = Polynomial.zero(rows[0][0].ring)
    for k, entry in enumerate(rows[0]):
        minor = cofactor_determinant([r[:k] + r[k + 1:] for r in rows[1:]])
        acc = acc + entry * minor if k % 2 == 0 else acc - entry * minor
    return acc


def discriminant_reference(f, budget=None) -> Polynomial:
    """The equation ``h`` that ``derlog.discriminant(f)`` returns, found
    from the whole graph ideal: eliminate every source variable from
    ``X_i - f_i`` and ``det(df)``, then divide the one generator by its gcd
    with all its partials (``poly_gcd``) and scale to coprime integers.
    Raises ``ValueError`` when the eliminated ideal is not principal."""
    big = VarSet(f.source.names + f.target.names)
    lift_src = {n: Polynomial.variable(big, n) for n in f.source.names}
    gens = [Polynomial.variable(big, name) - comp.substitute(lift_src, into=big)
            for name, comp in zip(f.target.names, f.components)]
    gens.append(cofactor_determinant(jacobian(f)).substitute(lift_src, into=big))
    polys = eliminate(Submodule.ideal(big, gens), f.source.names,
                      budget).ideal_generators()
    if len(polys) != 1:
        raise ValueError(f"eliminated ideal has {len(polys)} generators")
    h = g = rering(polys[0], f.target)
    for v in h.ring.names:
        if not h.diff(v).is_zero:
            g = poly_gcd(g, h.diff(v), budget)
    return integer_normalize(exact_divide(h, g))


def clean(p: Polynomial) -> bool:
    """Every coefficient is a nonzero Fraction and every exponent fits the
    ring: ``Polynomial._of`` checks nothing, so the routines that build
    term dicts themselves must build exactly that."""
    return all(isinstance(c, Fraction) and c and len(e) == len(p.ring)
               for e, c in p.terms.items())


def mul_terms(a: dict, b: dict) -> dict:
    """The product of two term dicts, every term product summed and the
    zero sums dropped at the end."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def compose_reference(p: Polynomial, images, ring: VarSet) -> Polynomial:
    """``p(images...)`` over ``ring``: each term's image is its coefficient
    times the product of ``e_i`` copies of ``images[i]``, multiplied one
    factor at a time by ``mul_terms``."""
    out = {}
    for e, c in p.terms.items():
        term = {(0,) * len(ring): c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = mul_terms(term, images[i].terms)
        for e2, c2 in term.items():
            out[e2] = out.get(e2, Fraction(0)) + c2
    return Polynomial(ring, out)


def compose_cached_reference(p: Polynomial, images, ring: VarSet, cache: dict,
                             budget=None) -> Polynomial:
    """``p(images...)`` over ``ring`` by the Fraction form of the cached
    composition: ``cache`` maps exponents to monomial images as
    polynomials, each power of ``images[i]`` is cached under its own
    exponent and built from the one below it when that is cached, else by
    ``Polynomial.power``, and the terms are summed in Fractions.  The clock
    of ``budget`` is read before each product, as ``poly.compose`` must
    read it."""
    acc = {}
    for e, c in p.terms.items():
        img = cache.get(e)
        if img is None:
            for i, k in enumerate(e):
                if not k:
                    continue
                unit = (0,) * i + (k,) + (0,) * (len(e) - i - 1)
                power = cache.get(unit)
                if power is None:
                    below = cache.get(unit[:i] + (k - 1,) + unit[i + 1:])
                    if k == 1:
                        power = images[i]
                    elif below is None:
                        power = images[i].power(k, budget)
                    else:
                        if budget is not None:
                            budget.check_clock()
                        power = below * images[i]
                    cache[unit] = power
                if img is None:
                    img = power
                else:
                    if budget is not None:
                        budget.check_clock()
                    img = img * power
            if img is None:
                img = Polynomial.const(ring, 1)
            cache[e] = img
        for e2, k in img.terms.items():
            acc[e2] = acc.get(e2, Fraction(0)) + c * k
    return Polynomial(ring, acc)
