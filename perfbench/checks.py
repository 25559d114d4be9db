"""Correctness checks made apart from germlift.

Nothing here calls germlift.  Results arrive as printed polynomials.
Identities are checked by exact evaluation at seeded rational points, with
this file's own parser and Fraction arithmetic; the discriminant,
divisibility and determinant checks parse the printed text with sympy.  No check
compares against a stored copy of germlift's output.

A polynomial is a dict mapping exponent tuples to Fractions; a point is a
tuple of Fractions, one per variable.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

ZERO = Fraction(0)


# -- own exact arithmetic ----------------------------------------------------


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, ZERO) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def derivative(p: dict, i: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def evaluate(p: dict, point) -> Fraction:
    total = ZERO
    for e, c in p.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x**k
        total += v
    return total


def rank(rows) -> int:
    """Rank of a matrix of Fractions by Gaussian elimination."""
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def random_points(rng: random.Random, nvars: int, count: int = 2):
    """Points with nonzero coordinates, so that no monomial vanishes."""
    return [
        tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(1, 29))
              for _ in range(nvars))
        for _ in range(count)
    ]


# -- parsing printed polynomials ------------------------------------------------


def terms_of(text: str, names) -> dict:
    """A printed sum of monomials, such as '3/2*x^2*y - z + 1', as a dict.

    This is the form germlift's printer and the fixture tables use; anything
    else raises ValueError.
    """
    index = {n: i for i, n in enumerate(names)}
    out: dict = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text.replace(" ", "")):
        coeff = Fraction(-1 if sign == "-" else 1)
        exp = [0] * len(names)
        for factor in body.split("*"):
            base, _, power = factor.partition("^")
            k = int(power) if power else 1
            if base in index:
                exp[index[base]] += k
            else:
                coeff *= Fraction(base) ** k
        out = poly_add(out, {tuple(exp): coeff} if coeff else {})
    return out


def _symbols(names):
    import sympy

    return [sympy.Symbol(n) for n in names]


def sym(text: str, names):
    """A printed polynomial as a sympy expression over the named symbols."""
    import sympy

    return sympy.sympify(text.replace("^", "**"),
                         locals={s.name: s for s in _symbols(names)})


def split_field(text: str) -> list[str]:
    """'(p1, p2, p3)' -> ['p1', 'p2', 'p3']; printed terms never hold ', '."""
    return text.strip()[1:-1].split(", ")


# -- germs and liftability -------------------------------------------------------


class Germ:
    """A polynomial map from its printed components."""

    def __init__(self, source, target, components):
        self.source = tuple(source)
        self.target = tuple(target)
        self.f = [terms_of(c, self.source) for c in components]
        self.jac = [[derivative(fi, j) for j in range(len(self.source))]
                    for fi in self.f]

    def df0(self):
        """The linear part of the map at the origin, one row per target."""
        n = len(self.source)
        units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        return [[fi.get(u, ZERO) for u in units] for fi in self.f]


def identity_errors(germ: Germ, xi: list[dict], eta: list[dict], points) -> list[str]:
    """df(xi) = eta o f at each point; xi over the source, eta over the target."""
    for P in points:
        fP = [evaluate(fi, P) for fi in germ.f]
        xiP = [evaluate(x, P) for x in xi]
        for i, row in enumerate(germ.jac):
            lhs = sum((evaluate(d, P) * x for d, x in zip(row, xiP)), ZERO)
            if lhs != evaluate(eta[i], fP):
                return [f"df(xi) != eta o f in component {i} at {P}"]
    return []


def outside_image(germ: Germ, value) -> bool:
    """True when the vector ``value`` is not in the image of df(0)."""
    d = germ.df0()
    augmented = [row + [v] for row, v in zip(d, value)]
    return rank(augmented) > rank(d)


def lift_query_errors(germ: Germ, eta: list[dict], liftable: bool,
                      result: dict, points) -> list[str]:
    """A query is certified exactly when it was built liftable; a witness
    satisfies the lifting identity; an obstructed query's value at the
    origin lies outside the image of df(0)."""
    if result.get("certified") != liftable:
        return [f"built {'liftable' if liftable else 'obstructed'}, "
                f"reported certified={result.get('certified')}"]
    if liftable:
        xi = [terms_of(t, germ.source) for t in result["witness"]]
        return identity_errors(germ, xi, eta, points)
    origin = tuple(0 for _ in germ.target)
    if not outside_image(germ, [p.get(origin, ZERO) for p in eta]):
        return ["obstructed query has eta(0) inside the image of df(0)"]
    return []


def combination_errors(coeffs: list[str], gens: list[list[str]], want: list[str],
                       names, points) -> list[str]:
    """sum(coeffs[i] * gens[i]) == want at each point (a membership identity)."""
    cs = [terms_of(c, names) for c in coeffs]
    gs = [[terms_of(t, names) for t in g] for g in gens]
    ws = [terms_of(t, names) for t in want]
    for P in points:
        cP = [evaluate(c, P) for c in cs]
        for i, w in enumerate(ws):
            got = sum((c * evaluate(g[i], P) for c, g in zip(cP, gs)), ZERO)
            if got != evaluate(w, P):
                return [f"membership coefficients fail in component {i} at {P}"]
    return []


# -- discriminants and logarithmic fields ------------------------------------------


def discriminant_errors(defining: str, names, h_text: str) -> list[str]:
    """h is sympy's discriminant in x of the defining polynomial, up to a
    nonzero rational scalar."""
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.sympify(defining, locals={s.name: s for s in _symbols(names) + [x]})
    disc = sympy.discriminant(expr, x)
    ratio = sympy.cancel(disc / sym(h_text, names))
    if not (ratio.is_Rational and ratio != 0):
        return [f"discriminant differs from sympy's (ratio {ratio})"]
    return []


def _apply(field: list[str], h, names):
    import sympy

    return sympy.expand(sum(sym(a, names) * sympy.diff(h, s)
                            for a, s in zip(field, _symbols(names))))


def tangent_errors(fields: list[list[str]], quotients: list[str], names,
                   h_text: str) -> list[str]:
    """eta(h) = q*h with q the reported quotient, by sympy division."""
    import sympy

    h = sym(h_text, names)
    for i, (field, q_text) in enumerate(zip(fields, quotients)):
        q, r = sympy.div(_apply(field, h, names), h, *_symbols(names))
        if r != 0:
            return [f"tangent generator {i}: eta(h) not in <h>"]
        if sympy.expand(q - sym(q_text, names)) != 0:
            return [f"tangent generator {i}: quotient differs from eta(h)/h"]
    return []


def strict_errors(fields: list[list[str]], names, h_text: str) -> list[str]:
    h = sym(h_text, names)
    for i, field in enumerate(fields):
        if _apply(field, h, names) != 0:
            return [f"strict generator {i}: eta(h) != 0"]
    return []


def saito_errors(fields: list[list[str]], names, h_text: str) -> list[str]:
    """Saito's criterion: p tangent fields whose determinant is a nonzero
    constant times h generate the whole module."""
    import sympy

    p = len(names)
    if len(fields) != p or any(len(f) != p for f in fields):
        return [f"Saito: need {p} generators of rank {p}, got {len(fields)}"]
    det = sympy.Matrix([[sym(a, names) for a in f] for f in fields]).det()
    ratio = sympy.cancel(sympy.expand(det) / sym(h_text, names))
    if not (ratio.is_Rational and ratio != 0):
        return [f"Saito: det is not a nonzero constant times h ({ratio})"]
    return []
