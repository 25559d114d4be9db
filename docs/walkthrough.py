#!/usr/bin/env python3
"""A guided tour: certify a liftable field, run the unfolding pipeline, and
compare with the tangency module of the discriminant.

Run from a checkout as `PYTHONPATH=src python docs/walkthrough.py`, or as
`python docs/walkthrough.py` after `pip install -e .`; every step asserts
what it prints.
"""

from germlift import (
    MapGerm,
    Submodule,
    Unfolding,
    VarSet,
    VectorField,
    apply_to,
    derlog_tangent,
    discriminant,
    is_liftable,
    lift_from_unfolding,
    module_equal,
    parse_poly,
)

# The plane germ f(x, y) = (x^4 + xy, y) and its one-parameter stable
# unfolding F(x, y, z) = (x^4 + xy + z x^2, y, z).
srcf = VarSet(["x", "y"], weights=[1, 3])
tgtf = VarSet(["X", "Y"], weights=[4, 3])
srcF = VarSet(["x", "y", "z"], weights=[1, 3, 2])
tgtF = VarSet(["X", "Y", "Z"], weights=[4, 3, 2])

f = MapGerm(srcf, tgtf, [parse_poly("x^4 + y*x", srcf), parse_poly("y", srcf)])
F = MapGerm(srcF, tgtF, [parse_poly("x^4 + y*x + z*x^2", srcF),
                         parse_poly("y", srcF), parse_poly("z", srcF)])
U = Unfolding(F, ["z"], ["Z"], f)

# 1. A field on the unfolded target, certified liftable with a witness.
#    A vector field is a ModuleElement with one entry per coordinate;
#    VectorField builds one and checks the count.
eta = VectorField(tgtF, [parse_poly(s, tgtF) for s in ("4*X", "3*Y", "2*Z")])
res = is_liftable(F, eta)
assert res.certified
print("witness for the weighted Euler field:", res.certificate.xi)

# 2. The three generators of the unfolding's liftable fields.
rows = [
    ("4*X", "3*Y", "2*Z"),
    ("-9*Y^2 - 16*X*Z", "12*Y*Z", "48*X + 4*Z^2"),
    ("Y*Z", "-8*X - 2*Z^2", "6*Y"),
]
lift_F = Submodule(tgtF, 3, [
    VectorField(tgtF, [parse_poly(s, tgtF) for s in row]) for row in rows
])

# 3. Push them through the pipeline: keep the fields whose parameter
#    components vanish on the parameter zero section (the parameter
#    multiples of the generators, and their combinations by the syzygies of
#    the parameter components there), restrict, prune, certify.  The
#    pipeline returns each output generator's certificate with the module.
lift_f, certificates = lift_from_unfolding(U, lift_F)
print("liftable fields of the core germ, with their witnesses:")
for g, cert in zip(lift_f.generators, certificates):
    print("   ", g, "lifts to", cert.xi)

# 4. Same module, other route: tangency fields of the discriminant of f.
D = discriminant(f)
print("discriminant of f:", D.h)
T = derlog_tangent(D)
assert module_equal(lift_f, T.module)
print("pipeline output equals the tangency module of the discriminant.")

# 5. The unfolding's own discriminant is the quartic swallowtail section,
#    quasihomogeneous, so the weighted Euler field of step 1 is tangent
#    to it: eta(h) = (degree) * h.
DF = discriminant(F)
degree = DF.h.weighted_degrees()[0]
assert apply_to(eta, DF.h) == DF.h * degree
print("discriminant of F is quasihomogeneous of degree", degree,
      "and the Euler field is tangent to it")
