import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlift.derlog import (
    Divisor,
    augment_field,
    augment_field_div,
    descend_field,
    tangency_quotient,
)
from germlift.errors import AmbientError, InverseCheckFailed, RankError, StructureError
from germlift.exprio import parse_poly
from germlift.germs import (
    MapGerm,
    Unfolding,
    VectorField,
    apply_to,
    jacobian,
    push_forward,
    tf_generators,
    wf_apply,
)
from germlift.lifting import LiftCertificate, is_liftable, restrict_field
from germlift.modules import ModuleElement
from germlift.poly import Polynomial, VarSet, determinant

from oracles import random_poly


def _map(src_vars, tgt_vars, comps, src_w=None, tgt_w=None):
    src = VarSet(src_vars, src_w)
    tgt = VarSet(tgt_vars, tgt_w)
    return MapGerm(src, tgt, [parse_poly(c, src) for c in comps])


def test_germ_must_fix_origin():
    with pytest.raises(StructureError):
        _map(["x"], ["X"], ["x + 1"])


def test_jacobian_H2():
    H2 = _map(["x", "y"], ["X", "Y", "Z"], ["x", "y^3", "y^5 + x*y"])
    J = jacobian(H2)
    R = H2.source
    assert J == [
        [parse_poly("1", R), parse_poly("0", R)],
        [parse_poly("0", R), parse_poly("3*y^2", R)],
        [parse_poly("y", R), parse_poly("5*y^4 + x", R)],
    ]


def test_jacobian_identity():
    f = _map(["x", "y"], ["X", "Y"], ["x", "y"])
    J = jacobian(f)
    R = f.source
    assert J == [[parse_poly("1", R), parse_poly("0", R)],
                 [parse_poly("0", R), parse_poly("1", R)]]


def test_jacobian_quartic_family():
    F = _map(["x", "y", "z"], ["X", "Y", "Z"], ["x^4 + y*x + z*x^2", "y", "z"])
    J = jacobian(F)
    R = F.source
    assert J[0] == [parse_poly("4*x^3 + y + 2*z*x", R), parse_poly("x", R),
                    parse_poly("x^2", R)]
    assert J[1] == [parse_poly("0", R), parse_poly("1", R), parse_poly("0", R)]
    assert J[2] == [parse_poly("0", R), parse_poly("0", R), parse_poly("1", R)]


def test_tf_generators_fold():
    f = _map(["x"], ["X"], ["x^2"])
    M = tf_generators(f)
    assert [str(g) for g in M.generators] == ["(2*x)"]


def test_tf_generators_H2_columns():
    H2 = _map(["x", "y"], ["X", "Y", "Z"], ["x", "y^3", "y^5 + x*y"])
    M = tf_generators(H2)
    assert [str(g) for g in M.generators] == ["(1, 0, y)", "(0, 3*y^2, 5*y^4 + x)"]


def test_tf_generators_immersion():
    f = _map(["x"], ["X", "Y"], ["x", "0"])
    assert [str(g) for g in tf_generators(f).generators] == ["(1, 0)"]


def test_wf_euler_on_quartic():
    F = _map(["x", "y", "z"], ["X", "Y", "Z"], ["x^4 + y*x + z*x^2", "y", "z"])
    eta = VectorField(F.target, [parse_poly(t, F.target) for t in
                                 ("4*X", "3*Y", "2*Z")])
    got = wf_apply(eta, F)
    R = F.source
    assert got == ModuleElement(R, [parse_poly("4*x^4 + 4*y*x + 4*z*x^2", R),
                                    parse_poly("3*y", R), parse_poly("2*z", R)])


def test_wf_constant_field(xy):
    f = _map(["x", "y"], ["X", "Y"], ["x*y", "y"])
    eta = VectorField(f.target, [parse_poly("7", f.target),
                                 parse_poly("1/2", f.target)])
    got = wf_apply(eta, f)
    assert [str(p) for p in got.entries] == ["7", "1/2"]


def test_wf_fold_unfolding_direction():
    g = _map(["x", "lam"], ["X", "Lam"], ["x", "lam^2"])
    eta = VectorField(g.target, [parse_poly("0", g.target),
                                 parse_poly("Lam", g.target)])
    got = wf_apply(eta, g)
    assert [str(p) for p in got.entries] == ["0", "lam^2"]


def _tgt5():
    return VarSet(["U1", "V1", "V2", "W1", "W2"])


def _field5(ring, *texts):
    return VectorField(ring, [parse_poly(t, ring) for t in texts])


def test_transport_eta_e_by_G2():
    R = _tgt5()
    G2 = MapGerm(R, R, [parse_poly(t, R) for t in
                        ("U1", "V1", "V2 - W1", "W1", "W2")])
    G2i = MapGerm(R, R, [parse_poly(t, R) for t in
                         ("U1", "V1", "V2 + W1", "W1", "W2")])
    eta_e = _field5(R, "2*U1", "2*V1", "V2", "3*W1", "3*W2")
    got = push_forward(eta_e, G2, G2i)
    assert got == _field5(R, "2*U1", "2*V1", "V2 - 2*W1", "3*W1", "3*W2")


def test_transport_by_identity():
    R = _tgt5()
    ident = MapGerm(R, R, [parse_poly(n, R) for n in R.names])
    eta = _field5(R, "U1^2", "V1", "0", "W1*W2", "3")
    assert push_forward(eta, ident, ident) == eta


def test_transport_bijective_and_linear():
    R = _tgt5()
    G2 = MapGerm(R, R, [parse_poly(t, R) for t in
                        ("U1", "V1", "V2 - W1", "W1", "W2")])
    G2i = MapGerm(R, R, [parse_poly(t, R) for t in
                         ("U1", "V1", "V2 + W1", "W1", "W2")])
    rng = random.Random(3)
    inv_map = dict(zip(G2i.target.names, G2i.components))
    for _ in range(25):
        e1 = VectorField(R, [random_poly(rng, R, max_deg=2, max_terms=2)
                             for _ in R.names])
        e2 = VectorField(R, [random_poly(rng, R, max_deg=2, max_terms=2)
                             for _ in R.names])
        a = random_poly(rng, R, max_deg=1, max_terms=2)
        b = random_poly(rng, R, max_deg=1, max_terms=2)
        # round trip
        assert push_forward(push_forward(e1, G2, G2i), G2i, G2) == e1
        # module morphism with twisted coefficients
        lhs = push_forward(e1.scale(a) + e2.scale(b), G2, G2i)
        rhs = (push_forward(e1, G2, G2i).scale(a.substitute(inv_map))
               + push_forward(e2, G2, G2i).scale(b.substitute(inv_map)))
        assert lhs == rhs


def test_inverse_check_failed():
    R = _tgt5()
    G2 = MapGerm(R, R, [parse_poly(t, R) for t in
                        ("U1", "V1", "V2 - W1", "W1", "W2")])
    not_inv = MapGerm(R, R, [parse_poly(t, R) for t in
                             ("U1", "V1", "V2 - W1", "W1", "W2")])
    eta = _field5(R, "0", "0", "0", "0", "1")
    with pytest.raises(InverseCheckFailed):
        push_forward(eta, G2, not_inv)


def test_jacobian_chain_rule_random():
    rng = random.Random(8)
    A = VarSet(["s", "t"])
    B = VarSet(["x", "y"])
    C = VarSet(["X", "Y"])
    for _ in range(40):
        f_comps = []
        for _ in range(2):
            p = random_poly(rng, A, max_deg=2, max_terms=3)
            f_comps.append(p - Polynomial.const(A, p.constant_term()))
        g_comps = []
        for _ in range(2):
            p = random_poly(rng, B, max_deg=2, max_terms=3)
            g_comps.append(p - Polynomial.const(B, p.constant_term()))
        f = MapGerm(A, B, f_comps)
        g = MapGerm(B, C, g_comps)
        h = g.compose(f)
        Jf = jacobian(f)
        Jg = jacobian(g)
        fmap = dict(zip(B.names, f.components))
        Jh = jacobian(h)
        for i in range(2):
            for j in range(2):
                acc = Polynomial.zero(A)
                for l in range(2):
                    acc = acc + Jg[i][l].substitute(fmap, into=A) * Jf[l][j]
                assert Jh[i][j] == acc


def test_determinant():
    F = _map(["x", "y", "z"], ["X", "Y", "Z"], ["x^4 + y*x + z*x^2", "y", "z"])
    assert determinant(jacobian(F)) == parse_poly("4*x^3 + y + 2*z*x", F.source)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), p=st.integers(1, 3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cached_composition_matches_evaluation(seed, n, p):
    rng = random.Random(seed)
    src = VarSet(["s", "t", "u"][:n])
    tgt = VarSet(["X", "Y", "Z"][:p])
    comps = []
    for _ in range(p):
        c = random_poly(rng, src, max_deg=3, max_terms=3)
        comps.append(c - c.constant_term())
    f = MapGerm(src, tgt, comps)
    fields = [VectorField(tgt, [random_poly(rng, tgt, max_deg=5, max_terms=4)
                                for _ in range(p)]) for _ in range(4)]
    # p o f at x0 is p at f(x0), by exact evaluation at seeded rational points
    points = [{v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in src.names}
              for _ in range(3)]
    images = [dict(zip(tgt.names, (c.evaluate(x0) for c in comps))) for x0 in points]

    def assert_composes(polys, composed):
        for x0, y0 in zip(points, images):
            assert [c.evaluate(x0) for c in composed] == [q.evaluate(y0) for q in polys]

    # forward, backward and repeated on one germ: no answer may depend on
    # which monomial images an earlier call left in the cache
    for i in (0, 1, 2, 3, 3, 2, 1, 0, 2, 2):
        assert_composes(fields[i].entries, wf_apply(fields[i], f).entries)
    f.drop_caches()
    assert_composes(fields[3].entries, wf_apply(fields[3], f).entries)
    # the same routine composes germs and substitutes for variables
    g = MapGerm(tgt, tgt, [e - e.constant_term() for e in fields[0].entries])
    assert_composes(g.components, g.compose(f).components)
    mapping = dict(zip(tgt.names, comps))
    assert_composes(fields[1].entries,
                    [e.substitute(mapping, into=src) for e in fields[1].entries])


def test_inverse_pair_checked_once_and_refused_every_time(monkeypatch):
    R = _tgt5()
    G2 = MapGerm(R, R, [parse_poly(t, R) for t in
                        ("U1", "V1", "V2 - W1", "W1", "W2")])
    G2i = MapGerm(R, R, [parse_poly(t, R) for t in
                         ("U1", "V1", "V2 + W1", "W1", "W2")])
    composed = []
    compose = MapGerm.compose

    def counted(self, inner, budget=None):
        composed.append(1)
        return compose(self, inner, budget)

    monkeypatch.setattr(MapGerm, "compose", counted)
    eta = _field5(R, "2*U1", "2*V1", "V2", "3*W1", "3*W2")
    for _ in range(3):
        push_forward(eta, G2, G2i)
    assert len(composed) == 2
    for _ in range(2):
        with pytest.raises(InverseCheckFailed):
            push_forward(eta, G2, G2)
    # G2 o G2 is not the identity, so each refusal composes once
    assert len(composed) == 4
    # a refused inverse does not displace the verified one
    push_forward(eta, G2, G2i)
    assert len(composed) == 4


def _H2_unfolding():
    src2 = VarSet(["x", "y"], [4, 1])
    tgt3 = VarSet(["X", "Y", "Z"], [4, 3, 5])
    H2 = MapGerm(src2, tgt3, [parse_poly(t, src2) for t in
                              ("x", "y^3", "y^5 + x*y")])
    src4 = VarSet(["u1", "v1", "v2", "y"])
    tgt5 = _tgt5()
    F2 = MapGerm(src4, tgt5, [parse_poly(t, src4) for t in
                              ("u1", "v1", "v2", "y^3 + u1*y",
                               "v1*y + v2*y^2 + y^5 + u1*y^3")])
    return Unfolding(F2, ["u1", "v2"], ["U1", "V2"], H2)


def test_unfolding_restrict_H2():
    U = _H2_unfolding()
    assert U.restrict() == U.core


def test_unfolding_restrict_trivial():
    f = _map(["x"], ["X"], ["x^2"])
    src = VarSet(["x", "lam"])
    tgt = VarSet(["X", "Lam"])
    total = MapGerm(src, tgt, [parse_poly("x^2", src), parse_poly("lam", src)])
    U = Unfolding(total, ["lam"], ["Lam"], f)
    assert U.restrict() == f


def test_unfolding_structure_violation():
    f = _map(["x"], ["X"], ["x^2"])
    src = VarSet(["x", "lam"])
    tgt = VarSet(["X", "Lam"])
    total = MapGerm(src, tgt, [parse_poly("x^2", src), parse_poly("lam^2", src)])
    with pytest.raises(StructureError):
        Unfolding(total, ["lam"], ["Lam"], f)


def test_unfolding_wrong_core():
    g = _map(["x"], ["X"], ["x^3"])
    src = VarSet(["x", "lam"])
    tgt = VarSet(["X", "Lam"])
    total = MapGerm(src, tgt, [parse_poly("x^2", src), parse_poly("lam", src)])
    with pytest.raises(StructureError):
        Unfolding(total, ["lam"], ["Lam"], g)


def test_field_space_mismatch():
    f = _map(["x"], ["X"], ["x^2"])
    eta = VectorField(f.source, [parse_poly("x", f.source)])
    with pytest.raises(AmbientError):
        wf_apply(eta, f)


def _rank_calls():
    """Each function that takes a vector field, called with a module element
    over the right ring but with one entry for two coordinates."""
    R = VarSet(["X", "Y"])
    f = _map(["x", "y"], ["X", "Y"], ["x", "y^2"])
    ident = MapGerm(R, R, [parse_poly(n, R) for n in R.names])
    good = VectorField(R, [parse_poly("X", R), parse_poly("0", R)])
    xi = VectorField(f.source, [parse_poly("x", f.source), parse_poly("0", f.source)])
    bad = ModuleElement(R, [parse_poly("Y", R)])
    h = parse_poly("X*Y", R)
    return {
        "is_liftable": lambda: is_liftable(f, bad),
        "certificate-eta": lambda: LiftCertificate(f, bad, xi),
        "certificate-xi": lambda: LiftCertificate(
            f, good, ModuleElement(f.source, [parse_poly("x", f.source)])),
        "wf_apply": lambda: wf_apply(bad, f),
        "push_forward": lambda: push_forward(bad, ident, ident),
        "apply_to": lambda: apply_to(bad, h),
        "restrict_field": lambda: restrict_field(bad, Unfolding(ident, [], [], ident)),
        "tangency_quotient": lambda: tangency_quotient(bad, h),
        "augment_field": lambda: augment_field(bad, 2),
        "augment_field_div": lambda: augment_field_div(bad, 2),
        "descend_field": lambda: descend_field(bad, 2, Divisor(R, h)),
    }


@pytest.mark.parametrize("name", list(_rank_calls()))
def test_field_of_wrong_rank_is_refused(name):
    with pytest.raises((AmbientError, RankError)):
        _rank_calls()[name]()


def test_vector_field_is_a_checked_module_element():
    R = VarSet(["X", "Y"])
    eta = VectorField(R, [parse_poly("X", R), parse_poly("Y", R)])
    assert type(eta) is ModuleElement
    with pytest.raises(RankError):
        VectorField(R, [parse_poly("X", R)])
