"""Corrupted fixtures must fail loudly: guards against a vacuously green
verification suite.  So must a wrong witness over an image that the kernel
has already packed: an element keeps its packing for the same packer
(``groebner._vec_of``), and the tests below check that this neither lets a
wrong certificate through nor survives a move of the basis to wider
fields, and that no polynomial's term dict changes once it is wrapped."""

import json
from types import MappingProxyType

import pytest

from germlift import groebner
from germlift.errors import StructureError
from germlift.exprio import parse_poly
from germlift.germs import MapGerm, VectorField, tf_generators, wf_apply
from germlift.groebner import _vec_of, compute_gb, express, re_expands
from germlift.lifting import LiftCertificate, is_liftable
from germlift.manifest import load_manifest, loads
from germlift.modules import ModuleElement, Submodule, combine
from germlift.poly import Polynomial, VarSet
from germlift.suite import (
    FAIL,
    PASS,
    reports_to_json,
    run_paper_suite,
    run_task,
)

from conftest import fixture_path


def _mutated_hk(mutate):
    with open(fixture_path("hk.manifest.json")) as fh:
        doc = json.load(fh)
    mutate(doc)
    return loads(json.dumps(doc))


def _task(m, task_id):
    task = next(t for t in m.tasks if t["id"] == task_id)
    return run_task(m, task)


def test_corrupt_transport_table_fails():
    def mutate(doc):
        doc["fields"]["lift_F2"]["elements"][0][0] = "3*U1"  # was 2*U1

    m = _mutated_hk(mutate)
    assert _task(m, "hk2.transport").verdict == FAIL


def test_corrupt_expected_module_fails_pipeline():
    def mutate(doc):
        doc["fields"]["lift_H2"]["elements"][0] = ["X", "0", "0"]

    m = _mutated_hk(mutate)
    assert _task(m, "hk2.pipeline").verdict == FAIL


def test_nonliftable_input_table_fails_pipeline():
    def mutate(doc):
        doc["fields"]["lift_F2"]["elements"][0] = ["1", "0", "0", "0", "0"]

    m = _mutated_hk(mutate)
    report = _task(m, "hk2.pipeline")
    assert report.verdict == FAIL
    assert "not certifiably liftable" in report.details[0]


def test_corrupt_combination_fails_projection():
    def mutate(doc):
        for task in doc["tasks"]:
            if task["id"] == "hk2.combinations":
                # the coefficient variant that violates the vanishing
                # conditions at the parameter zero section
                task["combinations"][4][2][1] = 4

    m = _mutated_hk(mutate)
    report = _task(m, "hk2.combinations")
    assert report.verdict == FAIL


def test_corrupt_divisor_fails_discriminant():
    with open(fixture_path("augment.manifest.json")) as fh:
        doc = json.load(fh)
    doc["divisors"]["H"]["equation"] = doc["divisors"]["H"]["equation"].replace(
        "256", "255")
    doc["divisors"]["H"].pop("weights")
    m = loads(json.dumps(doc))
    task = next(t for t in m.tasks if t["id"] == "aug.disc_F")
    assert run_task(m, task).verdict == FAIL


def test_full_suite_reports_are_reproducible():
    a = reports_to_json(run_paper_suite())
    b = reports_to_json(run_paper_suite())
    assert a == b
    doc = json.loads(a)
    assert doc["summary"]["total"] == doc["summary"]["pass"]


def _H2():
    src = VarSet(["x", "y"], [4, 1])
    tgt = VarSet(["X", "Y", "Z"], [4, 3, 5])
    return MapGerm(src, tgt, [parse_poly(t, src) for t in ("x", "y^3", "y^5 + x*y")])


def _one_coefficient_off(xi: ModuleElement, j: int) -> ModuleElement:
    """``xi`` with one coefficient of entry ``j`` moved by 1 (a constant
    added when the entry is zero)."""
    entries = list(xi.entries)
    terms = dict(entries[j].terms)
    e = next(iter(terms), xi.ring.zero_exp())
    terms[e] = terms.get(e, 0) + 1
    entries[j] = Polynomial(xi.ring, terms)
    return ModuleElement(xi.ring, entries)


def test_certificate_over_a_packed_image_refuses_a_wrong_witness():
    H2 = _H2()
    eta = VectorField(H2.target, [parse_poly(t, H2.target) for t in ("4*X", "3*Y", "5*Z")])
    M = tf_generators(H2)
    image = wf_apply(eta, H2)
    membership = groebner._divide(image, M)
    packer = compute_gb(M).packer
    # the division packed the image, and the certificate finds that packing
    assert image._packed[0] is packer
    xi = ModuleElement(H2.source, membership.coefficients)
    LiftCertificate(H2, eta, xi, _image=image)
    right = _vec_of(xi, packer, M.rank)
    for j in range(xi.rank):
        wrong = _one_coefficient_off(xi, j)
        with pytest.raises(StructureError):
            LiftCertificate(H2, eta, wrong, _image=image)
        # a packing of the right witness planted on the wrong one is not
        # read: the witness is packed from its own Fractions on every check
        wrong._packed = (packer, M.rank) + right
        with pytest.raises(StructureError):
            LiftCertificate(H2, eta, wrong, _image=image)
        assert not re_expands(image, wrong.entries, M)
    # the image's packing is still the right one after all those checks
    assert re_expands(image, xi.entries, M)


def test_division_after_the_basis_moves_to_wider_fields_repacks_and_certifies():
    R = VarSet(["x", "y"])

    def P(text):
        return parse_poly(text, R)

    gens = [ModuleElement(R, [P("x^2 + 1/2*y"), P("y")]),
            ModuleElement(R, [P("x*y"), P("x - 1/3*y^2")])]
    M = Submodule(R, 2, gens)
    gb = compute_gb(M)
    narrow = gb.packer
    small = combine(R, 2, [P("x + 1"), P("2/3*y")], gens)
    assert express(small, M).is_member
    assert small._packed[0] is narrow and M._packed[0] is narrow
    # an element past the narrow fields moves the basis to wider ones
    big_exp = narrow.cap + 5
    big = combine(R, 2, [P(f"x^{big_exp} - 1/5*y"), P("3")], gens)
    membership = express(big, M)
    assert membership.is_member and gb.packer is not narrow
    assert big._packed[0] is gb.packer and M._packed[0] is gb.packer
    # the small element's packing is for the narrow fields: it is packed
    # again, divided and certified on the wide ones
    membership = express(small, M)
    assert membership.is_member and small._packed[0] is gb.packer
    assert combine(R, 2, membership.coefficients, gens) == small
    wrong = list(membership.coefficients)
    wrong[0] = wrong[0] + P("1/7*x")
    assert not re_expands(small, wrong, M)
    # and the lift path: a field whose image outgrows the fields of df's
    # basis, then one that does not
    H2 = _H2()
    T = H2.target
    euler = [parse_poly(t, T) for t in ("4*X", "3*Y", "5*Z")]
    assert is_liftable(H2, VectorField(T, euler)).certified
    narrow = compute_gb(tf_generators(H2)).packer
    X = parse_poly(f"X^{narrow.cap + 5}", T)
    assert is_liftable(H2, VectorField(T, [X * c for c in euler])).certified
    assert compute_gb(tf_generators(H2)).packer is not narrow
    res = is_liftable(H2, VectorField(T, [parse_poly("Y", T) * c for c in euler]))
    assert res.certified


def test_no_polynomial_term_dict_is_mutated_after_wrapping(monkeypatch):
    # every term dict is read through a read-only view, and every dict
    # handed to Polynomial._of is compared with a copy made when it was
    # wrapped, so a write through the polynomial raises and a write by the
    # code that built the dict shows
    expected = reports_to_json(run_paper_suite())
    real_init, real_of = Polynomial.__init__, Polynomial._of
    wrapped = []

    def init(self, ring, terms=None):
        real_init(self, ring, terms)
        self.terms = MappingProxyType(self.terms)

    def of(ring, terms):
        wrapped.append((terms, dict(terms)))
        return real_of(ring, MappingProxyType(terms))

    monkeypatch.setattr(Polynomial, "__init__", init)
    monkeypatch.setattr(Polynomial, "_of", staticmethod(of))
    assert reports_to_json(run_paper_suite()) == expected
    assert wrapped
    assert [terms for terms, copy in wrapped if terms != copy] == []
