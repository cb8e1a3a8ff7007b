import dataclasses
import json
import random

import pytest

from planefill import affine as aff
from planefill import fillcurve as fc
from planefill import verify as vf
from planefill.homog import HomogPoly, linear_substitute, scalar_ratio
from planefill.poly import UniPoly
from support import field, rand_btransform, rand_invertible3, rand_matrix3


def test_enumerate_P2_counts():
    assert len(vf.enumerate_P2(field(2))) == 7
    assert len(vf.enumerate_P2(field(3))) == 13
    assert len(vf.enumerate_P2(field(4))) == 21
    pts = vf.enumerate_P2(field(4))
    assert len({p.key for p in pts}) == 21
    assert pts[0].key == (1, 0, 0) and pts[-1].key == (0, 0, 1)


def test_count_points_examples():
    spec4 = field(4)
    assert vf.count_points(vf.exceptional_quartic(spec4)) == 14

    spec3 = field(3)
    maximal = HomogPoly(
        spec3, 4,
        {(4, 0, 0): 1, (2, 0, 2): spec3.neg(1), (0, 3, 1): 1, (0, 1, 3): spec3.neg(1)},
    )
    assert vf.count_points(maximal) == 10

    spec2 = field(2)
    w = fc.build_UVW(spec2)[2]
    assert vf.count_points(w) == 7

    with pytest.raises(ValueError):
        vf.count_points(HomogPoly.zero(spec2, 3))


def test_find_linear_components_double_line_fan():
    spec = field(3)
    a = fc.Matrix3.from_ints(spec, [0, 1, 0, 0, 0, 0, 0, 0, 0])  # case 4.2 form
    comps = vf.find_linear_components(fc.build_FA(a))
    mults = sorted(m for _, m in comps.lines)
    assert mults == [1, 1, 1, 2]
    assert comps.residual_degree == 0
    doubled = [l for l, m in comps.lines if m == 2]
    assert doubled[0].line_coeffs() == (1, 0, 0)


def test_find_linear_components_case2_diagonal():
    spec = field(5)
    a = fc.Matrix3.diagonal(spec, 1, 2, 4)
    comps = vf.find_linear_components(fc.build_FA(a))
    assert sorted(l.line_coeffs() for l, _ in comps.lines) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)
    ]
    assert comps.residual_degree == 4


def test_find_linear_components_irreducible_curve():
    spec = field(2)
    comp = fc._companion(UniPoly(spec, (1, 1, 0, 1)))
    f = fc.build_FA(comp)
    comps = vf.find_linear_components(f)
    assert not comps.lines
    assert comps.residual == f


def test_find_linear_components_reconstruction():
    rng = random.Random(13)
    for q in (2, 3, 4):
        spec = field(q)
        for _ in range(30):
            f = fc.build_FA(rand_matrix3(spec, rng))
            if f.is_zero():
                continue
            comps = vf.find_linear_components(f)
            product = comps.residual
            for line, mult in comps.lines:
                for _ in range(mult):
                    product = product * line
            assert scalar_ratio(product, f) is not None and product == f


def test_singular_points_examples():
    spec3 = field(3)
    comp = fc._companion(UniPoly(spec3, (1, 2, 0, 1)))
    assert fc.classify(comp).tag == fc.CASE_NONSINGULAR
    assert vf.singular_Fq_points(fc.build_FA(comp)) == []

    m = aff.Matrix23.from_ints(spec3, [1, 0, 0, 0, 1, 0])
    assert len(vf.singular_Fq_points(aff.build_GM(m))) == 1

    xy = HomogPoly(spec3, 2, {(1, 1, 0): 1})
    sing = vf.singular_Fq_points(xy)
    assert [p.key for p in sing] == [(0, 0, 1)]


def test_concurrency_check():
    spec = field(3)
    x = HomogPoly.linear_form(spec, (1, 0, 0))
    y = HomogPoly.linear_form(spec, (0, 1, 0))
    z = HomogPoly.linear_form(spec, (0, 0, 1))
    assert vf.concurrency_check([x, y]).key == (0, 0, 1)
    assert vf.concurrency_check([x, y, z]) is None

    w = fc.build_UVW(spec)[2]
    comps = vf.find_linear_components(w)
    meet = vf.concurrency_check([l for l, _ in comps.lines])
    assert meet is not None and meet.key == (0, 0, 1)

    with pytest.raises(ValueError):
        vf.concurrency_check([x])


def test_sziklai_audit_tight_examples():
    spec3 = field(3)
    maximal_q = HomogPoly(
        spec3, 3,
        {(3, 0, 0): 1, (1, 0, 2): spec3.neg(1), (2, 1, 0): 1, (0, 3, 0): spec3.neg(1)},
    )
    audit = vf.sziklai_audit(maximal_q)
    assert audit == {"points": 7, "bound": 7, "bound_holds": True, "is_exceptional": False}

    spec5 = field(5)
    fermat = HomogPoly(spec5, 4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 3})
    audit = vf.sziklai_audit(fermat)
    assert audit["points"] == 16 and audit["bound_holds"]

    quartic = vf.exceptional_quartic(field(4))
    audit = vf.sziklai_audit(quartic)
    assert not audit["bound_holds"] and audit["is_exceptional"]


def test_sziklai_audit_rejects_curves_with_line_components():
    spec = field(3)
    x = HomogPoly.linear_form(spec, (1, 0, 0))
    y = HomogPoly.linear_form(spec, (0, 1, 0))
    with pytest.raises(ValueError):
        vf.sziklai_audit(x * y)


def test_missing_points_collinear():
    spec = field(3)
    m = aff.Matrix23.from_ints(spec, [1, 0, 0, 0, 1, 0])
    res = vf.missing_points_collinear(aff.build_GM(m))
    assert len(res["missing"]) == 4 and res["collinear"]
    assert all(p.key[2] == 0 for p in res["missing"])

    a = fc.Matrix3.from_ints(spec, [0, 1, 0, 0, 0, 1, 0, 0, 0])
    res = vf.missing_points_collinear(fc.build_FA(a))
    assert res["missing"] == [] and res["collinear"]


def test_missing_points_random_image_q7():
    spec = field(7)
    rng = random.Random(99)
    m = aff.Matrix23.from_ints(spec, [1, 0, 2, 3, 1, 5])
    assert aff.left_quad_shape(m).tag == "irreducible"
    g = aff.build_GM(m)
    b = rand_invertible3(spec, rng)
    image = linear_substitute(g, b)
    assert vf.count_points(image) == 49
    res = vf.missing_points_collinear(image)
    assert len(res["missing"]) == 8 and res["collinear"]


def test_decomposition_report_case1_q3():
    spec = field(3)
    a = fc.Matrix3.from_ints(spec, [0, 1, 0, 1, 1, 0, 0, 0, 2])
    r = vf.decomposition_report(a)
    assert r.case == fc.CASE_1 and r.match
    assert len(r.observed["lines"]) == 1
    assert r.observed["residual_degree"] == 4
    assert r.observed["residual_points"] == 9
    assert r.observed["singular_points"] == 1


def test_decomposition_report_case31_q4():
    spec = field(4)
    a = fc.Matrix3.from_ints(spec, [2, 1, 0, 0, 2, 0, 0, 0, 3])
    r = vf.decomposition_report(a)
    assert r.case == fc.CASE_3_1 and r.match
    assert len(r.observed["lines"]) == 2
    assert r.observed["residual_degree"] == 4
    assert r.observed["residual_points"] == 13


def test_decomposition_report_scalar():
    spec = field(2)
    r = vf.decomposition_report(fc.Matrix3.identity(spec))
    assert r.case == fc.CASE_4_3 and r.match
    assert r.observed["zero_polynomial"]
    assert r.predicted["zero_polynomial"]


def test_reports_serialize_to_json():
    spec = field(3)
    r = vf.decomposition_report(fc.Matrix3.from_ints(spec, [0, 1, 0, 0, 0, 1, 0, 0, 0]))
    payload = json.dumps(r.to_json())
    assert '"case": "4.1"' in payload
    m = aff.Matrix23.from_ints(spec, [0, 1, 0, 0, 0, 1])
    payload = json.dumps(vf.affine_report(m).to_json())
    assert '"I-2"' in payload


def test_affine_report_canonical_cases():
    spec = field(4)
    for vals, tag in [
        ([0, 1, 0, 0, 0, 1], aff.AFFINE_I2),
        ([1, 0, 0, 0, 0, 1], aff.AFFINE_II2),
        ([0, 0, 1, 0, 0, 0], aff.AFFINE_III3),
    ]:
        r = vf.affine_report(aff.Matrix23.from_ints(spec, vals))
        assert r.case == tag and r.match, r.discrepancies


def test_affine_report_transported_instance():
    rng = random.Random(12)
    spec = field(3)
    base = aff.Matrix23.from_ints(spec, [0, 1, 0, 0, 0, 1])
    for _ in range(10):
        t = rand_btransform(spec, rng)
        m = aff.apply_transform(base, t)
        r = vf.affine_report(m)
        assert r.match, r.discrepancies


# ---------------------------------------------------------------------------
# the audit must report a wrong prediction, not only pass a right one


def _drop_first_line(real):
    def wrong(*args, **kwargs):
        plan = real(*args, **kwargs)
        return dataclasses.replace(plan, lines=plan.lines[1:])

    return wrong


def test_projective_report_flags_a_missing_line(monkeypatch):
    monkeypatch.setattr(fc, "predicted_decomposition", _drop_first_line(fc.predicted_decomposition))
    a = fc.Matrix3.from_ints(field(3), [1, 1, 0, 1, 0, 0, 0, 0, 0])  # case 1
    r = vf.decomposition_report(a)
    assert r.match is False
    assert r.discrepancies[0].startswith("lines differ: observed [[[0, 0, 1], 1]], predicted []")
    assert r.observed["lines"] == [[[0, 0, 1], 1]] and r.predicted["lines"] == []


def test_sweep_counts_report_mismatches(monkeypatch):
    monkeypatch.setattr(fc, "predicted_decomposition", _drop_first_line(fc.predicted_decomposition))
    out = vf.sweep_case_reports(field(2))
    assert out["pass"] is False
    assert out["match_failures"] > 0
    assert "lines differ" in out["first_discrepancy"]


def test_affine_report_flags_a_missing_line(monkeypatch):
    real = vf._affine_canonical_structure

    def wrong(label):
        lines, *rest = real(label)
        return (lines[1:], *rest)

    monkeypatch.setattr(vf, "_affine_canonical_structure", wrong)
    r = vf.affine_report(aff.Matrix23.from_ints(field(3), [0, 0, 1, 1, 0, 0]))  # I-2
    assert r.case == aff.AFFINE_I2
    assert r.match is False
    assert any(d.startswith("lines differ") for d in r.discrepancies)
    assert len(r.observed["lines"]) == 1 and r.predicted["lines"] == []


def test_report_flags_zero_polynomial_of_a_non_scalar(monkeypatch):
    monkeypatch.setattr(fc, "build_FA", lambda A: HomogPoly.zero(A.spec, A.spec.q + 2))
    r = vf.decomposition_report(fc.Matrix3.from_ints(field(3), [0, 1, 0, 0, 0, 1, 0, 0, 0]))
    assert r.match is False
    assert r.discrepancies == ["non-scalar matrix gave the zero polynomial"]
    assert r.observed["zero_polynomial"] is True
    assert r.predicted["zero_polynomial"] is False


def test_report_flags_nonzero_polynomial_of_a_scalar(monkeypatch):
    spec = field(3)
    monkeypatch.setattr(fc, "build_FA", lambda A: fc.build_UVW(spec)[2])
    r = vf.decomposition_report(fc.Matrix3.identity(spec))
    assert r.match is False
    assert r.discrepancies == ["scalar matrix gave a nonzero polynomial"]
    assert r.observed["zero_polynomial"] is False


def test_residual_bound_audit_flags_too_many_points():
    spec = field(3)
    r = vf.decomposition_report(fc.Matrix3.from_ints(spec, [0, 0, 1, 1, 0, 0, 0, 0, 0]))
    assert r.predicted["residual_kind"] == fc.RESIDUAL_MAX_Q_PLUS_1
    counters = {"audit_checked": 0, "audit_failures": 0, "first_discrepancy": None}
    vf._audit_residual_bound(counters, r)
    assert counters == {"audit_checked": 1, "audit_failures": 0, "first_discrepancy": None}
    r.observed["residual_points"] += 1
    vf._audit_residual_bound(counters, r)
    assert counters["audit_checked"] == 2 and counters["audit_failures"] == 1
    assert counters["first_discrepancy"].endswith("residual point bound violated")
