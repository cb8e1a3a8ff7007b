import dataclasses
import hashlib
import json
import pickle
import random

import pytest

from planefill import affine as aff
from planefill import batch
from planefill import fillcurve as fc
from planefill import homog
from planefill import sweep
from planefill import verify as vf
from planefill.cli import main
from planefill.gf import make_field
from planefill.homog import (
    HomogPoly, ProjPoint, _mat3_inv, _matvec, linear_substitute, partials,
    scalar_ratio,
)
from planefill.poly import UniPoly
from support import (
    divide_by_every_line, field, plus_scalar, product, rand_btransform, rand_homog,
    rand_invertible3, rand_matrix3, rand_matrix23,
)


def test_enumerate_P2_counts():
    assert len(vf._plane_for(field(2)).points) == 7
    assert len(vf._plane_for(field(3)).points) == 13
    assert len(vf._plane_for(field(4)).points) == 21
    pts = vf._plane_for(field(4)).points
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
        vf.count_points(HomogPoly(spec2, 3))


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


def _agreement_curves(q):
    """Every non-scalar F_A at q = 2 and 3; 1,500 seeded F_A of non-scalar
    matrices and 1,500 seeded G_M of nonzero ones above."""
    spec = field(q)
    if q <= 3:
        for n in range(q**9):
            a = vf._matrix_at(fc.Matrix3, 9, spec, n)
            if not a.is_scalar():
                yield fc.build_FA(a)
        return
    rng = random.Random(20261019 + q)
    n = 0
    while n < 1500:
        a = rand_matrix3(spec, rng)
        if not a.is_scalar():
            n += 1
            yield fc.build_FA(a)
    for _ in range(1500):
        yield aff.build_GM(rand_matrix23(spec, rng))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_line_search_agrees_with_division_by_every_line(q):
    """The gradient filter ahead of trial division drops no line: the
    search finds the lines, multiplicities and residual of the unfiltered
    division, on each curve and on the residual it leaves."""
    checked = 0
    for f in _agreement_curves(q):
        comps = vf.find_linear_components(f)
        assert comps == divide_by_every_line(f), f
        if comps.lines and comps.residual_degree:
            assert vf.find_linear_components(comps.residual) == divide_by_every_line(comps.residual)
        checked += 1
    assert checked == (q**9 - q if q <= 3 else 3000)


def test_line_search_agrees_on_the_exceptional_quartic():
    f = vf.exceptional_quartic(field(4))
    comps = vf.find_linear_components(f)
    assert comps == divide_by_every_line(f)
    assert not comps.lines and comps.residual == f


def test_line_points_are_the_points_of_each_line():
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = field(q)
        plane = vf._plane_for(spec)
        for pts, n in zip(plane.line_points(), plane.line_coeffs):
            assert sorted(pts) == [
                i for i, p in enumerate(plane.points) if not any(_matvec([n], p.key, spec))
            ]


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
    r = vf.decomposition_report(fc.Matrix3.diagonal(spec, 1, 1, 1))
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


@pytest.fixture
def nonzero_scalar_curve(monkeypatch):
    """F_E00 with one extra term, x^(q+2), so that F_E is not zero: the
    curve of A + mu E is then no longer that of A.  The memo of the basis
    and the kernels built from it are cleared before and after."""
    real = fc._fa_basis

    def corrupted(spec):
        basis = list(real(spec))
        e00 = dict(basis[0])
        e00[(spec.q + 2, 0, 0)] = spec._add[e00.get((spec.q + 2, 0, 0), 0)][1]
        basis[0] = e00
        return tuple(basis)

    caches = (real, batch.cycle_kernel)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(fc, "_fa_basis", corrupted)
    yield
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()


def test_case_report_sweep_reports_a_nonzero_scalar_curve(nonzero_scalar_curve):
    # the orbits R + mu E share one observation because F_E = 0; the
    # reports on the scalars check that identity
    spec = field(2)
    assert not fc.build_FA(fc.Matrix3.diagonal(spec, 1, 1, 1)).is_zero()
    out = vf.sweep_case_reports(spec)
    assert out["checked"] == 2**9
    assert out["match_failures"] > 0
    assert out["pass"] is False
    scalars = vf._case_range(spec, 0, 1)
    assert (scalars["checked"], scalars["scalars"], scalars["match_failures"]) == (2, 2, 1)
    assert scalars["first_discrepancy"] == (
        "matrix [1, 0, 0, 0, 1, 0, 0, 0, 1]: scalar matrix gave a nonzero polynomial"
    )


def test_shift_orbits_take_representatives_below_q8():
    spec = field(2)
    assert [n for n, _a, _seen in vf._shift_orbits(spec, 255, 256)] == [255, 255 - 1 - 2**4 + 2**8]
    with pytest.raises(ValueError):
        next(vf._shift_orbits(spec, 0, 2**8 + 1))


def test_first_discrepancy_is_the_failure_of_the_smallest_counting_index():
    def chunk(*failures):
        counters = {"checked": 0, "match_failures": 0, "first_discrepancy": None}
        for index in failures:
            sweep._note_failure(counters, "match_failures", f"matrix {index}", index)
        return counters

    assert chunk(9, 4, 7)["first_discrepancy"] == "matrix 4"
    out = sweep._merge([chunk(), chunk(12, 30), chunk(11), chunk(11, 40)])
    assert out == {"checked": 0, "match_failures": 5, "first_discrepancy": "matrix 11"}
    assert sweep._merge([chunk(), chunk()]) == {
        "checked": 0, "match_failures": 0, "first_discrepancy": None,
    }


def test_affine_report_flags_a_missing_line(monkeypatch):
    monkeypatch.setattr(aff, "predicted_decomposition", _drop_first_line(aff.predicted_decomposition))
    r = vf.affine_report(aff.Matrix23.from_ints(field(3), [0, 0, 1, 1, 0, 0]))  # I-2
    assert r.case == aff.AFFINE_I2
    assert r.match is False
    assert any(d.startswith("lines differ") for d in r.discrepancies)
    assert len(r.observed["lines"]) == 1 and r.predicted["lines"] == []


def test_affine_report_divides_by_the_observed_lines():
    spec = field(3)
    plane = vf._plane_for(spec)
    m = aff.Matrix23.from_ints(spec, [0, 0, 1, 1, 0, 0])  # I-2: one line and a residual
    g = aff.build_GM(m)
    lines = [
        (plane.line_coeffs.index(l.line_coeffs()), mult)
        for l, mult in divide_by_every_line(g).lines
    ]
    assert len(lines) == 1
    kern = batch.affine_kernel(spec)
    obs = batch.observe(kern, kern.image(m))
    assert obs.lines == lines
    assert vf.affine_report(m, obs).to_json() == vf.affine_report(m).to_json()
    (i, _mult), = lines
    r = vf.affine_report(m, obs._replace(lines=[(i, 2)]))
    assert r.match is False
    assert r.discrepancies == ["observed lines do not divide the curve with their multiplicities"]
    # the line search stands in, so the observation itself is right
    assert r.observed == vf.affine_report(m).observed


def test_report_flags_zero_polynomial_of_a_non_scalar(monkeypatch):
    monkeypatch.setattr(fc, "build_FA", lambda A: HomogPoly(A.spec, A.spec.q + 2))
    r = vf.decomposition_report(fc.Matrix3.from_ints(field(3), [0, 1, 0, 0, 0, 1, 0, 0, 0]))
    assert r.match is False
    assert r.discrepancies == ["non-scalar matrix gave the zero polynomial"]
    assert r.observed["zero_polynomial"] is True
    assert r.predicted["zero_polynomial"] is False


def test_report_flags_nonzero_polynomial_of_a_scalar(monkeypatch):
    spec = field(3)
    monkeypatch.setattr(fc, "build_FA", lambda A: fc.build_UVW(spec)[2])
    r = vf.decomposition_report(fc.Matrix3.diagonal(spec, 1, 1, 1))
    assert r.match is False
    assert r.discrepancies == ["scalar matrix gave a nonzero polynomial"]
    assert r.observed["zero_polynomial"] is False


def test_curve_singularity_is_observed_on_a_mislabelled_curve(monkeypatch):
    # the curve has lines, so the residual audit is skipped; the singular
    # points must still be read off the curve itself
    spec = field(3)
    a = fc.Matrix3.from_ints(spec, [1, 0, 0, 0, 0, 0, 0, 0, 0])
    assert len(vf.singular_Fq_points(fc.build_FA(a))) == 5
    nonsingular = fc.CaseLabel(fc.CASE_NONSINGULAR, ())
    real = fc._case_and_minpoly
    monkeypatch.setattr(fc, "_case_and_minpoly", lambda A: (nonsingular, *real(A)[1:]))
    r = vf.decomposition_report(a)
    assert r.match is False and r.observed["lines"]
    assert r.observed["singular_points"] is None
    assert r.observed["curve_singular"] is True


@pytest.mark.parametrize("q", (2, 3))
def test_projective_report_looks_up_its_characteristic_once(monkeypatch, q):
    # every non-scalar matrix at q = 2 through the reference path, and the
    # orbits of a slice of representatives at q = 3 with their shared
    # observation
    spec = field(q)
    real = fc._characteristic
    lookups = []

    def counting(*key):
        lookups.append(key)
        return real(*key)

    monkeypatch.setattr(fc, "_characteristic", counting)
    if q == 2:
        pairs = ((vf._matrix_at(fc.Matrix3, 9, spec, n), None) for n in range(2**9))
    else:
        pairs = ((a, seen) for _n, a, seen in vf._shift_orbits(spec, 1700, 1900))
    reports = 0
    for a, obs in pairs:
        if a.is_scalar():
            continue
        lookups.clear()
        vf.decomposition_report(a, obs)
        assert len(lookups) == 1, (a.to_ints(), lookups)
        reports += 1
    assert reports >= 500


def test_sweeps_report_an_irreducible_cubic_memoized_as_case_1(monkeypatch):
    spec = field(2)
    key = (spec, 0, 1, 1)  # trace 0, sigma_2 1, det 1: t^3 + t + 1
    real = fc._characteristic
    f, labels = real(*key)
    assert [label.tag for label, _m in labels] == [fc.CASE_NONSINGULAR]
    flipped = (fc.CaseLabel(fc.CASE_1, (1,), UniPoly(spec, (1, 1, 1))), f)
    mislabelled = [
        a.to_ints() for a in (vf._matrix_at(fc.Matrix3, 9, spec, n) for n in range(2**9))
        if fc.charpoly(a) == f
    ]
    monkeypatch.setattr(fc, "_characteristic", lambda *k: (f, (flipped,)) if k == key else real(*k))
    cycle = vf.sweep_irreducibility_cycle(spec)
    assert cycle["cycle_failures"] == len(mislabelled) > 0
    assert cycle["first_discrepancy"].startswith(f"matrix {mislabelled[0]}: irreducible=False")
    out = vf.sweep_case_reports(spec)
    assert out["match_failures"] == out["cycle_failures"] == len(mislabelled)
    assert out["first_discrepancy"] == (
        f"matrix {mislabelled[0]} (case 1): no similarity to the canonical form of case 1: "
        "the matrix is not in the case of its label"
    )
    assert out["pass"] is False


def test_orbit_member_whose_label_is_not_the_shift_takes_its_own_basis(monkeypatch):
    # R is case 1 with roots (alpha,) and quadratic g; the memo entry of
    # R + E keeps its root alpha + 1 but gets g instead of g(t - 1), so the
    # sweep cannot derive its basis from R's and must report it as the
    # reference path does
    spec = field(3)
    rep = fc.Matrix3.from_ints(spec, [1, 1, 0, 1, 0, 0, 0, 0, 0])
    member = plus_scalar(rep, 1)
    label = fc.classify(rep)
    assert label.tag == fc.CASE_1
    key = (spec, *fc._invariants(member))
    real = fc._characteristic
    f, ((shifted, m),) = real(*key)
    wrong = fc.CaseLabel(fc.CASE_1, shifted.roots, label.quad)
    assert shifted.quad != label.quad
    monkeypatch.setattr(fc, "_characteristic", lambda *k: (f, ((wrong, m),)) if k == key else real(*k))
    bases = []
    basis = fc._basis
    monkeypatch.setattr(fc, "_basis", lambda a, lab: bases.append(a.to_ints()) or basis(a, lab))
    reports = {tuple(a.to_ints()): r for _n, a, r in vf._orbit_reports(spec, 31, 32)}
    # R's basis once, for its orbit, and the member's own
    assert bases == [rep.to_ints(), member.to_ints()]
    assert len(reports) == 3 and reports[tuple(rep.to_ints())].match
    got = reports[tuple(member.to_ints())]
    assert got.match is False and got.discrepancies[0].startswith("no similarity")
    assert got.to_json() == vf.decomposition_report(member).to_json()
    assert vf._case_range(spec, 31, 32)["match_failures"] == 1


def test_case_report_sweep_reports_a_repeated_root_test_that_always_splits(monkeypatch):
    spec = field(2)
    cyclic = sum(
        fc.classify(vf._matrix_at(fc.Matrix3, 9, spec, n)).tag in (fc.CASE_3_1, fc.CASE_4_1)
        for n in range(2**9)
    )
    monkeypatch.setattr(fc, "_repeated_root_degree", lambda A, label: 1 if A.is_scalar() else 2)
    out = vf.sweep_case_reports(spec)
    # every 3.1 and 4.1 matrix now reads as 3.2 or 4.2, with a quadratic
    # minimal polynomial though its curve keeps a nonlinear component
    assert out["minpoly_criterion_failures"] == cyclic > 0
    assert out["match_failures"] > 0
    assert fc.CASE_3_1 not in out["cases"] and fc.CASE_4_1 not in out["cases"]
    assert out["pass"] is False


def test_curve_without_lines_is_scanned_for_singular_points_once(monkeypatch):
    # with no rational line the audited residual is F_A itself, so its scan
    # also decides curve_singular; a curve with lines scans residual and F_A
    scanned = []
    real = vf.singular_Fq_points

    def counting(f, fvals=None):
        scanned.append(f)
        return real(f, fvals)

    monkeypatch.setattr(vf, "singular_Fq_points", counting)
    spec = field(3)
    r = vf.decomposition_report(fc.Matrix3.from_ints(spec, [0, 1, 1, 1, 1, 0, 1, 0, 0]))
    assert r.case == fc.CASE_NONSINGULAR and r.match
    assert len(scanned) == 1
    assert r.observed["singular_points"] == 0 and r.observed["curve_singular"] is False

    scanned.clear()
    a = fc.Matrix3.from_ints(spec, [0, 0, 1, 1, 0, 0, 0, 0, 0])
    r = vf.decomposition_report(a)
    assert r.observed["lines"] and r.match
    assert len(scanned) == 2 and scanned[1] == fc.build_FA(a)


@pytest.mark.parametrize(
    "matrix",
    [
        [0, 1, 1, 1, 1, 0, 1, 0, 0],  # nonsingular
        [1, 0, 0, 0, 1, 0],  # affine filling
        [0, 0, 1, 0, 1, 0],  # II-2
    ],
)
def test_report_evaluates_its_curve_once(monkeypatch, matrix):
    # without a rational line the audited residual is the curve itself, and
    # the report reuses those values for the curve's own point count
    spec = field(3)
    if len(matrix) == 9:
        m = fc.Matrix3.from_ints(spec, matrix)
        curve, report = fc.build_FA(m), vf.decomposition_report
    else:
        m = aff.Matrix23.from_ints(spec, matrix)
        curve, report = aff.build_GM(m), vf.affine_report
    evaluated = []
    real = homog._Plane.values

    def counting(plane, f):
        evaluated.append(f)
        return real(plane, f)

    monkeypatch.setattr(homog._Plane, "values", counting)
    r = report(m)
    assert r.match and not r.observed["lines"]
    assert sum(f == curve for f in evaluated) == 1


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


@pytest.mark.parametrize("q, audits", [(5, 6), (7, 8)])
def test_sziklai_audits_the_class_representatives_above_q4(monkeypatch, capsys, q, audits):
    # above q = 4 the projective half audits one representative per class;
    # the q^6 affine sweep is stubbed out, it has its own tests
    monkeypatch.setattr(
        vf, "sweep_affine_reports",
        lambda spec, jobs=1: {"audit_checked": 0, "audit_failures": 0},
    )
    out = vf.run_suite("sziklai", q)
    assert out["projective_audits"] == audits
    assert out["audit_failures"] == 0 and out["pass"]

    real = fc.point_bound
    monkeypatch.setattr(fc, "point_bound", lambda degree, q: real(degree, q) + 1)
    assert main(["verify", "--suite", "sziklai", "--q", str(q)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["audit_failures"] > 0 and not summary["pass"]


# ---------------------------------------------------------------------------
# residuals of degree <= q compared by their values, and the witness law
# checked once per witness


def _forms_vanishing_everywhere(spec, degree):
    """Every coefficient vector of a form of the given degree whose values
    at all the rational points are zero, by walking all q^monomials
    vectors with their value vectors."""
    plane = vf._plane_for(spec)
    monos = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    columns = [plane.mono_column(key) for key in monos]
    add, mul = spec._add, spec._mul
    found = []

    def walk(k, coeffs, vals):
        if k == len(monos):
            if not any(vals):
                found.append(tuple(coeffs))
            return
        for c in range(spec.q):
            crow = mul[c]
            walk(k + 1, coeffs + [c], [add[v][crow[x]] for v, x in zip(vals, columns[k])])

    walk(0, [], [0] * len(plane.points))
    return found


@pytest.mark.parametrize("q", (2, 3))
def test_no_nonzero_form_of_degree_at_most_q_vanishes_everywhere(q):
    spec = field(q)
    for degree in range(q + 1):
        assert _forms_vanishing_everywhere(spec, degree) == [(0,) * ((degree + 1) * (degree + 2) // 2)]
    # the bound is sharp: x^q z - x z^q vanishes at every rational point
    h = HomogPoly(spec, q + 1, {(q, 0, 1): 1, (1, 0, q): spec.neg(1)})
    assert not any(vf._plane_for(spec).values(h))


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("family", ("affine", "projective"))
def test_residuals_of_degree_q_plus_1_are_compared_as_polynomials(monkeypatch, q, family):
    # II-2 and 4.1, each moved off its canonical form
    spec = field(q)
    if family == "affine":
        shear = aff.BTransform(spec, ((1, 1), (0, 1)), (1, 0), 1)
        m = aff.apply_transform(aff.Matrix23.from_ints(spec, [0, 0, 1, 0, 1, 0]), shear)
        report = vf.affine_report
    else:
        b = fc.Matrix3.from_ints(spec, [1, 1, 0, 0, 1, 1, 0, 0, 1])
        m = product(b, fc.Matrix3.from_ints(spec, [0, 0, 1, 1, 0, 0, 0, 0, 0]), b.inverse())
        report = vf.decomposition_report
    captured = []
    real = vf.transported_multiple

    def capture(g, eq, rows, gvals=None, images=None):
        captured.append((g, eq, rows))
        return real(g, eq, rows, gvals, images)

    monkeypatch.setattr(vf, "transported_multiple", capture)
    r = report(m)
    assert r.case in (aff.AFFINE_II2, fc.CASE_4_1) and r.match, r.discrepancies
    ((g, eq, rows),) = captured
    assert g.degree == eq.degree == q + 1 and rows is not None
    h = HomogPoly(spec, q + 1, {(q, 0, 1): 1, (1, 0, q): spec.neg(1)})
    plane = vf._plane_for(spec)
    assert plane.values(g + h) == plane.values(g)
    assert vf.transported_multiple(g, eq, rows)
    assert not vf.transported_multiple(g + h, eq, rows)


def test_transported_multiple_needs_a_nonzero_scalar():
    spec = field(3)
    rows = ((1, 1, 0), (0, 1, 2), (0, 0, 1))
    eq = HomogPoly(spec, 2, {(2, 0, 0): 1, (0, 1, 1): 2})
    zero = HomogPoly(spec, 2)
    g = linear_substitute(eq, rows)
    assert vf.transported_multiple(g.scaled(2), eq, rows)
    assert not vf.transported_multiple(zero, eq, rows)
    assert not vf.transported_multiple(g, zero, rows)
    assert vf.transported_multiple(zero, zero, rows)
    assert not vf.transported_multiple(HomogPoly(spec, 3), eq, rows)


def _perturbed(eq):
    """eq with 1 added to the coefficient of its leading monomial."""
    spec = eq.spec
    terms = dict(eq.terms)
    lead = max(terms)
    terms[lead] = spec._add[terms[lead]][1]
    return HomogPoly(spec, eq.degree, terms)


def _reference_multiple(g, eq, rows):
    h = eq if rows is None else linear_substitute(eq, rows)
    return scalar_ratio(g, h) is not None


def _criterion(g, eq, rows):
    """Which part of ``transported_multiple`` decides: "as it stands" for no
    rows, "values" up to degree q, "partials" in degree q + 1."""
    if rows is None:
        return "as it stands"
    return "values" if eq.degree <= g.spec.q else "partials"


@pytest.fixture
def checked_residuals(monkeypatch):
    """Wraps transported_multiple so that each call, the same call with a
    perturbed equation and, in degree q + 1, with U, V or W added to the
    residual (which leaves its values alone), must agree with scalar_ratio
    against linear_substitute; returns the tally of (criterion, result)
    pairs, "U", "V" and "W" counting the residuals moved by a generator."""
    real = vf.transported_multiple
    tally = {}

    def count(key):
        tally[key] = tally.get(key, 0) + 1

    def checking(g, eq, rows, gvals=None, images=None):
        got = real(g, eq, rows, gvals, images)
        criterion = _criterion(g, eq, rows)
        wrong = _perturbed(eq)
        for e, result in ((eq, got), (wrong, real(g, wrong, rows, gvals, images))):
            assert result == _reference_multiple(g, e, rows), (g, e, rows)
            count((criterion, result))
        if criterion == "partials":
            for name, gen in zip("UVW", fc.build_UVW(g.spec)):
                moved = g + gen
                result = real(moved, eq, rows, gvals, images)
                assert result == _reference_multiple(moved, eq, rows), (name, g, eq, rows)
                count((name, result))
        return got

    monkeypatch.setattr(vf, "transported_multiple", checking)
    return tally


def _assert_every_criterion_decided(tally):
    # every correct residual agrees, some perturbed ones are rejected by
    # their values, and every residual moved by U, V or W is rejected by
    # its partials
    assert tally["values", True] > 0 and tally["values", False] > 0
    assert tally["partials", True] > 0 and tally["partials", False] > 0
    assert all(tally[name, False] > 0 and (name, True) not in tally for name in "UVW")


@pytest.mark.parametrize("q", (2, 3))
def test_value_criterion_agrees_with_substitution_on_every_report(checked_residuals, q):
    spec = field(q)
    proj = vf._case_range(spec, 0, q**8)
    affine = vf._affine_report_range(spec, 0, 2 * q**5)
    assert proj["checked"] == q**9
    assert proj["match_failures"] == affine["match_failures"] == 0
    _assert_every_criterion_decided(checked_residuals)
    assert checked_residuals["as it stands", True] > 0


@pytest.mark.parametrize("q", (4, 5))
def test_value_criterion_agrees_with_substitution_on_seeded_reports(checked_residuals, q):
    # seeded matrices through the reference path, and seeded slices of both
    # report sweeps
    spec = field(q)
    rng = random.Random(q * 101)
    for _ in range(60):
        a = rand_matrix3(spec, rng)
        if not a.is_scalar():
            assert vf.decomposition_report(a).match
        m = aff.Matrix23.from_ints(spec, [rng.randrange(q) for _ in range(6)])
        if not m.is_zero():
            assert vf.affine_report(m).match
    lo = rng.randrange(q**8 - 300)
    assert vf._case_range(spec, lo, lo + 300)["match_failures"] == 0
    # a slice of the 2 q^5 orbit representatives, of about 800 matrices
    width = 800 // (q - 1)
    lo = rng.randrange(2 * q**5 - width)
    affine = vf._affine_report_range(spec, lo, lo + width)
    assert affine["checked"] > 0 and affine["match_failures"] == 0
    _assert_every_criterion_decided(checked_residuals)


def test_transported_multiple_expands_a_composite_that_vanishes_everywhere(monkeypatch):
    # U composed with an invertible substitution vanishes at every rational
    # point, so only the expanded composite decides
    spec = field(3)
    u, v, w = fc.build_UVW(spec)
    rows = ((1, 1, 0), (0, 1, 2), (2, 0, 1))
    expanded = []
    real = vf.linear_substitute

    def counting(f, b):
        expanded.append(f)
        return real(f, b)

    monkeypatch.setattr(vf, "linear_substitute", counting)
    h = real(u, rows)
    for g in (h, h.scaled(2), h + v, v, w, u, HomogPoly(spec, 4)):
        expanded.clear()
        assert vf.transported_multiple(g, u, rows) == _reference_multiple(g, u, rows)
        assert expanded == [u]
    assert vf.transported_multiple(h.scaled(2), u, rows)


def test_report_sweeps_never_expand_a_residual(monkeypatch):
    # after a warm-up that builds the kernels and checks every witness law
    # once, the report sweeps compose no polynomial with a substitution
    spec = field(3)
    vf._case_range(spec, 0, 1)
    vf._affine_report_range(spec, 0, 2 * 3**5)
    calls = []
    real = linear_substitute

    def counting(f, b):
        calls.append(f)
        return real(f, b)

    for module in (homog, batch, vf, aff, fc):
        if hasattr(module, "linear_substitute"):
            monkeypatch.setattr(module, "linear_substitute", counting)
    proj = vf._case_range(spec, 0, 3**8)
    affine = vf._affine_report_range(spec, 0, 2 * 3**5)
    assert proj["checked"] == 3**9 and affine["checked"] > 0
    assert proj["match_failures"] == affine["match_failures"] == 0
    assert calls == []


def _degenerate_samples(spec):
    """Every degenerate nonzero 2x3 matrix at q = 2, 3 in counting order;
    seeded samples above."""
    q = spec.q
    if q <= 3:
        matrices = [vf._matrix_at(aff.Matrix23, 6, spec, n) for n in range(1, q**6)]
    else:
        rng = random.Random(q)
        matrices = [
            aff.Matrix23.from_ints(spec, [rng.randrange(q) for _ in range(6)]) for _ in range(150)
        ]
    return [m for m in matrices if not m.is_zero() and aff.affine_tag(m) != aff.AFFINE_FILLING]


def _per_matrix_law(m, label):
    """The per-matrix check: G_M composed with the witness is the canonical
    equation."""
    g = linear_substitute(aff.build_GM(m), label.witness.matrix_rows())
    return g == aff.build_GM(label.canonical)


def _memo_law(m, label):
    """The check affine_report makes: the witness reproduces the canonical
    matrix, and the law holds for the witness."""
    reproduces = aff.apply_transform(m, label.witness).rows_int == label.canonical.rows_int
    return reproduces and vf.witness_law_holds(label.witness)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_witness_law_memo_agrees_with_the_per_matrix_substitution(q):
    # every degenerate matrix at q = 2, 3, seeded samples above; each with
    # its own witness and with the witness of the matrix before it
    spec = field(q)
    # M -> G_M is injective: its six unit images have distinct leading terms
    assert len({max(terms) for terms in aff._gm_basis(spec)}) == 6
    matrices = _degenerate_samples(spec)
    labels = [aff.classify_affine(m) for m in matrices]
    borrowed = 0
    for m, label, before in zip(matrices, labels, labels[-1:] + labels[:-1]):
        assert _memo_law(m, label) and _per_matrix_law(m, label)
        other = dataclasses.replace(label, witness=before.witness)
        assert _memo_law(m, other) == _per_matrix_law(m, other)
        borrowed += not _memo_law(m, other)
    assert borrowed > 0


@pytest.fixture
def fresh_witness_memo():
    vf.witness_law_holds.cache_clear()
    yield
    vf.witness_law_holds.cache_clear()


@pytest.mark.parametrize("k", range(6))
def test_affine_sweep_reports_a_wrong_substitution(monkeypatch, fresh_witness_memo, k):
    # linear_substitute goes wrong on the curve of the k-th matrix unit only
    spec = field(3)
    unit = aff.build_GM(aff.Matrix23.from_ints(spec, [int(i == k) for i in range(6)]))
    real = vf.linear_substitute

    def perturbed(f, b):
        out = real(f, b)
        return _perturbed(out) if f == unit else out

    monkeypatch.setattr(vf, "linear_substitute", perturbed)
    out = vf._affine_report_range(spec, 0, 2 * 3**5)
    # every witness fails the law, so every report does
    assert out["match_failures"] == out["checked"] > 0
    assert out["first_discrepancy"].endswith(
        "substituting the witness does not give the canonical equation"
    )


def test_affine_report_flags_a_witness_with_an_altered_shift(monkeypatch):
    spec = field(3)
    m = aff.Matrix23.from_ints(spec, [2, 1, 1, 1, 0, 2])
    real = aff.classify_affine(m)
    assert real.tag == aff.AFFINE_I1
    # the left block is invertible, so any other shift moves the third column
    shifted = dataclasses.replace(
        real.witness, shift=(spec._add[real.witness.shift[0]][1], real.witness.shift[1])
    )
    monkeypatch.setattr(aff, "classify_affine", lambda M: dataclasses.replace(real, witness=shifted))
    r = vf.affine_report(m)
    assert r.discrepancies[:2] == [
        "witness transform does not reproduce the canonical matrix",
        "substituting the witness does not give the canonical equation",
    ]


class _MissesAnAffinePoint(vf._Scanned):
    def covers_affine(self):
        return False


class _DropsAPointAtInfinity(vf._Scanned):
    def at_infinity(self):
        return super().at_infinity()[1:]


@pytest.mark.parametrize(
    "scanned, expected",
    (
        (_MissesAnAffinePoint, ["curve misses an affine rational point"]),
        (
            _DropsAPointAtInfinity,
            [
                "1 points at infinity, expected 2",
                "points at infinity disagree with the left-block quadratic roots",
            ],
        ),
    ),
)
def test_affine_report_flags_a_wrong_observation(scanned, expected):
    # an I-1 matrix: two points at infinity and a nonlinear residual
    m = aff.Matrix23.from_ints(field(3), [2, 1, 1, 1, 0, 2])
    assert aff.classify_affine(m).tag == aff.AFFINE_I1
    assert vf.affine_report(m).match
    assert vf.affine_report(m, scanned(aff.build_GM(m))).discrepancies == expected


def test_affine_report_flags_a_label_with_a_wrong_rank(monkeypatch):
    m = aff.Matrix23.from_ints(field(3), [2, 1, 1, 1, 0, 2])
    real = aff.classify_affine(m)
    assert real.rank == 2
    monkeypatch.setattr(aff, "classify_affine", lambda M: dataclasses.replace(real, rank=1))
    assert vf.affine_report(m).discrepancies == [
        "nonlinear component does not follow the rank criterion"
    ]


@pytest.mark.parametrize("invertible", (True, False))
def test_affine_sweep_reports_a_witness_shift_of_the_wrong_sign(monkeypatch, invertible):
    # the mutant negates the shift of the closed-form witness: b = -M'^-1 m
    # for an invertible left block, B times the shear for a singular one;
    # its witness still reproduces the matrix it returns and obeys the law,
    # so only the lines predicted for that off-canonical matrix give it away
    # (q is odd: in characteristic 2 the sign flip changes nothing)
    spec = field(3)
    real = aff.reduce_to_canonical

    def mutant(M, shape, det):
        n, w = real(M, shape, det)
        if bool(det) == invertible:
            w = dataclasses.replace(w, shift=tuple(spec._neg[v] for v in w.shift))
            n = aff.apply_transform(M, w)
        return n, w

    monkeypatch.setattr(aff, "reduce_to_canonical", mutant)
    out = vf._affine_report_range(spec, 0, 2 * 3**5)
    assert out["match_failures"] > 0
    assert out["first_discrepancy"].split(": ", 1)[1].startswith("lines differ")


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_witness_frame_and_canonical_plan_agree_with_a_direct_computation(q):
    spec = field(q)
    plane = vf._plane_for(spec)
    index = {p.key: k for k, p in enumerate(plane.points)}
    for m in _degenerate_samples(spec):
        label = aff.classify_affine(m)
        frame = vf.witness_frame(label.witness)
        assert frame.rows == _mat3_inv(label.witness.matrix_rows(), spec)
        # each point P goes to T*P = lam*(the point)
        images = [_matvec(frame.rows, p.key, spec) for p in plane.points]
        assert frame.points == tuple(
            (index[ProjPoint(spec, v).key], next(x for x in v if x)) for v in images
        )
        plan = aff.predicted_decomposition(label)
        assert plan is aff.canonical_plan(label.tag, label.canonical)
        assert plan == aff.canonical_plan.__wrapped__(label.tag, label.canonical)


def _first_degenerate(spec, wanted):
    """The first degenerate matrix in counting order whose plan is wanted,
    with its label and plan."""
    for m in _degenerate_samples(spec):
        label = aff.classify_affine(m)
        plan = aff.predicted_decomposition(label)
        if wanted(plan):
            return m, label, plan
    raise AssertionError("no such matrix")


def _corrupt_frame(monkeypatch, witness, **fields):
    """Replace fields of the frame of one witness; every other witness keeps
    its memoized frame."""
    real = vf.witness_frame
    bad = real(witness)._replace(**fields)
    monkeypatch.setattr(vf, "witness_frame", lambda t: bad if t == witness else real(t))


def test_affine_sweep_reports_a_moved_point_image(monkeypatch):
    # the first matrix with a residual reads the canonical equation at the
    # wrong point for the last point of the plane
    spec = field(3)
    m, label, plan = _first_degenerate(spec, lambda plan: plan.residual is not None)
    frame = vf.witness_frame(label.witness)
    eq_vals = vf._plane_for(spec).values(plan.residual.equation)
    k, lam = frame.points[-1]
    moved = next(j for j, v in enumerate(eq_vals) if v != eq_vals[k])
    _corrupt_frame(monkeypatch, label.witness, points=(*frame.points[:-1], (moved, lam)))
    out = vf._affine_report_range(spec, 0, 2 * 3**5)
    assert out["match_failures"] > 0
    assert out["first_discrepancy"] == (
        f"matrix {m.to_ints()} ({label.tag}): "
        "residual equation is not a scalar multiple of the transported prediction"
    )


def test_affine_reports_at_q3_are_pinned():
    # every degenerate matrix in counting order, through the reference path
    spec = field(3)
    text = "".join(
        json.dumps(vf.affine_report(m).to_json(), sort_keys=True) for m in _degenerate_samples(spec)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6751a64cbe0d8374ad52b4e3e7e9fb21e0d11c0a2765875f058f1b74bdcb7ccc"
    )


def test_affine_sweep_reports_at_q3_are_pinned():
    # every degenerate matrix in counting order, as the sweep reports it:
    # on its orbit's observation, with the label and prediction of each
    # member derived from its representative's; the digest is the
    # reference path's
    spec = field(3)
    reports = sorted(
        (n, json.dumps(r.to_json(), sort_keys=True)) for n, _m, r in vf._affine_orbit_reports(spec, 0, 2 * 3**5)
    )
    assert [n for n, _text in reports] == [
        sum(v * 3**k for k, v in enumerate(m.to_ints())) for m in _degenerate_samples(spec)
    ]
    text = "".join(text for _n, text in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6751a64cbe0d8374ad52b4e3e7e9fb21e0d11c0a2765875f058f1b74bdcb7ccc"
    )


def _sampled_orbit_reports(q, orbits=300):
    """What ``_affine_orbit_reports`` yields for every orbit at q = 3, for
    the given number of seeded orbits above."""
    spec = field(q)
    if q <= 3:
        return list(vf._affine_orbit_reports(spec, 0, 2 * q**5))
    out, starts = [], random.Random(20261022 + q).sample(range(2 * q**5), 2 * q**5)
    for n in starts:
        reports = list(vf._affine_orbit_reports(spec, n, n + 1))
        out += reports
        orbits -= bool(reports)
        if not orbits:
            return out
    raise AssertionError("too few orbits")


def _lists(value):
    """Every list within a report's value, itself included."""
    if isinstance(value, dict):
        return [v for part in value.values() for v in _lists(part)]
    if isinstance(value, list):
        return [value, *(v for part in value for v in _lists(part))]
    return []


@pytest.mark.parametrize("q", (3, 4, 5, 7))
def test_affine_orbit_reports_equal_the_reference(q):
    # each member's report, with its label and prediction derived from its
    # representative's, against its own reference report; no two reports
    # share a list
    reports = _sampled_orbit_reports(q)
    for _n, m, r in reports:
        assert r.to_json() == vf.affine_report(m).to_json(), m.to_ints()
    lists = [id(v) for _n, _m, r in reports for part in (r.predicted, r.observed) for v in _lists(part)]
    assert len(lists) == len(set(lists))
    tags = {r.case for _n, _m, r in reports}
    assert len(reports) > 300 and {aff.AFFINE_I1, aff.AFFINE_I2, aff.AFFINE_II1} <= tags


def test_affine_sweep_reduces_each_representative_and_III3_member(monkeypatch):
    # at q = 5 the 2,656 representatives and the 18 III-3 members, which
    # classify themselves, reach the reduction; 7,950 members take it from
    # their representative
    spec = field(5)
    calls = []
    real = aff.reduce_to_canonical

    def counting(M, shape, det):
        calls.append(M)
        return real(M, shape, det)

    monkeypatch.setattr(aff, "reduce_to_canonical", counting)
    out = vf._affine_report_range(spec, 0, 2 * 5**5)
    assert out["checked"] == 10624 and out["match_failures"] == 0
    assert len(calls) == 2674
    members = [m for m in calls if next(v for v in reversed(m.to_ints()) if v) != 1]
    assert len(members) == 18
    assert all(aff.affine_tag(m) == aff.AFFINE_III3 for m in members)


@pytest.mark.parametrize("jobs", [1, 2])
def test_affine_sweep_reports_a_scaled_canonical_matrix_off_by_one_entry(monkeypatch, jobs):
    # every derived I-2 label gets its canonical matrix's first entry
    # raised by 1: exactly the I-2 members, which take their label from the
    # representative, fail its reproduce check, and the first discrepancy
    # is the one of the smallest counting index, [0, 0, 1, 2, 0, 0], which
    # the walk meets after [0, 0, 2, 2, 0, 0]
    spec = field(3)
    real = aff._scale_label

    def off_by_one(label, c, facts):
        scaled = real(label, c, facts)
        if scaled is None or scaled.tag != aff.AFFINE_I2:
            return scaled
        (a, *rest), row = scaled.canonical.rows_int
        return dataclasses.replace(
            scaled, canonical=aff.Matrix23(spec, ((spec._add[a][1], *rest), row))
        )

    monkeypatch.setattr(aff, "_scale_label", off_by_one)
    reports = list(vf._affine_orbit_reports(spec, 0, 2 * 3**5))
    failing = [(n, m) for n, m, r in reports if not r.match]
    assert {n for n, _m in failing} == {
        n for n, m, _r in reports
        if next(v for v in reversed(m.to_ints()) if v) != 1 and aff.affine_tag(m) == aff.AFFINE_I2
    }
    assert all(
        r.discrepancies[0] == "witness transform does not reproduce the canonical matrix"
        for _n, _m, r in reports if not r.match
    )
    earliest = min(failing, key=lambda f: f[0])[1]
    assert [failing[0][1].to_ints(), earliest.to_ints()] == [[0, 0, 2, 2, 0, 0], [0, 0, 1, 2, 0, 0]]
    out = vf.sweep_affine_reports(spec, jobs)
    assert out["match_failures"] == len(failing)
    assert out["first_discrepancy"] == (
        f"matrix {earliest.to_ints()} (I-2): "
        "witness transform does not reproduce the canonical matrix"
    )
    assert out["pass"] is False


PROJECTIVE_REPORT_DIGESTS = {
    2: "025a07d24aae9e9d6d4ea2805583f0a9461fbf451c71a22086c43f9bc6c8d46c",
    3: "4deb5cefb65b7102c66ff417ee0d272928649cf38cae7ff4e64f0935fdf60dcc",
}


@pytest.mark.parametrize("q, path", ((2, "packed"), (2, "reference"), (3, "packed")))
def test_projective_reports_are_pinned(q, path):
    # every matrix in counting order, reported as the sweeps report it, on
    # the observation of its scalar-shift orbit through the packed kernel
    # and with the basis derived from the orbit's first matrix, or
    # evaluated point by point with its own basis; both paths give one
    # digest
    spec = field(q)
    if path == "packed":
        reports = sorted(
            (n, json.dumps(r.to_json(), sort_keys=True)) for n, _a, r in vf._orbit_reports(spec, 0, q**8)
        )
        assert [n for n, _text in reports] == list(range(q**9))
        text = "".join(text for _n, text in reports)
    else:
        reports = (vf.decomposition_report(vf._matrix_at(fc.Matrix3, 9, spec, n)) for n in range(q**9))
        text = "".join(json.dumps(r.to_json(), sort_keys=True) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == PROJECTIVE_REPORT_DIGESTS[q]


def test_orbit_reports_at_q4_equal_the_reference():
    # the orbits R + mu E of 500 seeded representatives, reported as the
    # sweep reports them, against each matrix's own reference report
    spec = field(4)
    cases = set()
    for rep in random.Random(4).sample(range(4**8), 500):
        for _n, a, r in vf._orbit_reports(spec, rep, rep + 1):
            assert r.to_json() == vf.decomposition_report(a).to_json(), a.to_ints()
            cases.add(r.case)
    assert {fc.CASE_1, fc.CASE_2, fc.CASE_3_1} <= cases


def test_affine_reports_shape_each_left_block_quadratic_once(monkeypatch):
    # each report on a degenerate matrix at q = 3 shapes its left-block
    # quadratic once, takes the rank only for a singular left block and
    # asks whether the matrix is zero in build_GM, the classification and
    # that rank alone; over the sweep each quadratic is shaped once
    spec = field(3)
    shaped, calls = [], []
    real_shape, real_left = aff.quad_shape, aff.left_quad_shape
    real_rank, real_zero = aff.Matrix23.rank, aff.Matrix23.is_zero

    def counting(s, a, b, c):
        shaped.append((a, b, c))
        return real_shape(s, a, b, c)

    def counted(name, real):
        def wrapper(M):
            calls.append((name, M))
            return real(M)
        return wrapper

    monkeypatch.setattr(aff, "quad_shape", counting)
    monkeypatch.setattr(aff, "left_quad_shape", counted("left_quad_shape", real_left))
    monkeypatch.setattr(aff.Matrix23, "rank", counted("rank", real_rank))
    monkeypatch.setattr(aff.Matrix23, "is_zero", counted("is_zero", real_zero))
    aff.memo_quad_shape.cache_clear()
    reports = 0
    try:
        kern = batch.affine_kernel(spec)
        for entries, packed, irreducible in batch.affine_images(spec, 0, 3**6):
            if irreducible:
                continue
            m, obs = aff.Matrix23.from_ints(spec, entries), batch.observe(kern, packed)
            calls.clear()
            assert vf.affine_report(m, obs).match
            singular = not aff._det2(m.left_block(), spec)
            names = [name for name, _M in calls]
            on_m = [name for name, M in calls if M is m]
            assert names.count("left_quad_shape") == on_m.count("left_quad_shape") == 1
            assert names.count("rank") == on_m.count("rank") == singular
            assert on_m.count("is_zero") == 2 + singular, m.to_ints()
            reports += 1
    finally:
        aff.memo_quad_shape.cache_clear()
    assert reports == 3**6 - 1 - 162  # less the (q - 1)(q^2 - q)/2 * q^3 filling matrices
    assert len(shaped) == len(set(shaped)) <= 3**3


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_singular_points_match_evaluating_the_partials(q):
    rng = random.Random(q + 40)
    spec = field(q)
    plane = vf._plane_for(spec)
    curves = [rand_homog(spec, rng, degree, max_terms=8) for degree in (2, 3, q + 1) for _ in range(40)]
    curves += [fc.build_FA(rand_matrix3(spec, rng)) for _ in range(20)]
    curves += [aff.build_GM(m) for m in (rand_matrix23(spec, rng) for _ in range(20))]
    singular = 0
    for f in curves:
        if f.is_zero():
            continue
        expected = [
            p for p in plane.points
            if all(g.eval(p) == 0 for g in (f, *partials(f)))
        ]
        assert vf.singular_Fq_points(f) == expected
        singular += bool(expected)
    assert singular > 0


# ---------------------------------------------------------------------------
# worker processes: --jobs is clamped, and every exhaustive sweep uses it


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the requested process
    count and runs the workers in this process, so none is started."""

    created = []

    def __init__(self, processes):
        RecordingPool.created.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args):
        return [fn(*a) for a in args]


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(sweep, "Pool", RecordingPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
    RecordingPool.created = []
    return RecordingPool.created


def test_jobs_are_clamped_to_the_cpu_count(recording_pool):
    out = vf.run_suite("plane-filling", 2, jobs=5000)
    assert recording_pool == [3]
    assert out == vf.run_suite("plane-filling", 2, jobs=1)
    assert recording_pool == [3]


def test_unknown_cpu_count_runs_in_process(recording_pool, monkeypatch):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert vf.run_suite("plane-filling", 2, jobs=2)["pass"]
    assert recording_pool == []


def test_affine_suites_use_a_pool(recording_pool):
    assert vf.run_suite("affine-6", 2, jobs=2)["pass"]
    assert recording_pool == [2, 2]
    assert vf.run_suite("sziklai", 2, jobs=2)["pass"]
    assert recording_pool == [2, 2, 2, 2]


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_a_worker_receives_the_cached_field(q):
    # workers take (spec, lo, hi): a spec crosses to a worker as (p, e) and
    # comes out as the field make_field caches there, not a copy of its tables
    spec = field(q)
    data = pickle.dumps(spec)
    assert pickle.loads(data) is make_field(spec.p, spec.e)
    assert len(data) < 100


def test_affine_summaries_do_not_depend_on_jobs():
    one = vf.run_suite("affine-6", 3, jobs=1)
    two = vf.run_suite("affine-6", 3, jobs=2)
    assert json.dumps(one) == json.dumps(two)
    assert one["filling"]["checked"] == 3**6 - 1
