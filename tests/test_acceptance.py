"""Acceptance suite: one test per criterion, each printing a PASS line.

The exhaustive projective sweeps are shared through module-scoped fixtures
since several criteria read different counters out of the same sweep.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the q = 4 sweep covers all 262144 matrices and dominates the
runtime (a few minutes on two cores).
"""

import random
import time

import pytest

from planefill import affine as aff
from planefill import fillcurve as fc
from planefill import verify as vf
from planefill.homog import HomogPoly, linear_substitute
from support import (
    field,
    rand_btransform,
    rand_invertible3,
    rand_matrix23,
    rand_matrix3,
)

EXHAUSTIVE_QS = (2, 3, 4)


def _announce(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


@pytest.fixture(scope="module")
def fill_sweeps():
    out = {}
    for q in EXHAUSTIVE_QS:
        start = time.monotonic()
        out[q] = vf.sweep_plane_filling(field(q), jobs=2)
        out[q]["elapsed"] = time.monotonic() - start
    return out


@pytest.fixture(scope="module")
def case_sweeps():
    return {q: vf.sweep_case_reports(field(q), jobs=2) for q in EXHAUSTIVE_QS}


@pytest.fixture(scope="module")
def representative_sweeps():
    return {q: vf.sweep_case_representatives(field(q)) for q in (5, 7)}


@pytest.fixture(scope="module")
def affine_report_sweeps():
    return {q: vf.sweep_affine_reports(field(q)) for q in EXHAUSTIVE_QS}


def test_criterion_1_plane_filling(fill_sweeps):
    for q in EXHAUSTIVE_QS:
        out = fill_sweeps[q]
        assert out["checked"] == q**9
        assert out["fill_failures"] == 0, out["first_discrepancy"]
    assert fill_sweeps[4]["elapsed"] < 10.0
    _announce(1, "every non-scalar matrix fills the plane, exhaustive q in {2,3,4} "
                 f"(q=4 took {fill_sweeps[4]['elapsed']:.1f}s)")


def test_criterion_2_zero_polynomial_exactly_for_scalars(fill_sweeps):
    for q in EXHAUSTIVE_QS:
        out = fill_sweeps[q]
        assert out["kernel_failures"] == 0, out["first_discrepancy"]
        assert out["scalars"] == q
    _announce(2, "the curve polynomial vanishes exactly on scalar matrices, "
                 "exhaustive q in {2,3,4}")


def test_criterion_3_irreducibility_cycle(case_sweeps):
    for q in EXHAUSTIVE_QS:
        out = case_sweeps[q]
        assert out["cycle_failures"] == 0, out["first_discrepancy"]
    _announce(3, "irreducible characteristic polynomial <=> no rational linear "
                 "component <=> no singular rational point, exhaustive q in {2,3,4}")


def test_criterion_4_decomposition_reports(case_sweeps, representative_sweeps):
    for q in EXHAUSTIVE_QS:
        out = case_sweeps[q]
        assert out["checked"] == q**9
        assert out["match_failures"] == 0, out["first_discrepancy"]
    for q, out in representative_sweeps.items():
        assert out["match_failures"] == 0, out["first_discrepancy"]
        assert out["orbit_sum_ok"]
    _announce(4, "all seven splitting cases verified: exhaustive q in {2,3,4}, "
                 "one representative per equivalence class at q in {5,7}")


def test_criterion_4_case_histogram_is_the_class_orbit_sizes(case_sweeps):
    # the exhaustive sweep and the class enumeration behind theorem-4 at
    # q >= 5 count the same matrices per case
    for q in EXHAUSTIVE_QS:
        expected = {fc.CASE_4_3: q}
        for rep in fc.equivalence_representatives(field(q)):
            expected[rep.tag] = expected.get(rep.tag, 0) + rep.orbit_size
        assert case_sweeps[q]["cases"] == expected
    _announce(4, "the exhaustive case histograms are the orbit sizes of the class "
                 "representatives plus the q scalars, q in {2,3,4}")


def test_criterion_5_minimal_polynomial_criterion(case_sweeps):
    for q in EXHAUSTIVE_QS:
        out = case_sweeps[q]
        assert out["minpoly_criterion_failures"] == 0, out["first_discrepancy"]
    _announce(5, "nonlinear component <=> minimal polynomial equals characteristic "
                 "polynomial, same sweeps")


def test_criterion_6_exceptional_quartic():
    spec = field(4)
    quartic = vf.exceptional_quartic(spec)
    assert vf.count_points(quartic) == 14
    _announce(6, "the exceptional quartic over GF(4) has exactly 14 rational points")


def test_criterion_7_affine_filling_characterization():
    for q in (2, 3, 4, 5, 7):
        out = vf.sweep_affine_filling(field(q))
        assert out["checked"] == q**6 - 1
        assert out["filling"] == (q * q - q) // 2 * q**2 * q * (q - 1)
        assert out["pass"], out["first_discrepancy"]
    _announce(7, "irreducible left-block quadratic <=> the curve is exactly the "
                 "affine plane, with one singular point and no rational line, "
                 "exhaustive q in {2,3,4,5,7}")


def test_criterion_8_affine_classification(affine_report_sweeps):
    for q in EXHAUSTIVE_QS:
        out = affine_report_sweeps[q]
        assert out["match_failures"] == 0, out["first_discrepancy"]
        assert set(out["labels"]) <= {
            "I-1", "I-2", "I-3", "II-1", "II-2", "II-3", "III-1", "III-3"
        }
    assert set(affine_report_sweeps[3]["labels"]) == {
        "I-1", "I-2", "I-3", "II-1", "II-2", "II-3", "III-1", "III-3"
    }
    _announce(8, "every degenerate 2x3 matrix reduces exactly to its canonical "
                 "form and matches the predicted components, exhaustive q in {2,3,4}")


def test_criterion_9_point_count_bounds(case_sweeps, affine_report_sweeps):
    for q in EXHAUSTIVE_QS:
        proj = case_sweeps[q]
        assert proj["audit_checked"] > 0
        assert proj["audit_failures"] == 0, proj["first_discrepancy"]
        affr = affine_report_sweeps[q]
        assert affr["audit_checked"] > 0
        assert affr["audit_failures"] == 0, affr["first_discrepancy"]
    _announce(9, "every residual satisfies the point-count bound, with equality "
                 "exactly for the maximal kinds")


def test_criterion_10_random_images_stay_collinear():
    start = time.monotonic()
    out = vf.sweep_missing_point_images(field(7), samples=200)
    elapsed = time.monotonic() - start
    assert out["checked"] == 200
    assert out["pass"], out["first_discrepancy"]
    assert elapsed < 60.0
    _announce(10, f"200 random projective images of filling curves over GF(7) keep "
                  f"49 points with collinear complement ({elapsed:.1f}s)")


def test_criterion_11_property_suites():
    cases_per_law = 1000
    qs = (2, 3, 4, 5)

    rng = random.Random(20260811)
    # field axioms on random triples
    for _ in range(cases_per_law):
        spec = field(qs[rng.randrange(len(qs))])
        a, b, c = (spec.element(rng.randrange(spec.q)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a.val:
            assert a * a.inverse() == spec.one

    # transformation law of the generator column under coordinate change
    for _ in range(cases_per_law):
        spec = field(qs[rng.randrange(len(qs))])
        uvw = fc.build_UVW(spec)
        b = rand_invertible3(spec, rng)
        m = b.inverse().transpose().scale(b.det())
        i = rng.randrange(3)
        lhs = linear_substitute(uvw[i], b)
        rhs = HomogPoly.zero(spec, spec.q + 1)
        for j in range(3):
            rhs = rhs + uvw[j].scaled(m.rows_int[i][j])
        assert lhs == rhs

    # the affine-family substitution law, exactly
    for _ in range(cases_per_law):
        spec = field(qs[rng.randrange(len(qs))])
        m23 = rand_matrix23(spec, rng)
        t = rand_btransform(spec, rng)
        image = aff.apply_transform(m23, t)
        if image.is_zero():
            continue
        assert linear_substitute(aff.build_GM(m23), t.matrix_rows()) == aff.build_GM(image)

    # the case tag and the characteristic orbit are invariant under the
    # full matrix relation
    for _ in range(cases_per_law):
        spec = field(qs[rng.randrange(len(qs))])
        a = rand_matrix3(spec, rng)
        if a.is_scalar():
            continue
        b = rand_invertible3(spec, rng)
        rho = rng.randrange(1, spec.q)
        mu = rng.randrange(spec.q)
        bt = b.transpose()
        other = (bt @ a @ bt.inverse()).scale(rho) + fc.Matrix3.identity(spec).scale(mu)
        assert fc.classify(other).tag == fc.classify(a).tag
        assert fc.charpoly(other).coeffs in fc._orbit(fc.charpoly(a))

    _announce(11, f"four property laws hold on {cases_per_law} randomized cases "
                  "each, q up to 5")
