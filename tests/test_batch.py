"""The packed kernel of planefill.batch against the reference path.

Every packed image is compared with ``build_FA`` + ``plane.values``, the
packed line divisibility with ``find_linear_components`` and the packed
singular points with ``singular_Fq_points``: exhaustively at q = 2 and 3,
on a seeded sample at q = 4, 5 and 9.  The failure-path tests corrupt one
table entry and check that the sweeps report it at the first failing
matrix in counting order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planefill import batch
from planefill import fillcurve as fc
from planefill import verify as vf
from planefill.homog import partials
from support import field, rand_matrix3

SAMPLES = {4: 400, 5: 200, 9: 40}


def _matrices(q):
    spec = field(q)
    if q <= 3:
        return [vf._matrix_at(fc.Matrix3, 9, spec, n) for n in range(q**9)]
    rng = random.Random(20261018 + q)
    return [rand_matrix3(spec, rng) for _ in range(SAMPLES[q])]


def _chunks(values, size):
    return [values[i:i + size] for i in range(0, len(values), size)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_fill_kernel_matches_build_FA(q):
    spec = field(q)
    kern = batch.fill_kernel(spec)
    plane = vf._plane_for(spec)
    for a in _matrices(q):
        f = fc.build_FA(a)
        image = kern.image(a)
        assert set(f.terms) <= set(kern.monomials)
        assert kern.section(image, "coefficients") == [f.terms.get(m, 0) for m in kern.monomials]
        assert kern.section(image, "values") == plane.values(f)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_cycle_kernel_matches_the_oracle(q):
    spec = field(q)
    kern = batch.cycle_kernel(spec)
    plane = vf._plane_for(spec)
    lines_blocks = kern.blocks("lines", q + 3)
    point_blocks = kern.blocks("points", 4)
    for a in _matrices(q):
        image = kern.image(a)
        points = _chunks(kern.section(image, "points"), 4)
        lines = _chunks(kern.section(image, "lines"), q + 3)
        if a.is_scalar():
            assert not any(map(any, points)) and not any(map(any, lines))
            continue
        f = fc.build_FA(a)
        columns = [plane.values(g) for g in (f, *partials(f))]
        assert points == [list(p) for p in zip(*columns)]

        divisors = {plane.line_coeffs[i] for i, block in enumerate(lines) if not any(block)}
        observed = {l.line_coeffs() for l, _ in vf.find_linear_components(f).lines}
        assert divisors == observed, a.to_ints()
        assert lines_blocks.any_zero(image) == bool(divisors)

        singular = {plane.points[i].key for i, block in enumerate(points) if not any(block)}
        assert singular == {p.key for p in vf.singular_Fq_points(f)}, a.to_ints()
        assert point_blocks.any_zero(image) == bool(singular)


FIELD_ORDERS = (2, 4, 8, 3, 9, 5, 7)  # characteristics 2, 3, 5 and 7


@st.composite
def _operands(draw):
    q = draw(st.sampled_from(FIELD_ORDERS))
    size = draw(st.integers(1, 40))
    element = st.integers(0, q - 1)
    rows = [draw(st.lists(element, min_size=size, max_size=size)) for _ in range(3)]
    return q, rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_operands())
def test_packed_add_is_lane_wise_field_addition(operands):
    q, (a, b, c) = operands
    spec = field(q)
    lanes = batch.Lanes(spec, len(a))
    add = spec._add
    assert lanes.unpack(lanes.pack(a)) == a
    ab = lanes.add(lanes.pack(a), lanes.pack(b))
    assert lanes.unpack(ab) == [add[x][y] for x, y in zip(a, b)]
    # sums of sums stay reduced, as the partial sums of the walk do
    assert lanes.unpack(lanes.add(ab, lanes.pack(c))) == [
        add[add[x][y]][z] for x, y, z in zip(a, b, c)
    ]


@pytest.mark.parametrize(
    "q, lo, hi",
    [(2, 0, None), (3, 0, None), (3, 5, 77), (4, 1, 2), (4, 4**8 - 3, 4**8 + 70), (4, 4**9 - 5, None)],
)
def test_walk_visits_each_matrix_once_in_counting_order(q, lo, hi):
    spec = field(q)
    kern = batch.fill_kernel(spec)
    hi = q**9 if hi is None else hi
    seen = []
    for n, c_lo, c_hi, digits, base in batch.walk(kern, lo, hi):
        for c in range(c_lo, c_hi):
            a = vf._matrix_at(fc.Matrix3, 9, spec, n + c - c_lo)
            assert a.to_ints() == [c, *digits[1:]]
            if len(seen) % 97 == 0:
                assert kern.add(base, kern.tables[0][c]) == kern.image(a)
            seen.append(n + c - c_lo)
    assert seen == list(range(lo, hi))


# ---------------------------------------------------------------------------
# a corrupted table entry must be reported, at the first failing matrix


def _corrupt(monkeypatch, kern, entry, c, slots):
    """Add 1 at the given element slots of tables[entry][c]."""
    delta = [0] * kern.lanes.size
    for i in slots:
        delta[i] = 1
    tables = [list(row) for row in kern.tables]
    tables[entry][c] = kern.add(tables[entry][c], kern.lanes.pack(delta))
    monkeypatch.setattr(kern, "tables", tables)


def test_fill_sweep_reports_a_wrong_point_value(monkeypatch):
    spec = field(2)
    kern = batch.fill_kernel(spec)
    first, _count = kern.sections["values"]
    _corrupt(monkeypatch, kern, 4, 1, [first])
    out = vf.sweep_plane_filling(spec)
    # every matrix with entry 4 equal to 1 misses the point, except the identity
    assert out["fill_failures"] == 2**8 - 1
    assert out["kernel_failures"] == 0
    assert out["first_discrepancy"] == "matrix [0, 0, 0, 0, 1, 0, 0, 0, 0]: curve misses a rational point"
    assert out["pass"] is False


def test_fill_sweep_reports_a_nonzero_scalar_polynomial(monkeypatch):
    spec = field(3)
    kern = batch.fill_kernel(spec)
    first, _count = kern.sections["coefficients"]
    _corrupt(monkeypatch, kern, 8, 1, [first])
    out = vf.sweep_plane_filling(spec)
    # no F_A is a single monomial, so only the identity breaks
    assert out["kernel_failures"] == 1
    assert out["fill_failures"] == 0
    assert out["scalars"] == 3
    assert out["first_discrepancy"] == "matrix [1, 0, 0, 0, 1, 0, 0, 0, 1]: zero polynomial iff scalar violated"
    assert out["pass"] is False


def test_fill_sweep_reports_a_zero_polynomial_of_a_non_scalar(monkeypatch):
    spec = field(3)
    kern = batch.fill_kernel(spec)
    tables = [list(row) for row in kern.tables]
    tables[1][1] = 0
    monkeypatch.setattr(kern, "tables", tables)
    out = vf.sweep_plane_filling(spec)
    # E_01 + c*E loses its only nonzero part
    assert out["kernel_failures"] == 3
    assert out["first_discrepancy"] == "matrix [0, 1, 0, 0, 0, 0, 0, 0, 0]: zero polynomial iff scalar violated"


def test_cycle_sweep_reports_a_wrong_line_restriction(monkeypatch):
    spec = field(2)
    q = spec.q
    kern = batch.cycle_kernel(spec)
    first, count = kern.sections["lines"]
    # the s^(q+2) coefficient of every restriction: no line divides any more
    _corrupt(monkeypatch, kern, 0, 1, range(first, first + count, q + 3))
    out = vf.run_suite("theorem-2.4", q)
    reducible = [
        n for n in range(q**9)
        if n % q == 1
        and not (a := vf._matrix_at(fc.Matrix3, 9, spec, n)).is_scalar()
        and fc.classify(a).tag != fc.CASE_NONSINGULAR
    ]
    assert out["checked"] == q**9
    assert out["cycle_failures"] == len(reducible) > 0
    assert out["first_discrepancy"] == (
        "matrix [1, 0, 0, 0, 0, 0, 0, 0, 0]: irreducible=False no-lines=True no-singular=False"
    )
    assert out["pass"] is False
