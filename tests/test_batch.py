"""The packed kernels of planefill.batch against the reference path.

Every packed image is compared with ``build_FA`` or ``build_GM`` +
``plane.values``, the packed line divisibility with trial division by
every rational line (``support.divide_by_every_line``, which has no
filter ahead of it) and the packed singular points with
``singular_Fq_points``, and so is the packed observation of each residual
the report sweeps scan: exhaustively at q = 2 and 3, on a seeded sample at
q = 4, 5 and 9.  The failure-path tests corrupt one table or memo entry and
check that the sweeps report it at the first failing matrix in counting
order.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planefill import affine as aff
from planefill import batch
from planefill import fillcurve as fc
from planefill import verify as vf
from planefill.gf import base_digits
from planefill.homog import HomogPoly, linear_substitute, partials
from planefill.poly import QUAD_IRREDUCIBLE, QUAD_TWO_DISTINCT, quad_shape
from support import divide_by_every_line, field, rand_matrix3, rand_matrix23

SAMPLES = {4: 400, 5: 200, 9: 40}


def _matrices(q):
    spec = field(q)
    if q <= 3:
        return [vf._matrix_at(fc.Matrix3, 9, spec, n) for n in range(q**9)]
    rng = random.Random(20261018 + q)
    return [rand_matrix3(spec, rng) for _ in range(SAMPLES[q])]


def _affine_matrices(q):
    spec = field(q)
    if q <= 3:
        return [vf._matrix_at(aff.Matrix23, 6, spec, n) for n in range(1, q**6)]
    rng = random.Random(20261018 + q)
    return [rand_matrix23(spec, rng) for _ in range(SAMPLES[q])]


def _line_index(spec, line):
    return vf._plane_for(spec).line_coeffs.index(line.line_coeffs())


def _line_search(f):
    """The reference line search as (index in plane order, multiplicity)."""
    return [(_line_index(f.spec, l), m) for l, m in divide_by_every_line(f).lines]


def _chunks(values, size):
    return [values[i:i + size] for i in range(0, len(values), size)]


def _chart_blocks(f, charts):
    """For k = 0, 1, 2, the coefficients of s^(d-k-j) t^j w^k in
    f(R(s, t, w)), j = 0, ..., d-k, for each chart R."""
    d = f.degree
    restrictions = [linear_substitute(f, rows).terms for rows in charts]
    return [
        [[terms.get((d - k - j, j, k), 0) for j in range(d - k + 1)] for terms in restrictions]
        for k in range(3)
    ]


def _kernel_blocks(kern, image, d):
    """The w^0, w^1 and w^2 sections of a packed image, one block per line."""
    return [_chunks(kern.section(image, f"w{k}"), d - k + 1) for k in range(3)]


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
    charts = list(batch._line_charts(spec))
    lines_blocks = kern.blocks("w0", q + 3)
    point_blocks = kern.blocks("points", 4)
    matrices = _matrices(q)
    # the chart substitutions cost most: every 19th matrix at q = 3, where
    # test_observation_matches_the_oracle checks what w^1, w^2 say of all
    stride = 1 if q != 3 else 19
    for n, a in enumerate(matrices):
        image = kern.image(a)
        if a.is_scalar():
            assert not image
            continue
        points = _chunks(kern.section(image, "points"), 4)
        lines = _chunks(kern.section(image, "w0"), q + 3)
        f = fc.build_FA(a)
        columns = [plane.values(g) for g in (f, *partials(f))]
        assert points == [list(p) for p in zip(*columns)]
        if n % stride == 0:
            assert _kernel_blocks(kern, image, q + 2) == _chart_blocks(f, charts), a.to_ints()

        divisors = {plane.line_coeffs[i] for i, block in enumerate(lines) if not any(block)}
        observed = {l.line_coeffs() for l, _ in divide_by_every_line(f).lines}
        assert divisors == observed, a.to_ints()
        assert lines_blocks.any_zero(image) == bool(divisors)

        singular = {plane.points[i].key for i, block in enumerate(points) if not any(block)}
        assert singular == {p.key for p in vf.singular_Fq_points(f)}, a.to_ints()
        assert point_blocks.any_zero(image) == bool(singular)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_affine_kernel_matches_the_oracle(q):
    spec = field(q)
    kern = batch.affine_kernel(spec)
    plane = vf._plane_for(spec)
    d = q + 1
    charts = list(batch._line_charts(spec))
    w = HomogPoly.variable(spec, 2)
    assert [linear_substitute(l, rows) for l, rows in zip(plane.lines, charts)] == [w] * len(charts)
    masked = kern.lanes.unpack(kern.affine_values)
    assert [i for i, v in enumerate(masked) if v] == [4 * i for i in plane.affine_idx]
    for m in _affine_matrices(q):
        g = aff.build_GM(m)
        image = kern.image(m)
        columns = [plane.values(h) for h in (g, *partials(g))]
        assert _chunks(kern.section(image, "points"), 4) == [list(p) for p in zip(*columns)]
        assert _kernel_blocks(kern, image, d) == _chart_blocks(g, charts), m.to_ints()
        vals = columns[0]
        assert kern.infinity.count_zero(image) == sum(not vals[i] for i in plane.infinity_idx)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_packed_lines_with_multiplicity_match_the_line_search(q):
    spec = field(q)
    if q <= 3:
        pairs = list(batch.degenerate_observations(spec, 0, q**6))
        degenerate = [
            m.to_ints() for m in _affine_matrices(q)
            if aff.left_quad_shape(m).tag != QUAD_IRREDUCIBLE
        ]
        assert [m.to_ints() for m, _obs in pairs] == degenerate
    else:
        pairs = []
        for m in _affine_matrices(q):
            n = _counting_index(m)
            pairs += batch.degenerate_observations(spec, n, n + 1)
    assert pairs
    for m, obs in pairs:
        # no line of the affine family divides with multiplicity 3
        assert obs.lines == _line_search(aff.build_GM(m)), m.to_ints()


def _counting_index(m):
    q = m.spec.q
    return sum(v * q**k for k, v in enumerate(m.to_ints()))


@pytest.mark.parametrize("family", ["projective", "affine"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_observation_matches_the_oracle(family, q):
    spec = field(q)
    plane = vf._plane_for(spec)
    if family == "projective":
        kern, build = batch.cycle_kernel(spec), fc.build_FA
        matrices = [a for a in _matrices(q) if not a.is_scalar()]
    else:
        kern, build, matrices = batch.affine_kernel(spec), aff.build_GM, _affine_matrices(q)
    for m in matrices:
        f = build(m)
        obs = batch.observe(kern, kern.image(m))
        search = _line_search(f)
        if obs.lines is None:
            assert max(mult for _i, mult in search) >= 3, m.to_ints()
        else:
            assert obs.lines == search, m.to_ints()
        values = plane.values(f)
        zeros = sum(1 << kern.lanes.bit(4 * i) for i, v in enumerate(values) if not v)
        assert (obs.zeros, obs.points) == (zeros, values.count(0)), m.to_ints()
        assert obs.values() == values, m.to_ints()
        if family == "affine":
            assert obs.covers_affine() == (not any(values[i] for i in plane.affine_idx))
            assert obs.at_infinity() == [
                b for b, i in enumerate(plane.infinity_idx) if not values[i]
            ], m.to_ints()
        assert obs.singular == len(vf.singular_Fq_points(f)), m.to_ints()


def _scanned_residuals(spec, family, lo, hi):
    """(matrix, observation, residual) for the matrices lo, ..., hi-1
    whose curve keeps a residual of positive degree after dividing by its
    observed lines: the residuals the report sweeps observe with
    ``scan``."""
    if family == "projective":
        kern = batch.cycle_kernel(spec)
        observations = (
            (a, None if s is None else batch.observe(kern, s))
            for a, s in batch.projective_images(spec, lo, hi)
        )
        build = fc.build_FA
    else:
        observations, build = batch.degenerate_observations(spec, lo, hi), aff.build_GM
    for m, obs in observations:
        if obs is None or obs.lines is None:
            continue
        f = build(m)
        comps = vf._divide_out(f, obs.lines)
        if 0 < comps.residual_degree < f.degree:
            yield m, obs, comps.residual


@pytest.mark.parametrize("family", ["projective", "affine"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_residual_scan_matches_the_oracle(family, q):
    # every residual at q = 2 and 3, a seeded run of matrices above
    spec = field(q)
    plane = vf._plane_for(spec)
    total = q**9 if family == "projective" else q**6
    lo, hi = 0, total
    if q > 3:
        lo = random.Random(20261019 + q).randrange(total - 1500)
        hi = lo + 1500
    scanned = 0
    for m, obs, residual in _scanned_residuals(spec, family, lo, hi):
        values, points, singular = obs.scan(residual)
        assert values == plane.values(residual), m.to_ints()
        assert points == values.count(0), m.to_ints()
        assert singular == len(vf.singular_Fq_points(residual)), m.to_ints()
        scanned += 1
    assert scanned > 0


@pytest.mark.parametrize("q", [2, 3, 4])
def test_reports_with_the_observation_equal_the_reference(q):
    # each matrix reported against the observation shared by its orbit
    # R + mu E, where R = A - a22 E; at q = 4 the orbits of the sampled
    # matrices, and the sampled matrices among them
    spec = field(q)
    if q <= 3:
        projective = sorted(vf._shift_orbits(spec, 0, q**8))
        affine = list(batch.degenerate_observations(spec, 0, q**6))
        assert [a.to_ints() for _n, a, _seen in projective] == [a.to_ints() for a in _matrices(q)]
    else:
        projective, affine = [], []
        for a in _matrices(q):
            rep = a - fc.Matrix3.identity(spec).scale(a.rows_int[2][2])
            orbit = list(vf._shift_orbits(spec, _counting_index(rep), _counting_index(rep) + 1))
            assert _counting_index(a) in [n for n, _a, _seen in orbit]
            projective += orbit
        for m in _affine_matrices(q):
            affine += batch.degenerate_observations(spec, _counting_index(m), _counting_index(m) + 1)
    assert affine
    for n, a, seen in projective:
        assert n == _counting_index(a)
        assert (seen is None) == a.is_scalar(), a.to_ints()
        assert vf.decomposition_report(a, seen).to_json() == vf.decomposition_report(a).to_json(), a.to_ints()
    for m, obs in affine:
        assert vf.affine_report(m, obs).to_json() == vf.affine_report(m).to_json(), m.to_ints()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_quad_table_matches_quad_shape(q):
    spec = field(q)
    quad = batch.affine_kernel(spec).quad
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert quad[a][b][c] == quad_shape(spec, a, b, c).tag


def test_observed_lines_resolve_multiplicities_up_to_two():
    spec = field(3)
    x, y, z = (HomogPoly.variable(spec, i) for i in range(3))
    plane = vf._plane_for(spec)
    kern = batch._kernel(spec, [x * x * y * z, x * x * x * y, x * y * (x + y + z) * (y + z)])
    index = {l.line_coeffs(): i for i, l in enumerate(plane.lines)}
    double, triple, single = (kern.tables[k][1] for k in range(3))
    assert batch.observed_lines(kern, double) == [(index[1, 0, 0], 2), (index[0, 1, 0], 1), (index[0, 0, 1], 1)]
    assert batch.observed_lines(kern, triple) is None
    assert batch.observed_lines(kern, single) == sorted(
        (index[c], 1) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 1, 1))
    )


def _line_searches(monkeypatch, sweep):
    """The summary of sweep at q = 2, and how many line searches it made as
    it is and with every packed line set unresolved; both runs must give
    that summary."""
    spec = field(2)
    reference = sweep(spec)
    searched = []
    real = vf.find_linear_components

    def counting(f):
        searched.append(f)
        return real(f)

    monkeypatch.setattr(vf, "find_linear_components", counting)
    assert sweep(spec) == reference
    plain = len(searched)
    monkeypatch.setattr(batch, "observed_lines", lambda kern, packed: None)
    assert sweep(spec) == reference
    return reference, plain, len(searched) - plain


def test_report_sweep_takes_the_line_search_for_unresolved_lines(monkeypatch):
    reference, plain, unresolved = _line_searches(monkeypatch, vf.sweep_affine_reports)
    assert plain == 0
    assert unresolved == reference["checked"]


def test_case_report_sweep_takes_the_line_search_for_unresolved_lines(monkeypatch):
    # one search per non-scalar curve, which the q = 2 matrices R + mu E share
    reference, plain, unresolved = _line_searches(monkeypatch, vf.sweep_case_reports)
    assert plain == 0
    assert unresolved == (reference["checked"] - reference["scalars"]) // 2


@st.composite
def _curves(draw):
    """F_A of a non-scalar 3x3 or G_M of a nonzero 2x3 matrix at q <= 5,
    with the lines its packed image shows."""
    spec = field(draw(st.sampled_from((2, 3, 4, 5))))
    affine = draw(st.booleans())
    entries = draw(st.lists(st.integers(0, spec.q - 1), min_size=9, max_size=9))
    if affine:
        m = aff.Matrix23.from_ints(spec, entries[:6])
        assume(not m.is_zero())
        f, kern = aff.build_GM(m), batch.affine_kernel(spec)
    else:
        m = fc.Matrix3.from_ints(spec, entries)
        assume(not m.is_scalar())
        f, kern = fc.build_FA(m), batch.cycle_kernel(spec)
    return f, batch.observed_lines(kern, kern.image(m))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_curves())
def test_line_components_rebuild_the_curve(curve):
    f, lines = curve
    comps = divide_by_every_line(f)
    product = comps.residual
    for line, mult in comps.lines:
        for _ in range(mult):
            product = product * line
    assert product == f
    if lines is None:
        assert max(m for _l, m in comps.lines) >= 3
    else:
        assert vf._divide_out(f, lines) == comps


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


def _digit_pack(lanes, values):
    """Lanes.pack digit by digit: digit j of element i at lane i e + j."""
    p, e, w = lanes.spec.p, lanes.spec.e, lanes.width
    out = 0
    for i, v in enumerate(values):
        for j, d in enumerate(base_digits(v, p, e)):
            out |= d << ((i * e + j) * w)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pack_matches_the_digit_loop(q):
    spec = field(q)
    values = list(range(q)) + list(reversed(range(q))) + [q - 1, 0, 1]
    lanes = batch.Lanes(spec, len(values))
    for v in range(q):
        assert lanes.pack([v]) == _digit_pack(lanes, [v])
        assert lanes.unpack(lanes.pack([v]), 1) == [v]
    packed = lanes.pack(values)
    assert packed == _digit_pack(lanes, values)
    assert lanes.unpack(packed) == values
    for stride in (2, 3, 4):
        count = (len(values) + stride - 1) // stride
        assert lanes.unpack(packed, count, stride) == values[::stride]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("family", ["projective", "affine"])
def test_kernel_rows_match_the_digit_loop(family, q):
    # each packed c*E_ij row is the digit-loop packing of its elements, c
    # times those of the unit row, and adds to that row lane by lane
    spec = field(q)
    kern = (batch.cycle_kernel if family == "projective" else batch.affine_kernel)(spec)
    lanes, add, mul = kern.lanes, spec._add, spec._mul
    for row in kern.tables:
        unit = lanes.unpack(row[1])
        assert any(unit)
        for c, packed in enumerate(row):
            values = lanes.unpack(packed)
            assert values == [mul[c][v] for v in unit]
            assert packed == _digit_pack(lanes, values)
            assert lanes.unpack(kern.add(packed, row[1])) == [add[v][u] for v, u in zip(values, unit)]


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


@pytest.mark.parametrize(
    "q, lo, hi",
    [(2, 0, None), (3, 0, None), (3, 5, 77), (4, 4**5 - 3, 4**5 + 70), (4, 4**6 - 5, None), (5, 1, 2)],
)
def test_six_digit_walk_visits_each_matrix_once_in_counting_order(q, lo, hi):
    spec = field(q)
    kern = batch.affine_kernel(spec)
    hi = q**6 if hi is None else hi
    seen = []
    for n, c_lo, c_hi, digits, base in batch.walk(kern, lo, hi):
        assert len(digits) == 6
        for c in range(c_lo, c_hi):
            m = vf._matrix_at(aff.Matrix23, 6, spec, n + c - c_lo)
            assert m.to_ints() == [c, *digits[1:]]
            if len(seen) % 13 == 0:
                assert kern.add(base, kern.tables[0][c]) == kern.image(m)
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
    first, count = kern.sections["w0"]
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


def test_affine_fill_sweep_reports_a_wrong_affine_value(monkeypatch):
    spec = field(3)
    q = spec.q
    kern = batch.affine_kernel(spec)
    first, _count = kern.sections["points"]
    point = vf._plane_for(spec).affine_idx[0]
    _corrupt(monkeypatch, kern, 2, 1, [first + 4 * point])
    out = vf.sweep_affine_filling(spec)
    # every matrix with a2 = 1 misses that point, and only those
    assert out["coverage_failures"] == q**5
    assert out["iff_failures"] == out["singular_failures"] == 0
    assert out["first_discrepancy"] == "matrix [0, 0, 1, 0, 0, 0]: curve misses an affine point"
    assert out["pass"] is False


def test_affine_fill_sweep_reports_a_flipped_quad_table_entry(monkeypatch):
    spec = field(3)
    q = spec.q
    kern = batch.affine_kernel(spec)
    assert kern.quad[1][0][1] == QUAD_IRREDUCIBLE  # s^2 + t^2 over GF(3)
    quad = [[list(row) for row in plane] for plane in kern.quad]
    quad[1][0][1] = QUAD_TWO_DISTINCT
    monkeypatch.setattr(kern, "quad", quad)
    out = vf.sweep_affine_filling(spec)
    # a0 = b1 = 1, a1 + b0 = 0, any third column: filling curves taken as degenerate
    assert out["iff_failures"] == q * q**2
    assert out["filling"] == 3**6 - 1 - q * q**2 - sum(
        aff.left_quad_shape(m).tag != QUAD_IRREDUCIBLE for m in _affine_matrices(q)
    )
    assert out["first_discrepancy"] == "matrix [1, 0, 0, 0, 1, 0]: irreducible=False but points=9"
    assert out["pass"] is False


def _w1_corruption_failures(spec, matrices, build, entry, c, slot):
    """The matrices among ``matrices`` (with nonzero curves) whose report
    must fail once 1 is added to ``tables[entry][c]`` at slot ``slot`` of
    the w^1 block of the line x = 0.  By what the corrupted blocks say
    about x = 0, against the line search: a double line looks single, a
    single one double unless its w^2 block is zero too, which sends the
    matrix to the line search."""
    chart = next(batch._line_charts(spec))
    failing = []
    for m in matrices:
        if m.to_ints()[entry] != c:
            continue
        f = build(m)
        true = dict(_line_search(f)).get(0)
        if true is None:
            continue
        d = f.degree
        terms = linear_substitute(f, chart).terms
        w1 = [terms.get((d - 1 - j, j, 1), 0) for j in range(d)]
        w1[slot] = spec._add[w1[slot]][1]
        w2_zero = not any(terms.get((d - 2 - j, j, 2), 0) for j in range(d - 1))
        packed = 1 if any(w1) else 3 if w2_zero else 2
        if packed != 3 and packed != true:
            failing.append(m.to_ints())
    return failing


def test_affine_report_sweep_reports_a_wrong_w1_coefficient(monkeypatch):
    spec = field(3)
    kern = batch.affine_kernel(spec)
    first, _count = kern.sections["w1"]
    entry, c, slot = 0, 1, 1  # slot 1 of the w^1 block of the line x = 0
    degenerate = [
        m for m in _affine_matrices(spec.q) if aff.left_quad_shape(m).tag != QUAD_IRREDUCIBLE
    ]
    failing = _w1_corruption_failures(spec, degenerate, aff.build_GM, entry, c, slot)
    _corrupt(monkeypatch, kern, entry, c, [first + slot])
    out = vf.sweep_affine_reports(spec)
    assert failing
    assert out["match_failures"] == len(failing)
    assert out["first_discrepancy"].startswith(f"matrix {failing[0]} (")
    assert out["pass"] is False


def test_case_report_sweep_reports_a_wrong_w1_coefficient(monkeypatch):
    spec = field(2)
    kern = batch.cycle_kernel(spec)
    first, _count = kern.sections["w1"]
    entry, c, slot = 0, 1, 1  # slot 1 of the w^1 block of the line x = 0
    non_scalar = [a for a in _matrices(spec.q) if not a.is_scalar()]
    failing = _w1_corruption_failures(spec, non_scalar, fc.build_FA, entry, c, slot)
    _corrupt(monkeypatch, kern, entry, c, [first + slot])
    out = vf.sweep_case_reports(spec)
    assert failing
    assert out["match_failures"] == len(failing)
    assert out["cycle_failures"] == out["minpoly_criterion_failures"] == 0
    assert out["first_discrepancy"].startswith(f"matrix {failing[0]} (case ")
    assert out["pass"] is False


def test_case_report_sweep_reports_a_wrong_point_value(monkeypatch):
    spec = field(2)
    kern = batch.cycle_kernel(spec)
    first, _count = kern.sections["points"]
    entry, c = 4, 1
    _corrupt(monkeypatch, kern, entry, c, [first])  # F_A at the first point
    # every F_A vanishes there, so the observation loses that point: a
    # nonsingular curve, its own residual, then has a point too few, and a
    # curve singular only there looks nonsingular
    point = vf._plane_for(spec).points[0].key
    short, smooth = [], []  # in counting order, as the sweep meets them
    for a in _matrices(spec.q):
        if a.to_ints()[entry] != c or a.is_scalar():
            continue
        if fc.classify(a).tag == fc.CASE_NONSINGULAR:
            short.append(a.to_ints())
        elif [p.key for p in vf.singular_Fq_points(fc.build_FA(a))] == [point]:
            smooth.append(a.to_ints())
    out = vf.sweep_case_reports(spec)
    assert short and smooth
    assert out["match_failures"] == len(short)
    assert out["cycle_failures"] == len(smooth)
    first = min(short[0], smooth[0], key=lambda v: v[::-1])
    assert out["first_discrepancy"].startswith(f"matrix {first}")
    assert out["pass"] is False


def test_affine_report_sweep_reports_a_wrong_affine_value(monkeypatch):
    spec = field(3)
    kern = batch.affine_kernel(spec)
    first, _count = kern.sections["points"]
    point = vf._plane_for(spec).affine_idx[0]
    _corrupt(monkeypatch, kern, 2, 1, [first + 4 * point])
    out = vf.sweep_affine_reports(spec)
    # every degenerate matrix with a2 = 1 misses that point, and only those
    failing = [
        m.to_ints() for m in _affine_matrices(spec.q)
        if m.to_ints()[2] == 1 and aff.left_quad_shape(m).tag != QUAD_IRREDUCIBLE
    ]
    assert out["match_failures"] == len(failing) > 0
    assert out["first_discrepancy"] == f"matrix {failing[0]} (III-3): curve misses an affine rational point"
    assert out["pass"] is False


@pytest.mark.parametrize("family, term", [("affine", ((3, 0, 0), 1)), ("projective", ((1, 0, 3), 2))])
def test_report_sweeps_report_a_corrupted_residual_jet(monkeypatch, family, term):
    # 1 is added to the df/dx lane at one point of the memo entry of one
    # term: a residual holding that term changes its singular count exactly
    # when f, df/dy and df/dz vanish there and df/dx is 0 or -1; all affine
    # matrices at q = 3, and the orbits R + mu E of the first 729 projective
    # ones, which share R's residual, in counting order
    spec = field(3)
    hi = 3**6
    plane = vf._plane_for(spec)
    point = 12
    kern, sweep = (
        (batch.affine_kernel(spec), vf._affine_report_range)
        if family == "affine"
        else (batch.cycle_kernel(spec), vf._case_range)
    )
    jet = batch._point_jets(plane, HomogPoly._raw(spec, sum(term[0]), dict([term])))
    jet[4 * point + 1] = spec._add[jet[4 * point + 1]][1]
    monkeypatch.setattr(kern, "jets", {term: kern.lanes.pack(jet)})
    failing = []
    for m, _obs, residual in _scanned_residuals(spec, family, 0, hi):
        f, fx, fy, fz = (plane.value_at(g, point) for g in (residual, *partials(residual)))
        monomial, c = term
        if residual.terms.get(monomial) == c and not (f or fy or fz) and fx in (0, spec._neg[1]):
            failing.append(m)
    if family == "projective":
        identity = fc.Matrix3.identity(spec)
        failing = sorted((r + identity.scale(mu) for r in failing for mu in range(3)), key=_counting_index)
    failing = [m.to_ints() for m in failing]
    out = sweep(spec, 0, hi)
    assert out["match_failures"] == len(failing) > 0
    assert out["first_discrepancy"].startswith(f"matrix {failing[0]} (")
    assert "singular rational points" in out["first_discrepancy"]
