import hashlib
import itertools
import random

import pytest

from planefill import affine as aff
from planefill.homog import HomogPoly, _matmul, _transpose, linear_substitute
from planefill.verify import _matrix_at, _plane_for
from support import compose, field, rand_btransform, rand_matrix23

# entry-pattern checks for the canonical shape of each tag (the two tags
# needing sign relations, II-1 and III-1, are checked in their own tests)
CANONICAL_SHAPES = {
    aff.AFFINE_I1: lambda r: r[0][0] == r[0][2] == r[1][1] == r[1][2] == 0
    and bool(r[0][1] and r[1][0]),
    aff.AFFINE_I2: lambda r: r[0][0] == r[0][2] == r[1][0] == r[1][1] == 0
    and bool(r[0][1] and r[1][2]),
    aff.AFFINE_I3: lambda r: r[0][1] != 0
    and not any((r[0][0], r[0][2], *r[1])),
    aff.AFFINE_II2: lambda r: r[0][1] == r[0][2] == r[1][0] == r[1][1] == 0
    and bool(r[0][0] and r[1][2]),
    aff.AFFINE_II3: lambda r: r[0][0] != 0
    and not any((r[0][1], r[0][2], *r[1])),
    aff.AFFINE_III3: lambda r: r[0][2] == 1
    and not any((r[0][0], r[0][1], *r[1])),
}


def matrix(q, vals):
    return aff.Matrix23.from_ints(field(q), vals)


def reduce(m):
    """``reduce_to_canonical`` given the left-block shape and determinant."""
    return aff.reduce_to_canonical(m, aff.left_quad_shape(m), aff._det2(m.left_block(), m.spec))


def test_build_GM_I2_canonical():
    for q in (2, 3, 4):
        spec = field(q)
        m = aff.Matrix23.from_ints(spec, [0, 1, 0, 0, 0, 1])
        y = HomogPoly.variable(spec, 1)
        factor = HomogPoly(
            spec, q,
            {(q, 0, 0): 1, (1, 0, q - 1): spec.neg(1), (0, q - 1, 1): 1, (0, 0, q): spec.neg(1)},
        )
        assert aff.build_GM(m) == y * factor


def test_build_GM_III3_canonical():
    for q in (2, 3):
        spec = field(q)
        m = aff.Matrix23.from_ints(spec, [0, 0, 1, 0, 0, 0])
        assert aff.build_GM(m) == HomogPoly(
            spec, q + 1, {(q, 0, 1): 1, (1, 0, q): spec.neg(1)}
        )


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_build_GM_is_its_defining_product(q):
    # G_M = (x^q - x z^(q-1), y^q - y z^(q-1)) M (x,y,z)^t in whole-polynomial
    # arithmetic: every nonzero matrix at q = 2, 3, seeded ones above
    spec = field(q)
    x, y, z = (HomogPoly.variable(spec, i) for i in range(3))
    left = [v**q - v * z ** (q - 1) for v in (x, y)]
    if q <= 3:
        matrices = [
            aff.Matrix23.from_ints(spec, v) for v in itertools.product(range(q), repeat=6)
        ][1:]
    else:
        rng = random.Random(53)
        matrices = [rand_matrix23(spec, rng) for _ in range(300)]
    for m in matrices:
        expected = HomogPoly(spec, q + 1)
        for p, row in zip(left, m.rows_int):
            expected = expected + p * HomogPoly.linear_form(spec, row)
        assert aff.build_GM(m) == expected


def test_build_GM_zero_matrix_rejected():
    with pytest.raises(ValueError):
        aff.build_GM(matrix(3, [0] * 6))


def test_filling_curve_is_exactly_the_affine_plane():
    q = 3
    spec = field(q)
    m = aff.Matrix23.from_ints(spec, [1, 0, 0, 0, 1, 0])  # s^2 + t^2, irreducible
    g = aff.build_GM(m)
    on = [pt for pt in _plane_for(spec).points if g.eval(pt) == 0]
    assert len(on) == q * q
    assert all(pt.key[2] for pt in on)


def test_apply_transform_identity_and_composition():
    rng = random.Random(3)
    for q in (2, 3, 4):
        spec = field(q)
        ident = aff.BTransform.identity(spec)
        for _ in range(30):
            m = rand_matrix23(spec, rng)
            assert aff.apply_transform(m, ident).rows_int == m.rows_int
            s = rand_btransform(spec, rng)
            t = rand_btransform(spec, rng)
            assert (
                aff.apply_transform(aff.apply_transform(m, s), t).rows_int
                == aff.apply_transform(m, compose(s, t)).rows_int
            )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_blockwise_algebra_matches_the_matrix_products(q):
    # apply_transform, computed block by block, is tB M (B b; 0 lam); the
    # product of two transforms' matrices keeps the bottom row (0 0 lam)
    spec = field(q)
    rng = random.Random(20261019 + q)
    for _ in range(200):
        m = rand_matrix23(spec, rng, nonzero=False)
        s, t = rand_btransform(spec, rng), rand_btransform(spec, rng)
        moved = _matmul(m.rows_int, s.matrix_rows(), spec)
        assert aff.apply_transform(m, s).rows_int == _matmul(_transpose(s.block), moved, spec)
        assert _matmul(s.matrix_rows(), t.matrix_rows(), spec)[2] == (0, 0, spec._mul[s.lam][t.lam])


def test_transform_matches_substitution_exactly():
    rng = random.Random(5)
    for q in (2, 3, 4):
        spec = field(q)
        for _ in range(30):
            m = rand_matrix23(spec, rng)
            s = rand_btransform(spec, rng)
            image = aff.apply_transform(m, s)
            if image.is_zero():
                continue
            assert linear_substitute(aff.build_GM(m), s.matrix_rows()) == aff.build_GM(image)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_rank_two_iff_the_row_space_has_q_squared_elements(q):
    # exhaustive at q = 2, 3 (the zero matrix included), seeded at q = 4, 5
    spec = field(q)
    if q <= 3:
        matrices = [
            aff.Matrix23.from_ints(spec, v) for v in itertools.product(range(q), repeat=6)
        ]
    else:
        rng = random.Random(17)
        matrices = [rand_matrix23(spec, rng) for _ in range(300)]
    for m in matrices:
        r0, r1 = m.rows_int
        span = {
            tuple(spec._add[spec._mul[a][x]][spec._mul[b][y]] for x, y in zip(r0, r1))
            for a in range(q)
            for b in range(q)
        }
        assert m.rank() == {1: 0, q: 1, q * q: 2}[len(span)]


def test_transform_validation():
    spec = field(3)
    with pytest.raises(ValueError):
        aff.BTransform(spec, ((1, 0), (0, 1)), (0, 0), 0)
    with pytest.raises(ValueError):
        aff.BTransform(spec, ((1, 1), (1, 1)), (0, 0), 1)


def test_classify_examples():
    spec3 = field(3)
    lab = aff.classify_affine(aff.Matrix23.from_ints(spec3, [0, 1, 0, 2, 0, 0]))
    assert lab.tag == aff.AFFINE_III1

    lab = aff.classify_affine(aff.Matrix23.from_ints(spec3, [1, 0, 0, 0, 0, 0]))
    assert lab.tag == aff.AFFINE_II3

    m = aff.Matrix23.from_ints(spec3, [1, 0, 0, 0, 1, 0])
    lab = aff.classify_affine(m)
    assert lab.tag == aff.AFFINE_FILLING
    assert lab.canonical.rows_int == m.rows_int
    assert lab.witness.matrix_rows() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_classify_zero_matrix_rejected():
    with pytest.raises(ValueError):
        aff.classify_affine(matrix(3, [0] * 6))
    with pytest.raises(ValueError, match="zero matrix"):
        reduce(matrix(3, [0] * 6))


def test_reduce_clears_third_column_when_block_invertible():
    rng = random.Random(7)
    for q in (3, 4, 5):
        spec = field(q)
        for _ in range(40):
            m = rand_matrix23(spec, rng)
            if aff._det2(m.left_block(), spec) == 0:
                continue
            if aff.left_quad_shape(m).tag == "irreducible":
                continue
            n, t = reduce(m)
            assert (n.rows_int[0][2], n.rows_int[1][2]) == (0, 0)
            assert aff.apply_transform(m, t).rows_int == n.rows_int


def test_reduce_rank_one_zero_quad_example():
    spec = field(7)
    m = aff.Matrix23.from_ints(spec, [0, 0, 3, 0, 0, 5])
    n, t = reduce(m)
    assert n.rows_int == ((0, 0, 1), (0, 0, 0))
    assert aff.apply_transform(m, t).rows_int == n.rows_int


def test_reduce_double_root_rank_two_hits_II2_shape():
    spec = field(5)
    m = aff.Matrix23.from_ints(spec, [1, 0, 3, 0, 0, 2])  # g = s^2, rank 2
    label = aff.classify_affine(m)
    assert label.tag == aff.AFFINE_II2
    r = label.canonical.rows_int
    assert r[0][0] and r[1][2]
    assert not any((r[0][1], r[0][2], r[1][0], r[1][1]))


def test_reduce_rejects_irreducible_quadratic():
    spec = field(3)
    with pytest.raises(ValueError):
        reduce(aff.Matrix23.from_ints(spec, [1, 0, 0, 0, 1, 0]))


@pytest.mark.parametrize("q", (2, 3))
def test_reduction_round_trip_exhaustive(q):
    spec = field(q)
    shapes = dict(CANONICAL_SHAPES)
    for n in range(1, q**6):
        vals = []
        m = n
        for _ in range(6):
            vals.append(m % q)
            m //= q
        mat = aff.Matrix23.from_ints(spec, vals)
        if aff.left_quad_shape(mat).tag == "irreducible":
            continue
        label = aff.classify_affine(mat)
        canon, wit = label.canonical, label.witness
        assert aff.apply_transform(mat, wit).rows_int == canon.rows_int
        check = shapes.get(label.tag)
        if check is not None:
            assert check(canon.rows_int)


# sha256 of repr((n, tag, canonical entries, B, b, lam)) over every
# degenerate matrix in counting order, one digest per field
WITNESS_DIGESTS = {
    2: "f38f0c12d7dbae6efd976aaff2b09618c2a0b81b5f1311714d229b20a30ddd69",
    3: "5303d45da23148d70cf210b5175cfe574b4e7813d7a71a2e9c092b613c244bfe",
    4: "473aa1399d038c47de622b5fdcf7d2cf964a8248cf867d2a73f22803692076ef",
    5: "32d524171f18c4090c6b52e151c737c1d2f228ae5b7a984b20057d71187cc853",
}


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_every_degenerate_witness_is_pinned(q):
    # `classify --affine` prints the witness; the golden files hold only a
    # few affine matrices, so every canonical form and witness is pinned here
    spec = field(q)
    h = hashlib.sha256()
    for n in range(1, q**6):
        label = aff.classify_affine(_matrix_at(aff.Matrix23, 6, spec, n))
        if label.tag == aff.AFFINE_FILLING:
            continue
        w = label.witness
        h.update(repr((n, label.tag, label.canonical.to_ints(), w.block, w.shift, w.lam)).encode())
    assert h.hexdigest() == WITNESS_DIGESTS[q]


def _top(m):
    """The most significant nonzero entry of m."""
    return next(v for v in reversed(m.to_ints()) if v)


def _representatives(q):
    """The degenerate nonzero matrices whose most significant nonzero
    entry is 1, each the representative of its orbit cM: all of them at
    q <= 5, 300 seeded ones above."""
    spec = field(q)
    if q <= 5:
        reps = (_matrix_at(aff.Matrix23, 6, spec, n) for n in range(1, 2 * q**5))
        reps = (m for m in reps if _top(m) == 1)
    else:
        rng = random.Random(20261022 + q)
        reps = (rand_matrix23(spec, rng) for _ in itertools.count())
        reps = (aff.Matrix23.from_ints(spec, [spec.div(v, _top(m)) for v in m.to_ints()]) for m in reps)
    reps = (m for m in reps if aff.affine_tag(m) != aff.AFFINE_FILLING)
    return list(reps) if q <= 5 else list(itertools.islice(reps, 300))


@pytest.mark.parametrize("q", (3, 4, 5, 7, 8, 9))
def test_scaled_label_is_the_classification_of_the_multiple(q):
    # every degenerate orbit at q <= 5, seeded orbits above: cM takes M's
    # witness to c times M's canonical matrix, except in III-3
    spec = field(q)
    derived, tags = 0, set()
    for m in _representatives(q):
        label = aff.classify_affine(m)
        for c in range(2, q):
            cm = aff.Matrix23.from_ints(spec, [spec._mul[c][v] for v in m.to_ints()])
            scaled = aff._scale_label(label, c, aff._affine_facts(cm))
            if label.tag == aff.AFFINE_III3:
                assert scaled is None
            else:
                assert scaled == aff.classify_affine(cm), (m.to_ints(), c)
                derived += 1
            tags.add(label.tag)
    assert derived > 0
    assert {aff.AFFINE_I1, aff.AFFINE_I2, aff.AFFINE_II1, aff.AFFINE_II2} <= tags


def test_scaled_label_refuses_another_tag():
    m = matrix(3, [2, 1, 1, 1, 0, 2])
    label = aff.classify_affine(m)
    assert label.tag == aff.AFFINE_I1
    other = aff._affine_facts(matrix(3, [0, 0, 1, 1, 0, 0]))
    assert other[0] == aff.AFFINE_I2
    assert aff._scale_label(label, 2, other) is None


def test_II1_canonical_shape():
    spec = field(5)
    # double root with invertible block: g = (s+t)^2 -> a0=1, a1+b0=2, b1=1
    m = aff.Matrix23.from_ints(spec, [1, 2, 0, 0, 1, 3])
    label = aff.classify_affine(m)
    assert label.tag == aff.AFFINE_II1
    r = label.canonical.rows_int
    assert r[0][2] == r[1][1] == r[1][2] == 0
    assert r[0][0] and r[0][1]
    assert r[1][0] == spec.neg(r[0][1])


def test_points_at_infinity_counts():
    # every nonzero matrix at q = 2, 3, a seeded sample at q = 4
    rng = random.Random(11)
    for q in (2, 3, 4):
        spec = field(q)
        plane = _plane_for(spec)
        if q <= 3:
            matrices = [_matrix_at(aff.Matrix23, 6, spec, n) for n in range(1, q**6)]
        else:
            matrices = [rand_matrix23(spec, rng) for _ in range(40)]
        for m in matrices:
            label = aff.classify_affine(m)
            pts = aff.points_at_infinity(label.shape)
            g = aff.build_GM(m)
            observed = {
                plane.points[i].key
                for i in plane.infinity_idx
                if g.eval(plane.points[i]) == 0
            }
            assert pts == observed
            expect = {
                aff.AFFINE_FILLING: 0,
                aff.AFFINE_I1: 2, aff.AFFINE_I2: 2, aff.AFFINE_I3: 2,
                aff.AFFINE_II1: 1, aff.AFFINE_II2: 1, aff.AFFINE_II3: 1,
                aff.AFFINE_III1: q + 1, aff.AFFINE_III3: q + 1,
            }[label.tag]
            assert len(pts) == expect
