import itertools
import random

import pytest

from planefill import affine as aff
from planefill.homog import HomogPoly, _matmul, _transpose, linear_substitute
from planefill.verify import _plane_for
from support import field, rand_btransform, rand_matrix23

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
        expected = HomogPoly.zero(spec, q + 1)
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
    on = [pt for pt in _plane_for(spec).points if g.eval(pt).val == 0]
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
                == aff.apply_transform(m, s.then(t)).rows_int
            )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_blockwise_algebra_matches_the_matrix_products(q):
    # apply_transform is tB M (B b; 0 lam) and then the product of the 3x3
    # matrices, both computed block by block
    spec = field(q)
    rng = random.Random(20261019 + q)
    for _ in range(200):
        m = rand_matrix23(spec, rng, nonzero=False)
        s, t = rand_btransform(spec, rng), rand_btransform(spec, rng)
        moved = _matmul(m.rows_int, s.matrix_rows(), spec)
        assert aff.apply_transform(m, s).rows_int == _matmul(_transpose(s.block), moved, spec)
        assert s.then(t).matrix_rows() == _matmul(s.matrix_rows(), t.matrix_rows(), spec)


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
            tuple(spec._add[spec.mul(a, x)][spec.mul(b, y)] for x, y in zip(r0, r1))
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
            n, t = aff.reduce_to_canonical(m)
            assert n.third_column() == (0, 0)
            assert aff.apply_transform(m, t).rows_int == n.rows_int


def test_reduce_rank_one_zero_quad_example():
    spec = field(7)
    m = aff.Matrix23.from_ints(spec, [0, 0, 3, 0, 0, 5])
    n, t = aff.reduce_to_canonical(m)
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
        aff.reduce_to_canonical(aff.Matrix23.from_ints(spec, [1, 0, 0, 0, 1, 0]))


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
    rng = random.Random(11)
    for q in (2, 3, 4):
        spec = field(q)
        plane = _plane_for(spec)
        for _ in range(40):
            m = rand_matrix23(spec, rng)
            pts = aff.points_at_infinity(m)
            g = aff.build_GM(m)
            observed = {
                plane.points[i].key
                for i in plane.infinity_idx
                if g.eval(plane.points[i]).val == 0
            }
            assert {p.key for p in pts} == observed
            tag = aff.classify_affine(m).tag
            expect = {
                aff.AFFINE_FILLING: 0,
                aff.AFFINE_I1: 2, aff.AFFINE_I2: 2, aff.AFFINE_I3: 2,
                aff.AFFINE_II1: 1, aff.AFFINE_II2: 1, aff.AFFINE_II3: 1,
                aff.AFFINE_III1: q + 1, aff.AFFINE_III3: q + 1,
            }[tag]
            assert len(pts) == expect
