import random

import pytest

from planefill.fillcurve import Matrix3, build_UVW
from planefill.homog import (
    HomogPoly,
    ProjPoint,
    _mat3_det,
    _transpose,
    linear_substitute,
    partials,
    scalar_ratio,
)
from planefill.verify import _plane_for
from support import field, product, rand_homog, rand_invertible3


def test_projpoint_normalization():
    spec = field(5)
    p = ProjPoint(spec, (2, 4, 1))
    assert p.key == (1, 2, 3)
    assert p == ProjPoint(spec, (4, 3, 2))  # the scalar multiple 2*(2,4,1)
    with pytest.raises(ValueError):
        ProjPoint(spec, (0, 0, 0))


def test_generators_vanish_on_every_point():
    for q in (2, 3, 4):
        spec = field(q)
        for g in build_UVW(spec):
            assert all(g.eval(pt) == 0 for pt in _plane_for(spec).points)


def test_eval_examples():
    spec = field(2)
    x = HomogPoly.variable(spec, 0)
    assert x.eval(ProjPoint(spec, (0, 1, 0))) == 0
    f = HomogPoly(spec, 2, {(2, 0, 0): 1, (0, 2, 0): 1})
    assert f.eval(ProjPoint(spec, (1, 1, 0))) == 0


def test_eval_respects_scaling():
    rng = random.Random(3)
    for q in (3, 4, 5):
        spec = field(q)
        for _ in range(20):
            f = rand_homog(spec, rng, 4)
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            if not any((a, b, c)):
                continue
            for lam in range(1, q):
                lhs = f.eval((spec._mul[lam][a], spec._mul[lam][b], spec._mul[lam][c]))
                assert lhs == spec._mul[spec.pow_int(lam, 4)][f.eval((a, b, c))]


def test_substitute_identity_and_swap():
    spec = field(3)
    x = HomogPoly.variable(spec, 0)
    y = HomogPoly.variable(spec, 1)
    ident = Matrix3.diagonal(spec, 1, 1, 1)
    assert linear_substitute(x, ident) == x
    swap = Matrix3.from_ints(spec, [0, 1, 0, 1, 0, 0, 0, 0, 1])
    assert linear_substitute(x, swap) == y


def test_substitute_rejects_singular():
    spec = field(3)
    x = HomogPoly.variable(spec, 0)
    with pytest.raises(ValueError):
        linear_substitute(x, Matrix3.from_ints(spec, [1, 0, 0, 1, 0, 0, 0, 0, 1]))


def test_substitute_right_group_action():
    rng = random.Random(5)
    for q in (2, 3, 4, 5):
        spec = field(q)
        for _ in range(25):
            f = rand_homog(spec, rng, 3)
            b = rand_invertible3(spec, rng)
            c = rand_invertible3(spec, rng)
            assert linear_substitute(f, product(b, c)) == linear_substitute(
                linear_substitute(f, b), c
            )


def test_generator_transformation_law():
    # substituting B into the generator column yields (det B) tB^-1 times it
    rng = random.Random(17)
    for q in (2, 3, 4, 5):
        spec = field(q)
        uvw = build_UVW(spec)
        for _ in range(25):
            b = rand_invertible3(spec, rng)
            det = spec._mul[_mat3_det(b.rows_int, spec)]
            m = _transpose(b.inverse().rows_int)
            for i in range(3):
                lhs = linear_substitute(uvw[i], b)
                rhs = HomogPoly(spec, spec.q + 1)
                for j in range(3):
                    rhs = rhs + uvw[j].scaled(det[m[i][j]])
                assert lhs == rhs


def test_partials_examples():
    for q in (2, 3, 4):
        spec = field(q)
        xq = HomogPoly(spec, q, {(q, 0, 0): 1})
        assert partials(xq)[0].is_zero()
    spec3 = field(3)
    f = HomogPoly(spec3, 3, {(2, 1, 0): 1})  # x^2 y
    fx, fy, fz = partials(f)
    assert fx == HomogPoly(spec3, 2, {(1, 1, 0): 2})
    assert fy == HomogPoly(spec3, 2, {(2, 0, 0): 1})
    assert fz.is_zero()


def test_partials_of_maximal_curve_never_all_vanish_on_it():
    q = 3
    spec = field(q)
    f = HomogPoly(
        spec, q + 1,
        {(q + 1, 0, 0): 1, (2, 0, q - 1): spec.neg(1), (0, q, 1): 1, (0, 1, q): spec.neg(1)},
    )
    fx, fy, fz = partials(f)
    for pt in _plane_for(spec).points:
        if f.eval(pt) == 0:
            assert any(g.eval(pt) for g in (fx, fy, fz))


def test_euler_identity():
    rng = random.Random(29)
    for q in (2, 3, 5):
        spec = field(q)
        x = HomogPoly.variable(spec, 0)
        y = HomogPoly.variable(spec, 1)
        z = HomogPoly.variable(spec, 2)
        for _ in range(30):
            d = rng.randrange(1, 6)
            f = rand_homog(spec, rng, d)
            if f.is_zero():
                continue
            fx, fy, fz = partials(f)
            combined = x * fx + y * fy + z * fz
            assert combined == f.scaled(d % spec.p)


def test_zero_polynomial_keeps_declared_degree():
    spec = field(3)
    z = HomogPoly(spec, 5)
    assert z.degree == 5 and z.is_zero()
    assert (z + z).degree == 5
    with pytest.raises(ValueError):
        HomogPoly(spec, 2, {(1, 0, 0): 1})


def test_scalar_ratio():
    spec = field(5)
    f = HomogPoly(spec, 2, {(1, 1, 0): 2, (0, 0, 2): 3})
    assert scalar_ratio(f.scaled(4), f) == 4
    g = HomogPoly(spec, 2, {(1, 1, 0): 2, (0, 2, 0): 3})
    assert scalar_ratio(f, g) is None


def test_serialization_order():
    spec = field(3)
    f = HomogPoly(spec, 2, {(0, 0, 2): 1, (2, 0, 0): 2, (1, 1, 0): 1})
    assert f.to_list() == [[2, 0, 0, 2], [1, 1, 0, 1], [0, 0, 2, 1]]
