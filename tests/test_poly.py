import random

import pytest

from planefill.poly import (
    CUBIC_DOUBLE_PLUS_SIMPLE,
    CUBIC_IRREDUCIBLE,
    CUBIC_LINEAR_TIMES_QUADRATIC,
    CUBIC_THREE_DISTINCT,
    CUBIC_TRIPLE,
    QUAD_DOUBLE,
    QUAD_IRREDUCIBLE,
    QUAD_TWO_DISTINCT,
    QUAD_ZERO,
    UniPoly,
    cubic_shape,
    divrem,
    enumerate_P1,
    quad_shape,
    roots,
)
from support import field


def poly(q, coeffs):
    return UniPoly(field(q), coeffs)


def test_divrem_difference_of_squares():
    quot, rem = divrem(poly(5, (4, 0, 1)), poly(5, (4, 1)))  # (t^2-1)/(t-1)
    assert quot == poly(5, (1, 1))
    assert rem.is_zero()


def test_divrem_self():
    quot, rem = divrem(poly(3, (0, 1)), poly(3, (0, 1)))
    assert quot == poly(3, (1,))
    assert rem.is_zero()


def test_divrem_cubic_by_quadratic():
    quot, rem = divrem(poly(3, (0, 0, 0, 1)), poly(3, (1, 0, 1)))  # t^3 / (t^2+1)
    assert quot == poly(3, (0, 1))
    assert rem == poly(3, (0, 2))  # -t


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divrem(poly(3, (1, 1)), UniPoly.zero(field(3)))


def test_divrem_reconstruction_random():
    rng = random.Random(7)
    for q in (2, 3, 4, 5):
        spec = field(q)
        for _ in range(100):
            f = UniPoly(spec, [rng.randrange(q) for _ in range(rng.randrange(1, 7))])
            g = UniPoly(spec, [rng.randrange(q) for _ in range(rng.randrange(1, 5))])
            if g.is_zero():
                continue
            quot, rem = divrem(f, g)
            assert quot * g + rem == f
            assert rem.is_zero() or rem.degree < g.degree


def test_degree_sentinel():
    assert UniPoly.zero(field(3)).degree is None
    assert poly(3, (1,)).degree == 0


def test_roots_examples():
    assert roots(poly(2, (1, 1, 1))) == []
    spec5 = field(5)
    f = UniPoly.from_roots(spec5, (1, 1, 2))
    assert [r.val for r in roots(f)] == [1, 1, 2]
    assert roots(poly(3, (1, 0, 1))) == []


def test_roots_multiplicity_division_invariant():
    rng = random.Random(11)
    for q in (3, 5):
        spec = field(q)
        for _ in range(50):
            f = UniPoly(spec, [rng.randrange(q) for _ in range(6)])
            if f.is_zero():
                continue
            rest = f
            for r in roots(f):
                rest = divrem(rest, UniPoly(spec, (spec.neg(r.val), 1)))[0]
            assert rest.is_zero() is False
            assert all(rest.eval_int(v) for v in range(q)) or rest.degree == 0


def test_cubic_shape_examples():
    spec3 = field(3)
    f = UniPoly(spec3, (2, 1)) * UniPoly(spec3, (1, 0, 1))  # (t-1)(t^2+1)
    shape = cubic_shape(f)
    assert shape.tag == CUBIC_LINEAR_TIMES_QUADRATIC
    assert [r.val for r in shape.roots] == [1]
    assert shape.quad == UniPoly(spec3, (1, 0, 1))

    spec7 = field(7)
    shape = cubic_shape(UniPoly.from_roots(spec7, (1, 2, 3)))
    assert shape.tag == CUBIC_THREE_DISTINCT

    shape = cubic_shape(poly(5, (0, 0, 0, 1)))
    assert shape.tag == CUBIC_TRIPLE
    assert [r.val for r in shape.roots] == [0, 0, 0]


def test_cubic_shape_requires_monic_cubic():
    with pytest.raises(ValueError):
        cubic_shape(poly(3, (1, 1)))
    with pytest.raises(ValueError):
        cubic_shape(poly(3, (0, 0, 0, 2)))


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_cubic_shape_exhaustive_cross_check(q):
    spec = field(q)
    for n in range(q**3):
        f = UniPoly(spec, (n % q, (n // q) % q, n // (q * q), 1))
        shape = cubic_shape(f)
        rs = roots(f)
        assert (shape.tag == CUBIC_IRREDUCIBLE) == all(f.eval_int(v) for v in range(q)) == (not rs)
        if shape.tag == CUBIC_LINEAR_TIMES_QUADRATIC:
            assert len(rs) == 1 and all(shape.quad.eval_int(v) for v in range(q))
        if shape.tag == CUBIC_THREE_DISTINCT:
            assert len({r.val for r in rs}) == 3
        if shape.tag == CUBIC_DOUBLE_PLUS_SIMPLE:
            assert len(rs) == 3 and len({r.val for r in rs}) == 2
            assert shape.roots[0] == shape.roots[1] != shape.roots[2]
        if shape.tag == CUBIC_TRIPLE:
            assert len({r.val for r in rs}) == 1


def test_quad_shape_antidiagonal_block():
    spec = field(5)
    # left block [[0, a1], [b0, 0]] gives (a1+b0) st
    shape = quad_shape(spec, 0, 3, 0)
    assert shape.tag == QUAD_TWO_DISTINCT
    assert [(s.val, t.val) for s, t in shape.roots] == [(1, 0), (0, 1)]


def test_quad_shape_zero_polynomial():
    spec = field(3)
    shape = quad_shape(spec, 0, 0, 0)
    assert shape.tag == QUAD_ZERO
    assert len(shape.roots) == spec.q + 1


def test_quad_shape_char2_irreducible():
    assert quad_shape(field(2), 1, 1, 1).tag == QUAD_IRREDUCIBLE


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_quad_shape_root_counts(q):
    spec = field(q)
    for n in range(q**3):
        a, b, c = n % q, (n // q) % q, n // (q * q)
        shape = quad_shape(spec, a, b, c)
        count = len(shape.roots)
        assert count in (0, 1, 2, q + 1)
        assert (count == q + 1) == (shape.tag == QUAD_ZERO) == (a == b == c == 0)
        assert (count == 1) == (shape.tag == QUAD_DOUBLE)


def test_enumerate_P1():
    pts = enumerate_P1(field(4))
    assert len(pts) == 5
    assert pts[0][0].val == 1 and pts[-1] == (field(4).zero, field(4).one)


def test_affine_transform_keeps_monic():
    spec = field(5)
    f = UniPoly.from_roots(spec, (1, 2, 4))
    g = f.affine_transform(3, 2)
    assert g.is_monic() and g.degree == 3
    # roots move by alpha -> rho*alpha + mu
    assert sorted(r.val for r in roots(g)) == sorted(
        (3 * a + 2) % 5 for a in (1, 2, 4)
    )
