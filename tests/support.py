"""Helpers shared across the test modules."""

from planefill.affine import BTransform, Matrix23
from planefill.fillcurve import Matrix3, _shifted
from planefill.gf import make_field
from planefill.homog import HomogPoly, _mat3_det, _matmul, _plane_for, _transpose
from planefill.verify import _divide_out

FIELD_ARGS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def field(q):
    return make_field(*FIELD_ARGS[q])


def rand_matrix3(spec, rng):
    return Matrix3.from_ints(spec, [rng.randrange(spec.q) for _ in range(9)])


def rand_invertible3(spec, rng):
    while True:
        a = rand_matrix3(spec, rng)
        if _mat3_det(a.rows_int, spec):
            return a


def product(*matrices):
    """The product of 3x3 matrices over one field, left to right."""
    first, *rest = matrices
    rows = first.rows_int
    for m in rest:
        rows = _matmul(rows, m.rows_int, first.spec)
    return Matrix3(first.spec, rows)


def plus_scalar(a, mu):
    """A + mu E for an encoding mu."""
    return Matrix3(a.spec, _shifted(a.rows_int, a.spec._neg[mu], a.spec))


def equivalent(a, b, rho, mu):
    """rho * B^t A B^-t + mu E for an invertible B and rho != 0."""
    bt = Matrix3(a.spec, _transpose(b.rows_int))
    return plus_scalar(product(bt, a, bt.inverse(), Matrix3.diagonal(a.spec, rho, rho, rho)), mu)


def rand_matrix23(spec, rng, nonzero=True):
    while True:
        m = Matrix23.from_ints(spec, [rng.randrange(spec.q) for _ in range(6)])
        if not nonzero or not m.is_zero():
            return m


def rand_btransform(spec, rng):
    q = spec.q
    while True:
        block = ((rng.randrange(q), rng.randrange(q)), (rng.randrange(q), rng.randrange(q)))
        det = spec._sub[spec._mul[block[0][0]][block[1][1]]][spec._mul[block[0][1]][block[1][0]]]
        if det:
            break
    shift = (rng.randrange(q), rng.randrange(q))
    lam = rng.randrange(1, q)
    return BTransform(spec, block, shift, lam)


def compose(s, t):
    """The transform whose matrix is the product of s's matrix and t's."""
    (p, r, b0), (u, v, b1), (_, _, lam) = _matmul(s.matrix_rows(), t.matrix_rows(), s.spec)
    return BTransform(s.spec, ((p, r), (u, v)), (b0, b1), lam)


def rand_homog(spec, rng, degree, max_terms=6):
    terms = {}
    for _ in range(max_terms):
        i = rng.randrange(degree + 1)
        j = rng.randrange(degree + 1 - i)
        terms[(i, j, degree - i - j)] = rng.randrange(spec.q)
    return HomogPoly(spec, degree, terms)


def divide_by_every_line(f):
    """The reference line search: trial division of f by each of the
    q^2 + q + 1 rational lines in plane order, as often as it divides,
    with no filter ahead of it."""
    return _divide_out(f, ((i, None) for i in range(len(_plane_for(f.spec).lines))))
