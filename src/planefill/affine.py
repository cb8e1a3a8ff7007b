"""Curves of degree q+1 containing every affine rational point.

A 2x3 matrix M over GF(q) defines the curve
``(x^q - x z^(q-1), y^q - y z^(q-1)) M (x,y,z)^t = 0``; it passes through
all of A^2(F_q) and fills it exactly when the binary quadratic built from
the left 2x2 block of M is irreducible.  Degenerate matrices are reduced
constructively to one of eight canonical shapes by transformations fixing
the line z = 0, and each canonical shape comes with its predicted
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import fillcurve as fc
from .gf import FieldSpec, base_digits
from .homog import HomogPoly, ProjPoint, _combination, _cross, _rref
from .poly import (
    QUAD_DOUBLE,
    QUAD_IRREDUCIBLE,
    QUAD_TWO_DISTINCT,
    QuadShape,
    quad_shape,
)

AFFINE_FILLING = "filling"
AFFINE_I1 = "I-1"
AFFINE_I2 = "I-2"
AFFINE_I3 = "I-3"
AFFINE_II1 = "II-1"
AFFINE_II2 = "II-2"
AFFINE_II3 = "II-3"
AFFINE_III1 = "III-1"
AFFINE_III3 = "III-3"


@dataclass(frozen=True)
class Matrix23:
    """A 2x3 matrix over GF(q); the left 2x2 block and the third column
    play separate roles in the classification."""

    spec: FieldSpec
    rows_int: tuple

    @classmethod
    def from_ints(cls, spec: FieldSpec, values) -> "Matrix23":
        vals = [int(v) for v in values]
        if len(vals) != 6:
            raise ValueError("expected 6 entries, row major")
        if any(not 0 <= v < spec.q for v in vals):
            raise ValueError(f"entries must be encodings in [0, {spec.q})")
        return cls(spec, (tuple(vals[0:3]), tuple(vals[3:6])))

    def to_ints(self) -> list[int]:
        return [v for row in self.rows_int for v in row]

    def left_block(self) -> tuple:
        (a0, a1, _), (b0, b1, _) = self.rows_int
        return ((a0, a1), (b0, b1))

    def third_column(self) -> tuple:
        return (self.rows_int[0][2], self.rows_int[1][2])

    def is_zero(self) -> bool:
        return not any(v for row in self.rows_int for v in row)

    def rank(self) -> int:
        if self.is_zero():
            return 0
        # the 2x2 minors are the components of the rows' cross product
        return 2 if any(_cross(*self.rows_int, self.spec)) else 1


def quad_form_triple(M: Matrix23) -> tuple[int, int, int]:
    """Coefficients (A, B, C) of the binary quadratic A s^2 + B st + C t^2
    attached to the left block of M; characteristic 2 forbids symmetrizing,
    so the triple is read off asymmetrically."""
    (a0, a1), (b0, b1) = M.left_block()
    return a0, M.spec._add[a1][b0], b1


@lru_cache(maxsize=None)
def memo_quad_shape(spec: FieldSpec, a: int, b: int, c: int) -> QuadShape:
    """``quad_shape`` of a s^2 + b st + c t^2 for encodings a, b, c: one
    memo per field, holding at most q^3 shapes."""
    return quad_shape(spec, a, b, c)


def left_quad_shape(M: Matrix23) -> QuadShape:
    return memo_quad_shape(M.spec, *quad_form_triple(M))


def _det2(block, spec: FieldSpec) -> int:
    (a, b), (c, d) = block
    return spec._sub[spec._mul[a][d]][spec._mul[b][c]]


@dataclass(frozen=True)
class BTransform:
    """A projective transformation fixing the line z = 0.

    Represents the invertible block matrix (B b; 0 lam); these form a
    group, and ``then`` composes two of them as matrices.
    """

    spec: FieldSpec
    block: tuple  # 2x2 invertible, int rows
    shift: tuple  # length-2 int vector
    lam: int

    def __post_init__(self):
        if self.lam == 0 or _det2(self.block, self.spec) == 0:
            raise ValueError("transformation must be invertible")

    @classmethod
    def identity(cls, spec: FieldSpec) -> "BTransform":
        return cls(spec, ((1, 0), (0, 1)), (0, 0), 1)

    def matrix_rows(self) -> tuple:
        (p, r), (s, t) = self.block
        return ((p, r, self.shift[0]), (s, t, self.shift[1]), (0, 0, self.lam))

    def then(self, other: "BTransform") -> "BTransform":
        """The composite whose matrix is self's matrix times other's:
        blockwise (B1 B2, B1 b2 + lam2 b1, lam1 lam2)."""
        add, mul = self.spec._add, self.spec._mul
        (p2, r2), (s2, t2) = other.block
        c0, c1 = other.shift
        lam2 = mul[other.lam]
        block, shift = [], []
        for (p, r), b in zip(self.block, self.shift):
            block.append((add[mul[p][p2]][mul[r][s2]], add[mul[p][r2]][mul[r][t2]]))
            shift.append(add[add[mul[p][c0]][mul[r][c1]]][lam2[b]])
        return BTransform(self.spec, tuple(block), tuple(shift), mul[self.lam][other.lam])


def apply_transform(M: Matrix23, t: BTransform) -> Matrix23:
    """tB M (B b; 0 lam), blockwise N' = tB M' B and n = tB(M'b + lam m)."""
    add, mul = M.spec._add, M.spec._mul
    (p, r), (s, u) = t.block
    b0, b1 = t.shift
    lam = mul[t.lam]
    # the rows of M (B b; 0 lam), that is of (M'B | M'b + lam m)
    (x0, x1, x2), (y0, y1, y2) = [
        (
            add[mul[a0][p]][mul[a1][s]],
            add[mul[a0][r]][mul[a1][u]],
            add[add[mul[a0][b0]][mul[a1][b1]]][lam[m]],
        )
        for a0, a1, m in M.rows_int
    ]
    # tB has the rows (p, s) and (r, u)
    return Matrix23(
        M.spec,
        tuple(
            (add[mul[c][x0]][mul[d][y0]], add[mul[c][x1]][mul[d][y1]], add[mul[c][x2]][mul[d][y2]])
            for c, d in ((p, s), (r, u))
        ),
    )


@lru_cache(maxsize=None)
def _gm_basis(spec: FieldSpec):
    """The terms of G_E for the six 2x3 matrix units E, row-major: the i-th
    of x^q - x z^(q-1), y^q - y z^(q-1) times the j-th of x, y, z."""
    q = spec.q
    x, y, z = (HomogPoly.variable(spec, i) for i in range(3))
    left = [v**q - v * z ** (q - 1) for v in (x, y)]
    return tuple((p * v).terms for p in left for v in (x, y, z))


def build_GM(M: Matrix23) -> HomogPoly:
    """The degree-(q+1) curve polynomial of M; every affine rational point
    lies on it."""
    if M.is_zero():
        raise ValueError("the zero matrix defines no curve")
    spec = M.spec
    return _combination(spec, spec.q + 1, zip(M.to_ints(), _gm_basis(spec)))


def points_at_infinity(M: Matrix23) -> list[ProjPoint]:
    """Rational points of the curve of M on the line z = 0.

    These are exactly the projective roots of the left-block quadratic, so
    there are 2, 1, 0 or q+1 of them.
    """
    if M.is_zero():
        raise ValueError("the zero matrix defines no curve")
    return [
        ProjPoint(M.spec, (s, t, M.spec.zero))
        for s, t in left_quad_shape(M).roots
    ]


@dataclass(frozen=True)
class AffineLabel:
    """Classification of a nonzero 2x3 matrix: the case tag, the canonical
    matrix of its orbit and the witnessing transformation."""

    tag: str
    canonical: Matrix23
    witness: BTransform


def _clear_third_column(M: Matrix23) -> BTransform:
    """For det M' != 0, the shift with M'b = -m sends M to (M', 0): the
    last column of the reduced system (M' | -m)."""
    spec = M.spec
    neg = spec._neg
    (r0, r1), _pivots = _rref([(a0, a1, neg[m]) for a0, a1, m in M.rows_int], 2, spec)
    return BTransform(spec, ((1, 0), (0, 1)), (r0[2], r1[2]), 1)


def reduce_to_canonical(M: Matrix23) -> tuple[Matrix23, BTransform]:
    """Reduce a degenerate matrix to its canonical shape.

    Follows the constructive steps of the classification: a basis change
    sending the roots of the left-block quadratic to the coordinate
    directions, a translation killing the third column when the left block
    is invertible, and column-clearing shears otherwise.
    """
    if M.is_zero():
        raise ValueError("the zero matrix cannot be reduced")
    spec = M.spec
    shape = left_quad_shape(M)
    if shape.tag == QUAD_IRREDUCIBLE:
        raise ValueError("an irreducible left-block quadratic has no degenerate canonical form")
    neg = spec._neg
    cur, total = M, BTransform.identity(spec)

    def step(t: BTransform):
        nonlocal cur, total
        cur = apply_transform(cur, t)
        total = total.then(t)

    if shape.tag == QUAD_TWO_DISTINCT:
        (s1, t1), (s2, t2) = shape.roots
        step(BTransform(spec, ((s1.val, s2.val), (t1.val, t2.val)), (0, 0), 1))
        if _det2(cur.left_block(), spec):
            step(_clear_third_column(cur))
        else:
            if cur.rows_int[0][1] == 0:
                step(BTransform(spec, ((0, 1), (1, 0)), (0, 0), 1))
            a1 = cur.rows_int[0][1]
            a2 = cur.rows_int[0][2]
            if a2:
                step(
                    BTransform(
                        spec,
                        ((1, 0), (0, 1)),
                        (0, neg[spec.div(a2, a1)]),
                        1,
                    )
                )
    elif shape.tag == QUAD_DOUBLE:
        (s1, t1) = shape.roots[0]
        root = (s1.val, t1.val)
        q = spec.q
        comp = None
        for n in range(1, q * q):
            w = base_digits(n, q, 2)
            if _det2((root, w), spec):
                comp = w
                break
        step(BTransform(spec, ((comp[0], root[0]), (comp[1], root[1])), (0, 0), 1))
        if _det2(cur.left_block(), spec):
            step(_clear_third_column(cur))
        else:
            a0 = cur.rows_int[0][0]
            a2 = cur.rows_int[0][2]
            if a2:
                step(
                    BTransform(
                        spec,
                        ((1, 0), (0, 1)),
                        (neg[spec.div(a2, a0)], 0),
                        1,
                    )
                )
    else:  # zero polynomial
        if _det2(M.left_block(), spec):
            step(_clear_third_column(cur))
        else:
            if any(v for row in cur.left_block() for v in row):
                raise AssertionError(
                    "a zero left-block quadratic with singular left block forces the block itself to vanish"
                )
            a2, b2 = cur.third_column()
            if a2:
                inv = spec._inv[a2]
                block = ((inv, neg[b2]), (0, a2))
            else:
                block = ((0, 1), (spec._inv[b2], 0))
            step(BTransform(spec, block, (0, 0), 1))
    return cur, total


def affine_tag(M: Matrix23) -> str:
    """Case tag of a nonzero matrix, from the root shape of the left-block
    quadratic, the invertibility of the left block and the rank."""
    if M.is_zero():
        raise ValueError("the zero matrix defines no curve")
    shape = left_quad_shape(M)
    if shape.tag == QUAD_IRREDUCIBLE:
        return AFFINE_FILLING
    det = _det2(M.left_block(), M.spec)
    rank = M.rank()
    if shape.tag == QUAD_TWO_DISTINCT:
        return AFFINE_I1 if det else (AFFINE_I2 if rank == 2 else AFFINE_I3)
    if shape.tag == QUAD_DOUBLE:
        return AFFINE_II1 if det else (AFFINE_II2 if rank == 2 else AFFINE_II3)
    if det == 0 and rank == 2:
        raise AssertionError(
            "no matrix has a zero left-block quadratic, singular left block and rank 2"
        )
    return AFFINE_III1 if det else AFFINE_III3


def classify_affine(M: Matrix23) -> AffineLabel:
    """Tag a nonzero matrix with :func:`affine_tag`, with the canonical
    form and the transformation reaching it.

    Matrices with an irreducible left-block quadratic are tagged as
    filling curves, with an identity witness.
    """
    tag = affine_tag(M)
    if tag == AFFINE_FILLING:
        return AffineLabel(AFFINE_FILLING, M, BTransform.identity(M.spec))
    canonical, witness = reduce_to_canonical(M)
    return AffineLabel(tag, canonical, witness)


# ---------------------------------------------------------------------------
# predicted decomposition


@dataclass(frozen=True)
class AffinePlan:
    """Predicted splitting of the curve of a canonical 2x3 matrix: lines
    with multiplicity, the residual, the concurrency of the lines and the
    number of rational points at infinity."""

    lines: tuple
    residual: fc.ResidualSpec | None
    concurrency: str | None
    infinity_points: int


def predicted_decomposition(label: AffineLabel) -> AffinePlan:
    """The splitting of the curve of ``label.canonical``.

    The shapes come from expanding the curve polynomial of each canonical
    form; the residual equations are written out directly.
    """
    n = label.canonical
    spec = n.spec
    q = spec.q
    neg = spec._neg
    x, y, z = fc.coordinate_lines(spec)

    tag = label.tag
    if tag == AFFINE_FILLING:
        return AffinePlan((), fc.ResidualSpec(fc.RESIDUAL_AFFINE_FILLING, build_GM(n)), None, 0)
    if tag == AFFINE_I1:
        a1 = n.rows_int[0][1]
        b0 = n.rows_int[1][0]
        eq = HomogPoly(
            spec,
            q - 1,
            {
                (q - 1, 0, 0): a1,
                (0, q - 1, 0): b0,
                (0, 0, q - 1): neg[spec._add[a1][b0]],
            },
        )
        residual = fc.ResidualSpec(fc.RESIDUAL_MAX_Q_MINUS_1, eq)
        return AffinePlan(((x, 1), (y, 1)), residual, None, 2)
    if tag == AFFINE_I2:
        a1 = n.rows_int[0][1]
        b2 = n.rows_int[1][2]
        eq = HomogPoly(
            spec,
            q,
            {
                (q, 0, 0): a1,
                (1, 0, q - 1): neg[a1],
                (0, q - 1, 1): b2,
                (0, 0, q): neg[b2],
            },
        )
        return AffinePlan(((y, 1),), fc.ResidualSpec(fc.RESIDUAL_MAX_Q, eq), None, 2)
    if tag == AFFINE_I3:
        lines = ((y, 1), (x, 1), *fc.line_pencil(spec, 0, 2))
        return AffinePlan(lines, None, fc.CONCURRENT_ALL_BUT_ONE, 2)
    if tag == AFFINE_II1:
        a0 = n.rows_int[0][0]
        a1 = n.rows_int[0][1]
        eq = HomogPoly(
            spec,
            q,
            {
                (q, 0, 0): a0,
                (1, 0, q - 1): neg[a0],
                (q - 1, 1, 0): a1,
                (0, q, 0): neg[a1],
            },
        )
        return AffinePlan(((x, 1),), fc.ResidualSpec(fc.RESIDUAL_MAX_Q, eq), None, 1)
    if tag == AFFINE_II2:
        return AffinePlan((), fc.ResidualSpec(fc.RESIDUAL_MAX_Q_PLUS_1, build_GM(n)), None, 1)
    if tag == AFFINE_II3:
        return AffinePlan(((x, 2), *fc.line_pencil(spec, 0, 2)), None, fc.CONCURRENT_ALL, 1)
    if tag == AFFINE_III1:
        lines = ((x, 1), (y, 1), *fc.line_pencil(spec, 0, 1))
        return AffinePlan(lines, None, fc.CONCURRENT_ALL, q + 1)
    # III-3
    lines = ((x, 1), (z, 1), *fc.line_pencil(spec, 0, 2))
    return AffinePlan(lines, None, fc.CONCURRENT_ALL, q + 1)
