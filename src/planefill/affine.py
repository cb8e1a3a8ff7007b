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
from .gf import FieldSpec
from .homog import HomogPoly, _combination, _cross, _matvec
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

    def is_zero(self) -> bool:
        return not any(v for row in self.rows_int for v in row)

    def rank(self) -> int:
        if self.is_zero():
            return 0
        # the 2x2 minors are the components of the rows' cross product
        return 2 if any(_cross(*self.rows_int, self.spec)) else 1


@lru_cache(maxsize=None)
def memo_quad_shape(spec: FieldSpec, a: int, b: int, c: int) -> QuadShape:
    """``quad_shape`` of a s^2 + b st + c t^2 for encodings a, b, c: one
    memo per field, holding at most q^3 shapes."""
    return quad_shape(spec, a, b, c)


def left_quad_shape(M: Matrix23) -> QuadShape:
    """Root shape of the binary quadratic a0 s^2 + (a1 + b0) st + b1 t^2 of
    the left block of M; characteristic 2 forbids symmetrizing, so the
    middle coefficient is read off asymmetrically."""
    (a0, a1, _), (b0, b1, _) = M.rows_int
    return memo_quad_shape(M.spec, a0, M.spec._add[a1][b0], b1)


def _det2(block, spec: FieldSpec) -> int:
    (a, b), (c, d) = block
    return spec._sub[spec._mul[a][d]][spec._mul[b][c]]


@dataclass(frozen=True)
class BTransform:
    """A projective transformation fixing the line z = 0.

    Represents the invertible block matrix (B b; 0 lam); these form a
    group under matrix multiplication.
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


def points_at_infinity(shape: QuadShape) -> set[tuple]:
    """Keys of the rational points on z = 0 of a curve whose left-block
    quadratic has this shape: its 2, 1, 0 or q+1 roots (s:t), which
    ``quad_shape`` lists normalized, as (s, t, 0)."""
    return {(s.val, t.val, 0) for s, t in shape.roots}


@dataclass(frozen=True)
class AffineLabel:
    """Classification of a nonzero 2x3 matrix: the case tag, the canonical
    matrix of its orbit, the witnessing transformation, and the shape of
    its left-block quadratic and its rank, which decide the tag."""

    tag: str
    canonical: Matrix23
    witness: BTransform
    shape: QuadShape
    rank: int


def reduce_to_canonical(M: Matrix23, shape: QuadShape, det: int) -> tuple[Matrix23, BTransform]:
    """Reduce a degenerate matrix to its canonical shape, given the shape of
    its left-block quadratic and the determinant det of its left block M'.

    Writes the witness (B b; 0 1) down directly and applies it to M once.
    B has the two roots of the quadratic as columns, a complement and the
    root for a double root, and is the identity for the zero quadratic.
    With lam = 1 the new third column is tB(M'b + m), so for an invertible
    M' the shift b = -M'^-1 m, read off the adjugate, clears it whatever B
    is.  For a singular M', b is B times the shear that clears the third
    entry of the first row of the image of (B 0; 0 1) against its pivot,
    and for the zero quadratic B rescales the third column instead.
    """
    if shape.tag == QUAD_IRREDUCIBLE:
        raise ValueError("an irreducible left-block quadratic has no degenerate canonical form")
    spec = M.spec
    sub, mul, neg = spec._sub, spec._mul, spec._neg
    (a0, a1, m0), (b0, b1, m1) = M.rows_int
    if shape.tag == QUAD_TWO_DISTINCT:
        (s1, t1), (s2, t2) = shape.roots
        block = ((s1.val, s2.val), (t1.val, t2.val))
    elif shape.tag == QUAD_DOUBLE:
        # (comp | root), comp the first of (1, 0), (0, 1) off the root's line
        (s1, t1) = shape.roots[0]
        block = ((1, s1.val), (0, t1.val)) if t1.val else ((0, s1.val), (1, 0))
    else:  # zero polynomial
        block = ((1, 0), (0, 1))
    if det:
        inv = mul[spec._inv[det]]
        shift = (inv[sub[mul[a1][m1]][mul[b1][m0]]], inv[sub[mul[b0][m0]][mul[a0][m1]]])
    elif shape.tag == QUAD_TWO_DISTINCT:
        (_, x1, x2), (y0, _, y2) = apply_transform(M, BTransform(spec, block, (0, 0), 1)).rows_int
        if x1 == 0:
            # swapping the columns of B swaps the image's rows and left columns
            block = tuple(row[::-1] for row in block)
            x1, x2 = y0, y2
        shift = _matvec(block, (0, neg[spec.div(x2, x1)]), spec)
    elif shape.tag == QUAD_DOUBLE:
        (x0, _, x2), _ = apply_transform(M, BTransform(spec, block, (0, 0), 1)).rows_int
        shift = _matvec(block, (neg[spec.div(x2, x0)], 0), spec)
    else:
        if any((a0, a1, b0, b1)):
            raise AssertionError(
                "a zero left-block quadratic with singular left block forces the block itself to vanish"
            )
        if not (m0 or m1):
            raise ValueError("the zero matrix cannot be reduced")
        block = ((spec._inv[m0], neg[m1]), (0, m0)) if m0 else ((0, 1), (spec._inv[m1], 0))
        shift = (0, 0)
    witness = BTransform(spec, block, shift, 1)
    return apply_transform(M, witness), witness


def _affine_facts(M: Matrix23) -> tuple[str, QuadShape, int, int]:
    """(tag, left-block quadratic shape, left-block determinant, rank) of a
    nonzero matrix, each computed once: the tag follows from the other
    three, and an invertible left block makes the rank 2."""
    if M.is_zero():
        raise ValueError("the zero matrix defines no curve")
    shape = left_quad_shape(M)
    det = _det2(M.left_block(), M.spec)
    rank = 2 if det else M.rank()
    if shape.tag == QUAD_IRREDUCIBLE:
        tag = AFFINE_FILLING
    elif shape.tag == QUAD_TWO_DISTINCT:
        tag = AFFINE_I1 if det else (AFFINE_I2 if rank == 2 else AFFINE_I3)
    elif shape.tag == QUAD_DOUBLE:
        tag = AFFINE_II1 if det else (AFFINE_II2 if rank == 2 else AFFINE_II3)
    elif det == 0 and rank == 2:
        raise AssertionError(
            "no matrix has a zero left-block quadratic, singular left block and rank 2"
        )
    else:
        tag = AFFINE_III1 if det else AFFINE_III3
    return tag, shape, det, rank


def affine_tag(M: Matrix23) -> str:
    """Case tag of a nonzero matrix, without the reduction."""
    return _affine_facts(M)[0]


def classify_affine(M: Matrix23) -> AffineLabel:
    """Tag a nonzero matrix as :func:`affine_tag` does, with the canonical
    form and the transformation reaching it.

    Matrices with an irreducible left-block quadratic are tagged as
    filling curves, with an identity witness.
    """
    tag, shape, det, rank = _affine_facts(M)
    if tag == AFFINE_FILLING:
        return AffineLabel(tag, M, BTransform.identity(M.spec), shape, rank)
    canonical, witness = reduce_to_canonical(M, shape, det)
    return AffineLabel(tag, canonical, witness, shape, rank)


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
    """The splitting of the curve of ``label.canonical``: for a degenerate
    label the memoized ``canonical_plan``, for a filling curve its own
    equation, since its canonical matrix is the matrix itself."""
    if label.tag == AFFINE_FILLING:
        residual = fc.ResidualSpec(fc.RESIDUAL_AFFINE_FILLING, build_GM(label.canonical))
        return AffinePlan((), residual, None, 0)
    return canonical_plan(label.tag, label.canonical)


@lru_cache(maxsize=None)
def canonical_plan(tag: str, n: Matrix23) -> AffinePlan:
    """The splitting of the curve of the canonical matrix n of a degenerate
    tag, built once per canonical form and process.

    The shapes come from expanding the curve polynomial of each canonical
    form; the residual equations are written out directly.
    """
    spec = n.spec
    q = spec.q
    neg = spec._neg
    x, y, z = fc.coordinate_lines(spec)

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
