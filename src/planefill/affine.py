"""Curves of degree q+1 containing every affine rational point.

A 2x3 matrix M over GF(q) defines the curve
``(x^q - x z^(q-1), y^q - y z^(q-1)) M (x,y,z)^t = 0``; it passes through
all of A^2(F_q) and fills it exactly when the binary quadratic built from
the left 2x2 block of M is irreducible.  Degenerate matrices are reduced
constructively to one of eight canonical shapes by transformations fixing
the line z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import FieldSpec, _coerce
from .homog import HomogPoly, ProjPoint
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

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "Matrix23":
        return cls(spec, tuple(tuple(_coerce(spec, v) for v in row) for row in rows))

    @property
    def entries(self) -> tuple:
        e = self.spec._elems
        return tuple(tuple(e[v] for v in row) for row in self.rows_int)

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
        spec = self.spec
        (a0, a1, a2), (b0, b1, b2) = self.rows_int
        sub, mul = spec._sub, spec._mul
        minors = (
            sub[mul[a0][b1]][mul[a1][b0]],
            sub[mul[a0][b2]][mul[a2][b0]],
            sub[mul[a1][b2]][mul[a2][b1]],
        )
        return 2 if any(minors) else 1


def quad_form_triple(M: Matrix23) -> tuple[int, int, int]:
    """Coefficients (A, B, C) of the binary quadratic A s^2 + B st + C t^2
    attached to the left block of M; characteristic 2 forbids symmetrizing,
    so the triple is read off asymmetrically."""
    (a0, a1), (b0, b1) = M.left_block()
    return a0, M.spec._add[a1][b0], b1


def left_quad_shape(M: Matrix23) -> QuadShape:
    a, b, c = quad_form_triple(M)
    return quad_shape(M.spec, a, b, c)


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

    @classmethod
    def make(cls, spec: FieldSpec, block, shift=(0, 0), lam=1) -> "BTransform":
        blk = tuple(tuple(_coerce(spec, v) for v in row) for row in block)
        sh = tuple(_coerce(spec, v) for v in shift)
        return cls(spec, blk, sh, _coerce(spec, lam))

    def matrix_rows(self) -> tuple:
        (p, r), (s, t) = self.block
        return ((p, r, self.shift[0]), (s, t, self.shift[1]), (0, 0, self.lam))

    def then(self, other: "BTransform") -> "BTransform":
        """The composite whose matrix is self's matrix times other's."""
        spec = self.spec
        add, mul = spec._add, spec._mul
        b1, b2 = self.block, other.block
        blk = tuple(
            tuple(
                add[mul[b1[i][0]][b2[0][j]]][mul[b1[i][1]][b2[1][j]]]
                for j in range(2)
            )
            for i in range(2)
        )
        sh = tuple(
            add[add[mul[b1[i][0]][other.shift[0]]][mul[b1[i][1]][other.shift[1]]]][
                mul[self.shift[i]][other.lam]
            ]
            for i in range(2)
        )
        return BTransform(spec, blk, sh, mul[self.lam][other.lam])


def apply_transform(M: Matrix23, t: BTransform) -> Matrix23:
    """tB M (B b; 0 lam), or blockwise N' = tB M' B and n = tB(M'b + lam m)."""
    spec = M.spec
    add, mul = spec._add, spec._mul
    (p, r), (s, u) = t.block
    tb = ((p, s), (r, u))
    mp = M.left_block()
    mprime_b = tuple(
        add[mul[mp[i][0]][t.shift[0]]][mul[mp[i][1]][t.shift[1]]] for i in range(2)
    )
    m = M.third_column()
    inner = tuple(add[mprime_b[i]][mul[t.lam][m[i]]] for i in range(2))
    n_col = tuple(
        add[mul[tb[i][0]][inner[0]]][mul[tb[i][1]][inner[1]]] for i in range(2)
    )
    tbm = tuple(
        tuple(add[mul[tb[i][0]][mp[0][j]]][mul[tb[i][1]][mp[1][j]]] for j in range(2))
        for i in range(2)
    )
    nprime = tuple(
        tuple(
            add[mul[tbm[i][0]][t.block[0][j]]][mul[tbm[i][1]][t.block[1][j]]]
            for j in range(2)
        )
        for i in range(2)
    )
    return Matrix23(
        spec,
        (
            (nprime[0][0], nprime[0][1], n_col[0]),
            (nprime[1][0], nprime[1][1], n_col[1]),
        ),
    )


def build_GM(M: Matrix23) -> HomogPoly:
    """The degree-(q+1) curve polynomial of M; every affine rational point
    lies on it."""
    if M.is_zero():
        raise ValueError("the zero matrix defines no curve")
    spec = M.spec
    q = spec.q
    (a0, a1, a2), (b0, b1, b2) = M.rows_int
    add, mul, neg = spec._add, spec._mul, spec._neg
    acc: dict = {}

    def put(key, val):
        if not val:
            return
        s = add[acc.get(key, 0)][val]
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)

    put((q + 1, 0, 0), a0)
    put((q, 1, 0), a1)
    put((q, 0, 1), a2)
    put((2, 0, q - 1), neg[a0])
    put((1, 1, q - 1), neg[a1])
    put((1, 0, q), neg[a2])
    put((1, q, 0), b0)
    put((0, q + 1, 0), b1)
    put((0, q, 1), b2)
    put((1, 1, q - 1), neg[b0])
    put((0, 2, q - 1), neg[b1])
    put((0, 1, q), neg[b2])
    return HomogPoly._raw(spec, q + 1, acc)


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


def _solve_block(block, rhs, spec: FieldSpec) -> tuple:
    """x with block @ x = rhs for an invertible 2x2 block."""
    det = _det2(block, spec)
    inv = spec._inv[det]
    (a, b), (c, d) = block
    mul, sub = spec._mul, spec._sub
    x0 = mul[inv][sub[mul[d][rhs[0]]][mul[b][rhs[1]]]]
    x1 = mul[inv][sub[mul[a][rhs[1]]][mul[c][rhs[0]]]]
    return (x0, x1)


def _clear_third_column(M: Matrix23) -> tuple[Matrix23, BTransform]:
    """For det M' != 0, the shift with M'b = -m sends M to (M', 0)."""
    spec = M.spec
    m = M.third_column()
    b = _solve_block(M.left_block(), (spec._neg[m[0]], spec._neg[m[1]]), spec)
    t = BTransform(spec, ((1, 0), (0, 1)), b, 1)
    return apply_transform(M, t), t


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
            n, t = _clear_third_column(cur)
            cur, total = n, total.then(t)
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
            w = (n % q, n // q)
            if spec._sub[spec._mul[root[0]][w[1]]][spec._mul[root[1]][w[0]]]:
                comp = w
                break
        step(BTransform(spec, ((comp[0], root[0]), (comp[1], root[1])), (0, 0), 1))
        if _det2(cur.left_block(), spec):
            n, t = _clear_third_column(cur)
            cur, total = n, total.then(t)
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
            n, t = _clear_third_column(cur)
            cur, total = n, total.then(t)
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
