"""Plane-filling curves of degree q+2 from 3x3 matrices.

A matrix A over GF(q) determines the curve
``(x,y,z) A (U,V,W)^t = 0`` with U = y^q z - y z^q, V = z^q x - z x^q,
W = x^q y - x y^q.  This module builds that polynomial, computes the
characteristic and minimal polynomials of A, sorts A into the eight
splitting cases, emits the predicted decomposition in the canonical
coordinates of each case together with the similarity transform that
realizes it, and computes a complete projective-equivalence key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

from .gf import FieldElement, FieldSpec, _coerce
from .homog import (
    HomogPoly,
    _combination,
    _cross,
    _mat3_det,
    _mat3_inv,
    _matmul,
    _matvec,
    _transpose,
)
from .poly import (
    CUBIC_DOUBLE_PLUS_SIMPLE,
    CUBIC_IRREDUCIBLE,
    CUBIC_LINEAR_TIMES_QUADRATIC,
    CUBIC_THREE_DISTINCT,
    UniPoly,
    cubic_shape,
)

CASE_NONSINGULAR = "nonsingular"
CASE_1 = "1"
CASE_2 = "2"
CASE_3_1 = "3.1"
CASE_3_2 = "3.2"
CASE_4_1 = "4.1"
CASE_4_2 = "4.2"
CASE_4_3 = "4.3"

RESIDUAL_AFFINE_FILLING = "affine_filling"
RESIDUAL_PLANE_FILLING = "plane_filling"
RESIDUAL_MAX_Q_PLUS_1 = "maximal_q_plus_1"
RESIDUAL_MAX_Q = "maximal_q"
RESIDUAL_MAX_Q_MINUS_1 = "maximal_q_minus_1"
MAXIMAL_KINDS = (RESIDUAL_MAX_Q_PLUS_1, RESIDUAL_MAX_Q, RESIDUAL_MAX_Q_MINUS_1)

CONCURRENT_ALL = "all"
CONCURRENT_ALL_BUT_ONE = "all_but_one"
NOT_CONCURRENT = "not_concurrent"


@dataclass(frozen=True)
class Matrix3:
    """A 3x3 matrix over GF(q), stored as integer-encoded rows."""

    spec: FieldSpec
    rows_int: tuple

    @classmethod
    def from_ints(cls, spec: FieldSpec, values) -> "Matrix3":
        vals = [int(v) for v in values]
        if len(vals) != 9:
            raise ValueError("expected 9 entries, row major")
        if any(not 0 <= v < spec.q for v in vals):
            raise ValueError(f"entries must be encodings in [0, {spec.q})")
        return cls(spec, (tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9])))

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Matrix3":
        return cls(spec, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def diagonal(cls, spec: FieldSpec, a, b, c) -> "Matrix3":
        av, bv, cv = (_coerce(spec, v) for v in (a, b, c))
        return cls(spec, ((av, 0, 0), (0, bv, 0), (0, 0, cv)))

    def to_ints(self) -> list[int]:
        return [v for row in self.rows_int for v in row]

    def det(self) -> FieldElement:
        return self.spec._elems[_mat3_det(self.rows_int, self.spec)]

    def transpose(self) -> "Matrix3":
        return Matrix3(self.spec, _transpose(self.rows_int))

    def inverse(self) -> "Matrix3":
        return Matrix3(self.spec, _mat3_inv(self.rows_int, self.spec))

    def __matmul__(self, other: "Matrix3") -> "Matrix3":
        if other.spec != self.spec:
            raise ValueError("matrices over different fields")
        return Matrix3(self.spec, _matmul(self.rows_int, other.rows_int, self.spec))

    def __add__(self, other: "Matrix3") -> "Matrix3":
        if other.spec != self.spec:
            raise ValueError("matrices over different fields")
        add = self.spec._add
        return Matrix3(
            self.spec,
            tuple(
                tuple(add[a][b] for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows_int, other.rows_int)
            ),
        )

    def __sub__(self, other: "Matrix3") -> "Matrix3":
        return self + other.scale(self.spec._neg[1])

    def scale(self, c) -> "Matrix3":
        cv = _coerce(self.spec, c)
        mul = self.spec._mul[cv]
        return Matrix3(
            self.spec, tuple(tuple(mul[v] for v in row) for row in self.rows_int)
        )

    def is_scalar(self) -> bool:
        r = self.rows_int
        return (
            r[0][1] == r[0][2] == r[1][0] == r[1][2] == r[2][0] == r[2][1] == 0
            and r[0][0] == r[1][1] == r[2][2]
        )


# ---------------------------------------------------------------------------
# the curve polynomial


def build_UVW(spec: FieldSpec) -> tuple[HomogPoly, HomogPoly, HomogPoly]:
    """The three two-term generators of the ideal of all rational points."""
    q = spec.q
    n1 = spec._neg[1]
    u = HomogPoly._raw(spec, q + 1, {(0, q, 1): 1, (0, 1, q): n1})
    v = HomogPoly._raw(spec, q + 1, {(1, 0, q): 1, (q, 0, 1): n1})
    w = HomogPoly._raw(spec, q + 1, {(q, 1, 0): 1, (1, q, 0): n1})
    return u, v, w


@lru_cache(maxsize=None)
def _fa_basis(spec: FieldSpec):
    """The terms of F_E for the nine matrix units E, row-major: x_i times
    the j-th generator."""
    uvw = build_UVW(spec)
    return tuple((HomogPoly.variable(spec, i) * g).terms for i in range(3) for g in uvw)


def build_FA(A: Matrix3) -> HomogPoly:
    """The degree-(q+2) curve polynomial of A; zero exactly for scalar A."""
    spec = A.spec
    return _combination(spec, spec.q + 2, zip(A.to_ints(), _fa_basis(spec)))


# ---------------------------------------------------------------------------
# case table


@dataclass(frozen=True)
class CaseLabel:
    """Which splitting case a matrix falls in, with the witnessing data.

    roots carries the relevant eigenvalues: (alpha,) for case 1 together
    with the irreducible quadratic cofactor, the three distinct eigenvalues
    for case 2, (double, simple) for cases 3.x and (alpha,) for cases 4.x.
    """

    tag: str
    roots: tuple[FieldElement, ...]
    quad: UniPoly | None = None


def _case_labels(f: UniPoly) -> tuple[tuple[CaseLabel, UniPoly], ...]:
    """(label, minimal polynomial) for every non-scalar similarity type
    whose characteristic polynomial is f, the one with minimal polynomial f
    first."""
    shape = cubic_shape(f)
    if shape.tag == CUBIC_IRREDUCIBLE:
        return ((CaseLabel(CASE_NONSINGULAR, ()), f),)
    if shape.tag == CUBIC_LINEAR_TIMES_QUADRATIC:
        return ((CaseLabel(CASE_1, shape.roots, shape.quad), f),)
    if shape.tag == CUBIC_THREE_DISTINCT:
        return ((CaseLabel(CASE_2, shape.roots), f),)
    # a degree-2 minimal polynomial drops one factor t - alpha of the
    # double or triple root alpha
    m = UniPoly.from_roots(f.spec, shape.roots[1:])
    if shape.tag == CUBIC_DOUBLE_PLUS_SIMPLE:
        roots = (shape.roots[0], shape.roots[2])
        return ((CaseLabel(CASE_3_1, roots), f), (CaseLabel(CASE_3_2, roots), m))
    roots = shape.roots[:1]
    return ((CaseLabel(CASE_4_1, roots), f), (CaseLabel(CASE_4_2, roots), m))


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials


@lru_cache(maxsize=None)
def _characteristic(spec: FieldSpec, tr: int, s2: int, det: int):
    """(t^3 - tr t^2 + s2 t - det, its case table entry): the memo behind
    charpoly, minpoly and classify, filled one key at a time, with at most
    q^3 entries per field."""
    neg = spec._neg
    f = UniPoly(spec, (neg[det], s2, neg[tr], 1))
    return f, _case_labels(f)


def _invariants(A: Matrix3) -> tuple[int, int, int]:
    """The trace, the sum of the principal 2x2 minors and the determinant
    of A."""
    spec = A.spec
    (a, b, c), (d, e, f), (g, h, i) = A.rows_int
    add, sub, mul = spec._add, spec._sub, spec._mul
    tr = add[add[a][e]][i]
    s2 = add[
        add[sub[mul[e][i]][mul[f][h]]][sub[mul[a][i]][mul[c][g]]]
    ][sub[mul[a][e]][mul[b][d]]]
    return tr, s2, _mat3_det(A.rows_int, spec)


def _shifted(rows, alpha: int, spec: FieldSpec):
    """rows - alpha*E."""
    if not alpha:
        return rows
    sub = spec._sub
    (a, b, c), (d, e, f), (g, h, i) = rows
    return ((sub[a][alpha], b, c), (d, sub[e][alpha], f), (g, h, sub[i][alpha]))


def _repeated_root_degree(A: Matrix3, label: CaseLabel) -> int:
    """Degree of the minimal polynomial of A, whose characteristic
    polynomial has the repeated root of label (case 3.1 or 4.1): 2 when
    (A - alpha)(A - beta) = 0 for the double root alpha and the simple root
    beta, or when (A - alpha)^2 = 0 for the triple root alpha; 1 when A is
    scalar; otherwise 3."""
    spec = A.spec
    rows = A.rows_int
    alpha = label.roots[0].val
    if label.tag == CASE_4_1 and A.is_scalar():
        return 1
    other = label.roots[1].val if label.tag == CASE_3_1 else alpha
    n = _matmul(_shifted(rows, alpha, spec), _shifted(rows, other, spec), spec)
    return 3 if any(map(any, n)) else 2


def _case_and_minpoly(A: Matrix3):
    """(case label, minimal polynomial, characteristic polynomial) of A,
    from one lookup of the memo.  Without a repeated root the first two
    follow from the characteristic polynomial; with one, the degree of the
    minimal polynomial picks the similarity type."""
    f, labels = _characteristic(A.spec, *_invariants(A))
    if len(labels) == 1:
        return (*labels[0], f)
    mdeg = _repeated_root_degree(A, labels[0][0])
    if mdeg == 1:
        roots = labels[0][0].roots
        return CaseLabel(CASE_4_3, roots), UniPoly(A.spec, (A.spec._neg[roots[0].val], 1)), f
    return next((label, m, f) for label, m in labels if m.degree == mdeg)


def charpoly(A: Matrix3) -> UniPoly:
    """det(tE - A), monic of degree 3."""
    return _characteristic(A.spec, *_invariants(A))[0]


def minpoly(A: Matrix3) -> UniPoly:
    """Monic minimal polynomial: the characteristic one unless it has a
    repeated root and A passes the test of ``_repeated_root_degree``."""
    return _case_and_minpoly(A)[1]


def classify(A: Matrix3) -> CaseLabel:
    """Sort A by the factor shape of its characteristic polynomial and the
    degree of its minimal polynomial, both worked out from A."""
    return _case_and_minpoly(A)[0]


# ---------------------------------------------------------------------------
# similarity to the case-canonical form


@lru_cache(maxsize=None)
def _kernel_memo(spec: FieldSpec):
    """(the multiples of each rank-2 kernel line, the vectors perpendicular
    to each normalized row): the lists behind ``_kernel_vectors``, each
    filled on first use."""
    return {}, {}


def _kernel_vectors(rows, spec: FieldSpec):
    """The nonzero solutions v of rows*v = 0 as a list, ascending by base-q
    enumeration index x + q*y + q^2*z (every nonzero vector for no rows).

    When two rows are independent their cross product c spans the kernel,
    unless a row does not vanish on c and the kernel is zero.  Otherwise
    the rows are multiples of one row r, and the kernel is the plane
    perpendicular to r, or everything when every row is zero.  The lists
    are memoized per c and per normalized r, and must not be changed.
    """
    lines, planes = _kernel_memo(spec)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            c = _cross(rows[i], rows[j], spec)
            if any(c):
                if any(_matvec(rows, c, spec)):
                    return ()
                got = lines.get(c)
                if got is None:
                    mul = spec._mul
                    got = lines[c] = sorted(
                        ((mul[k][c[0]], mul[k][c[1]], mul[k][c[2]]) for k in range(1, spec.q)),
                        key=lambda v: (v[2], v[1], v[0]),
                    )
                return got
    r = next((r for r in rows if any(r)), None)
    if r is None:
        key = (0, 0, 0)
    else:
        scale = spec._mul[spec._inv[next(v for v in r if v)]]
        key = tuple(scale[v] for v in r)
    got = planes.get(key)
    if got is None:
        # solve for the coordinate of the leading one, the others running
        # in counting order; the first solution is zero
        a, b, c = key
        els, neg, add, mul = range(spec.q), spec._neg, spec._add, spec._mul
        if a:
            got = [(neg[add[mul[b][y]][mul[c][z]]], y, z) for z in els for y in els]
        elif b:
            got = [(x, neg[mul[c][z]], z) for z in els for x in els]
        elif c:
            got = [(x, y, 0) for y in els for x in els]
        else:
            got = [(x, y, z) for z in els for y in els for x in els]
        got = planes[key] = got[1:]
    return got


def _first(vectors, pred=any):
    """The first of vectors that satisfies pred."""
    for v in vectors:
        if pred(v):
            return v
    raise ValueError("the matrix is not in the case of its label")


def _companion(f: UniPoly) -> Matrix3:
    spec = f.spec
    neg = spec._neg
    f0, f1, f2 = f.coeffs[0], f.coeffs[1], f.coeffs[2]
    return Matrix3(
        spec, ((0, 0, neg[f0]), (1, 0, neg[f1]), (0, 1, neg[f2]))
    )


def _case_canonical(spec: FieldSpec, label: CaseLabel, f: UniPoly) -> Matrix3:
    if label.tag == CASE_NONSINGULAR:
        return _companion(f)
    if label.tag == CASE_1:
        alpha = label.roots[0].val
        g = label.quad
        a, b = spec._neg[g.coeffs[0]], spec._neg[g.coeffs[1]]
        return Matrix3(spec, ((0, a, 0), (1, b, 0), (0, 0, alpha)))
    if label.tag == CASE_2:
        a1, a2, a3 = (r.val for r in label.roots)
        return Matrix3.diagonal(spec, a1, a2, a3)
    if label.tag == CASE_3_1:
        alpha, beta = label.roots[0].val, label.roots[1].val
        return Matrix3(spec, ((alpha, 1, 0), (0, alpha, 0), (0, 0, beta)))
    if label.tag == CASE_3_2:
        alpha, beta = label.roots[0].val, label.roots[1].val
        return Matrix3.diagonal(spec, alpha, alpha, beta)
    alpha = label.roots[0].val
    if label.tag == CASE_4_1:
        return Matrix3(spec, ((alpha, 1, 0), (0, alpha, 1), (0, 0, alpha)))
    if label.tag == CASE_4_2:
        return Matrix3(spec, ((alpha, 1, 0), (0, alpha, 0), (0, 0, alpha)))
    return Matrix3.diagonal(spec, alpha, alpha, alpha)


def _basis(A: Matrix3, label: CaseLabel) -> tuple:
    """The columns (v1, v2, v3) of S^-1 for the S of ``rcf_similarity``."""
    spec = A.spec
    if label.tag == CASE_4_3:
        return ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rows = A.rows_int

    def image(m, v):
        return _matvec(m, v, spec)

    def eigvec(alpha: int):
        return _first(_kernel_vectors(_shifted(rows, alpha, spec), spec))

    if label.tag == CASE_NONSINGULAR:
        v1 = (1, 0, 0)
        v2 = image(rows, v1)
        v3 = image(rows, v2)
    elif label.tag == CASE_1:
        g0, g1 = label.quad.coeffs[:2]
        neg = spec._neg
        # g(A) = A (A + g1) + g0
        g_a = _shifted(_matmul(rows, _shifted(rows, neg[g1], spec), spec), neg[g0], spec)
        v1 = _first(_kernel_vectors(g_a, spec))
        v2 = image(rows, v1)
        v3 = eigvec(label.roots[0].val)
    elif label.tag == CASE_2:
        v1, v2, v3 = (eigvec(r.val) for r in label.roots)
    elif label.tag == CASE_3_1:
        alpha, beta = label.roots[0].val, label.roots[1].val
        n = _shifted(rows, alpha, spec)
        v2 = _first(_kernel_vectors(_matmul(n, n, spec), spec), lambda v: any(image(n, v)))
        v1 = image(n, v2)
        v3 = eigvec(beta)
    elif label.tag == CASE_3_2:
        alpha, beta = label.roots[0].val, label.roots[1].val
        kern = _kernel_vectors(_shifted(rows, alpha, spec), spec)
        v1 = _first(kern)
        v2 = _first(kern, lambda v: any(_cross(v1, v, spec)))
        v3 = eigvec(beta)
    elif label.tag == CASE_4_1:
        n = _shifted(rows, label.roots[0].val, spec)
        n2 = _matmul(n, n, spec)
        v3 = _first(_kernel_vectors((), spec), lambda v: any(image(n2, v)))
        v2 = image(n, v3)
        v1 = image(n, v2)
    else:  # CASE_4_2
        n = _shifted(rows, label.roots[0].val, spec)
        v2 = _first(_kernel_vectors((), spec), lambda v: any(image(n, v)))
        v1 = image(n, v2)
        v3 = _first(_kernel_vectors(n, spec), lambda v: any(_cross(v1, v, spec)))
    return v1, v2, v3


def _shift_basis(basis: tuple, label: CaseLabel, shifted: CaseLabel, mu: int, spec: FieldSpec):
    """The ``_basis`` of R + mu E under the label shifted, from the
    ``_basis`` of R under label, when shifted is label shifted by mu: the
    same tag, the roots plus mu and, in case 1, the quadratic g(t - mu).
    None otherwise, and for the nonsingular case, which is not derived.

    (R + mu E) - (r + mu) E = R - r E and g(t - mu) at R + mu E is g(R), so
    ``_basis`` takes its first vectors from the same kernels: cases 3.x
    and 4.x keep R's basis, case 2 takes R's eigenvector for r - mu as the
    one for the root r, and case 1 keeps v1 and v3 and maps v1 to
    (R + mu E) v1 = v2 + mu v1.
    """
    if shifted.tag != label.tag or label.tag == CASE_NONSINGULAR:
        return None
    add = spec._add
    roots = [add[r.val][mu] for r in label.roots]
    got = [r.val for r in shifted.roots]
    if label.tag == CASE_2:
        if sorted(got) != sorted(roots):
            return None
        return tuple(basis[roots.index(r)] for r in got)
    if got != roots:
        return None
    if label.tag == CASE_1:
        if shifted.quad != label.quad.affine_transform(1, mu):
            return None
        (v1, v2, v3), mul = basis, spec._mul[mu]
        return v1, tuple(add[b][mul[a]] for a, b in zip(v1, v2)), v3
    return basis


def rcf_similarity(A: Matrix3) -> tuple[Matrix3, Matrix3]:
    """(C, S) with S A S^-1 = C, the canonical matrix of A's case.

    The basis vectors are chosen by cyclic-vector and eigenvector
    construction, always taking the first suitable vector in base-q
    enumeration order, so the output is deterministic and a matrix already
    in canonical form returns S = E.
    """
    spec = A.spec
    label, _mp, f = _case_and_minpoly(A)
    if label.tag == CASE_4_3:
        return A, Matrix3.identity(spec)
    s_inv = Matrix3(spec, _transpose(_basis(A, label)))
    return _case_canonical(spec, label, f), s_inv.inverse()


# ---------------------------------------------------------------------------
# predicted decomposition


def point_bound(degree: int, q: int) -> int:
    """The bound (d-1)q + 1 on the rational points of a degree-d curve
    without rational linear components."""
    return (degree - 1) * q + 1


@dataclass(frozen=True)
class ResidualSpec:
    """The nonlinear part of a predicted decomposition.

    The kind fixes the counts: the maximal kinds and the whole plane-filling
    curve meet the point bound exactly and have no singular rational point;
    the affine-filling curve has the q^2 affine points and one singular
    rational point.
    """

    kind: str
    equation: HomogPoly

    @property
    def degree(self) -> int:
        return self.equation.degree

    @property
    def expected_points(self) -> int:
        q = self.equation.spec.q
        if self.kind == RESIDUAL_AFFINE_FILLING:
            return q * q
        return point_bound(self.degree, q)

    @property
    def expected_singular_points(self) -> int:
        return 1 if self.kind == RESIDUAL_AFFINE_FILLING else 0


@dataclass(frozen=True)
class DecompositionPlan:
    """Predicted splitting of the curve of A.

    Lines and the residual equation are written in the canonical
    coordinates of A's case, which depend on A only through its label.
    ``basis`` holds the columns (v1, v2, v3) of S^-1 for the similarity S
    with S A S^-1 = canonical, as rows: a verifier transports everything
    back to the original coordinates through the substitution
    x -> basis*x.  The memoized plan of a label has no basis.  Only the
    plan of a scalar, whose curve polynomial is zero, is empty.
    """

    lines: tuple
    residual: ResidualSpec | None
    concurrency: str | None
    basis: tuple | None = None


def coordinate_lines(spec: FieldSpec) -> tuple[HomogPoly, HomogPoly, HomogPoly]:
    """The lines x = 0, y = 0 and z = 0."""
    return tuple(HomogPoly.variable(spec, i) for i in range(3))


def line_pencil(spec: FieldSpec, base: int, other: int) -> list:
    """The simple lines base - lam*other for lam != 0, where base and other
    index coordinates: the pencil through their common zero without the two
    coordinate lines."""
    out = []
    for lam in range(1, spec.q):
        coeffs = [0, 0, 0]
        coeffs[base] = 1
        coeffs[other] = spec._neg[lam]
        out.append((HomogPoly.linear_form(spec, coeffs), 1))
    return out


def predicted_decomposition(
    A: Matrix3, label: CaseLabel | None = None, basis: tuple | None = None
) -> DecompositionPlan:
    """The splitting the case analysis predicts for the curve of A: the
    canonical plan of its label with the basis of its similarity.

    The basis is ``_basis`` of A unless given: the theorem-4 report sweep
    passes the one ``_shift_basis`` derives for R + mu E from R's.
    Scalar matrices get the empty plan; the irreducible (nonsingular) case
    is rejected since there is nothing to decompose.
    """
    if label is None:
        label = classify(A)
    if basis is None:
        basis = _basis(A, label)
    return replace(canonical_plan(A.spec, label), basis=basis)


@lru_cache(maxsize=None)
def canonical_plan(spec: FieldSpec, label: CaseLabel) -> DecompositionPlan:
    """The splitting of the curve of the canonical matrix of a label other
    than the nonsingular one, built once per label and process."""
    if label.tag == CASE_NONSINGULAR:
        raise ValueError("the curve of a matrix with irreducible characteristic polynomial does not split")
    q = spec.q
    neg = spec._neg
    x, y, z = coordinate_lines(spec)

    if label.tag == CASE_4_3:
        return DecompositionPlan((), None, None)

    if label.tag == CASE_1:
        alpha = label.roots[0].val
        g = label.quad
        a, b = neg[g.coeffs[0]], neg[g.coeffs[1]]
        eq = HomogPoly(
            spec,
            q + 1,
            {
                (0, q + 1, 0): 1,
                (0, 2, q - 1): neg[1],
                (2, 0, q - 1): a,
                (q + 1, 0, 0): neg[a],
                (1, 1, q - 1): b,
                (q, 1, 0): spec._sub[alpha][b],
                (1, q, 0): neg[alpha],
            },
        )
        residual = ResidualSpec(RESIDUAL_AFFINE_FILLING, eq)
        return DecompositionPlan(((z, 1),), residual, None)

    if label.tag == CASE_2:
        a1, a2, a3 = (r.val for r in label.roots)
        eq = HomogPoly(
            spec,
            q - 1,
            {
                (q - 1, 0, 0): spec._sub[a3][a2],
                (0, q - 1, 0): spec._sub[a1][a3],
                (0, 0, q - 1): spec._sub[a2][a1],
            },
        )
        residual = ResidualSpec(RESIDUAL_MAX_Q_MINUS_1, eq)
        return DecompositionPlan(((x, 1), (y, 1), (z, 1)), residual, NOT_CONCURRENT)

    if label.tag == CASE_3_1:
        beta_p = spec._sub[label.roots[1].val][label.roots[0].val]
        eq = HomogPoly(
            spec,
            q,
            {
                (1, 0, q - 1): 1,
                (q, 0, 0): neg[1],
                (q - 1, 1, 0): beta_p,
                (0, q, 0): neg[beta_p],
            },
        )
        residual = ResidualSpec(RESIDUAL_MAX_Q, eq)
        return DecompositionPlan(((x, 1), (z, 1)), residual, None)

    if label.tag == CASE_3_2:
        lines = ((z, 1), (x, 1), (y, 1), *line_pencil(spec, 0, 1))
        return DecompositionPlan(lines, None, CONCURRENT_ALL_BUT_ONE)

    if label.tag == CASE_4_1:
        eq = HomogPoly(
            spec,
            q + 1,
            {
                (1, 0, q): 1,
                (q, 0, 1): neg[1],
                (q - 1, 2, 0): 1,
                (0, q + 1, 0): neg[1],
            },
        )
        residual = ResidualSpec(RESIDUAL_MAX_Q_PLUS_1, eq)
        return DecompositionPlan(((x, 1),), residual, None)

    # CASE_4_2: a double line and q simple lines through one point
    lines = ((x, 2), (z, 1), *line_pencil(spec, 2, 0))
    return DecompositionPlan(lines, None, CONCURRENT_ALL)


# ---------------------------------------------------------------------------
# projective-equivalence key


@dataclass(frozen=True)
class EquivKey:
    """Canonical invariant of the projective-equivalence class of a curve.

    Two non-scalar matrices share a key exactly when one is
    rho * tB A tB^-1 + mu E for some invertible B, nonzero rho and any mu.
    All scalar matrices share the distinguished scalar key.
    """

    scalar: bool
    key: tuple | None


def _orbit(f: UniPoly, m: UniPoly) -> set:
    """The (characteristic, minimal) coefficient pairs of rho*A + mu*E over
    all nonzero rho and all mu, for A with polynomials f and m; m is
    transformed apart only when it differs from f."""
    q = f.spec.q
    same = m == f
    out = set()
    for rho in range(1, q):
        for mu in range(q):
            fk = f.affine_transform(rho, mu).coeffs
            out.add((fk, fk if same else m.affine_transform(rho, mu).coeffs))
    return out


def _pair_key(orbit: set) -> tuple:
    return min((len(mk), fk, mk) for fk, mk in orbit)


def equiv_key(A: Matrix3) -> EquivKey:
    if A.is_scalar():
        return EquivKey(True, None)
    return EquivKey(False, _pair_key(_orbit(charpoly(A), minpoly(A))))


# ---------------------------------------------------------------------------
# one representative matrix per equivalence class


def _class_size(spec: FieldSpec, tag: str) -> int:
    """Number of matrices similar to a given one, per case.

    |GL(3,q)| divided by the order of the centralizer of the canonical
    form; the centralizer orders depend only on the elementary-divisor
    type.  Cross-checked exhaustively at small q in the test suite.
    """
    q = spec.q
    gl = (q**3 - 1) * (q**3 - q) * (q**3 - q**2)
    centralizers = {
        CASE_NONSINGULAR: q**3 - 1,
        CASE_1: (q**2 - 1) * (q - 1),
        CASE_2: (q - 1) ** 3,
        CASE_3_1: q * (q - 1) ** 2,
        CASE_3_2: (q**2 - 1) * (q**2 - q) * (q - 1),
        CASE_4_1: q**2 * (q - 1),
        CASE_4_2: q**3 * (q - 1) ** 2,
    }
    return gl // centralizers[tag]


@dataclass(frozen=True)
class ClassRepresentative:
    key: EquivKey
    matrix: Matrix3
    tag: str
    orbit_size: int


def equivalence_representatives(spec: FieldSpec) -> list[ClassRepresentative]:
    """One canonical matrix per equivalence class of non-scalar matrices.

    Classes are enumerated through (characteristic, minimal) polynomial
    pairs rather than by sweeping all q^9 matrices; the orbit size is the
    similarity-class size times the number of distinct scaled-and-shifted
    polynomial pairs.  Orbit sizes over all entries sum to q^9 - q.

    A cubic is skipped, before it is factored, when it is the
    characteristic polynomial of a pair in an orbit already found: the
    orbits of all the labels of a cubic are taken in the same pass, and
    rho*A + mu*E maps the labels of one cubic onto those of the other.
    """
    q = spec.q
    out = []
    seen = set()  # the characteristic polynomials of the orbits found
    for c2, c1, c0 in product(range(q), repeat=3):
        coeffs = (c0, c1, c2, 1)
        if coeffs in seen:
            continue
        f = UniPoly(spec, coeffs)
        for label, m in _case_labels(f):
            orbit = _orbit(f, m)
            seen.update(fk for fk, _mk in orbit)
            key = EquivKey(False, _pair_key(orbit))
            C = _case_canonical(spec, label, f)
            size = _class_size(spec, label.tag) * len(orbit)
            out.append(ClassRepresentative(key, C, label.tag, size))
    return out
