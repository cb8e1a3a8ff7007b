"""Sparse homogeneous polynomials in x, y, z over GF(q).

Terms live in a dict mapping exponent triples (i, j, k) with i+j+k = degree
to nonzero coefficient encodings.  Because every stored polynomial is
homogeneous, graded-lex order on monomials is plain tuple order, so
``max(terms)`` is the leading monomial.  The zero polynomial keeps a
declared degree and an empty term map.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import FieldSpec, _coerce


class ProjPoint:
    """A point of P^2(F_q), normalized so the first nonzero coordinate is 1."""

    __slots__ = ("spec", "key")

    def __init__(self, spec: FieldSpec, coords):
        vals = [_coerce(spec, c) for c in coords]
        if len(vals) != 3 or not any(vals):
            raise ValueError("a projective point needs three coordinates, not all zero")
        lead = next(v for v in vals if v)
        if lead != 1:
            inv = spec._inv[lead]
            mul = spec._mul[inv]
            vals = [mul[v] for v in vals]
        self.spec = spec
        self.key = tuple(vals)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.key == other.key and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec.q, self.key))

    def __repr__(self):
        return "({}:{}:{})".format(*self.key)


class HomogPoly:
    """A homogeneous trivariate polynomial of a declared degree."""

    __slots__ = ("spec", "degree", "terms")

    def __init__(self, spec: FieldSpec, degree: int, terms=None):
        cleaned: dict[tuple[int, int, int], int] = {}
        for key, c in (terms or {}).items():
            cv = _coerce(spec, c)
            if not cv:
                continue
            i, j, k = key
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"exponents {key} do not sum to degree {degree}")
            cleaned[(i, j, k)] = cv
        self.spec = spec
        self.degree = degree
        self.terms = cleaned

    @classmethod
    def _raw(cls, spec: FieldSpec, degree: int, terms: dict) -> "HomogPoly":
        out = object.__new__(cls)
        out.spec = spec
        out.degree = degree
        out.terms = terms
        return out

    @classmethod
    def variable(cls, spec: FieldSpec, index: int) -> "HomogPoly":
        key = [0, 0, 0]
        key[index] = 1
        return cls._raw(spec, 1, {tuple(key): 1})

    @classmethod
    def linear_form(cls, spec: FieldSpec, coeffs) -> "HomogPoly":
        a, b, c = (_coerce(spec, v) for v in coeffs)
        terms = {}
        if a:
            terms[(1, 0, 0)] = a
        if b:
            terms[(0, 1, 0)] = b
        if c:
            terms[(0, 0, 1)] = c
        return cls._raw(spec, 1, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def line_coeffs(self) -> tuple[int, int, int]:
        if self.degree != 1:
            raise ValueError("not a linear form")
        return (
            self.terms.get((1, 0, 0), 0),
            self.terms.get((0, 1, 0), 0),
            self.terms.get((0, 0, 1), 0),
        )

    def scaled(self, c) -> "HomogPoly":
        return _combination(self.spec, self.degree, [(_coerce(self.spec, c), self.terms)])

    def _same(self, other: "HomogPoly") -> FieldSpec:
        if not isinstance(other, HomogPoly) or other.spec != self.spec:
            raise ValueError("operands must live over the same field")
        return self.spec

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        spec = self._same(other)
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degrees")
        out = _add_scaled(dict(self.terms), other.terms, 1, spec)
        return HomogPoly._raw(spec, self.degree, out)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __neg__(self) -> "HomogPoly":
        return self.scaled(self.spec._neg[1])

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        spec = self._same(other)
        return HomogPoly._raw(
            spec, self.degree + other.degree, _dict_mul(self.terms, other.terms, spec)
        )

    def __pow__(self, n: int) -> "HomogPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = HomogPoly._raw(self.spec, 0, {(0, 0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def eval(self, point) -> int:
        """Value at a projective point (or raw coordinate triple)."""
        spec = self.spec
        if isinstance(point, ProjPoint):
            if point.spec != spec:
                raise ValueError("point from a different field")
            a, b, c = point.key
        else:
            a, b, c = (_coerce(spec, v) for v in point)
        powf, mul, add = spec.pow_int, spec._mul, spec._add
        acc = 0
        for (i, j, k), cf in self.terms.items():
            v = mul[powf(a, i)][powf(b, j)]
            v = mul[v][powf(c, k)]
            acc = add[acc][mul[v][cf]]
        return acc

    def to_list(self) -> list[list[int]]:
        """Serialized terms [i, j, k, coeff], graded-lex leading term first."""
        return [[i, j, k, c] for (i, j, k), c in sorted(self.terms.items(), reverse=True)]

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.degree == other.degree
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return f"0[deg {self.degree}]"
        parts = []
        for (i, j, k), c in sorted(self.terms.items(), reverse=True):
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip("xyz", (i, j, k))
                if e
            ) or "1"
            parts.append(mono if c == 1 and mono != "1" else f"{c}*{mono}")
        return " + ".join(parts)


def scalar_ratio(f: HomogPoly, g: HomogPoly):
    """The constant c with f == c*g, or None if the two are not proportional."""
    if f.spec != g.spec or f.degree != g.degree:
        return None
    if f.is_zero() or g.is_zero():
        return 1 if f.is_zero() and g.is_zero() else None
    if f.terms.keys() != g.terms.keys():
        return None
    spec = f.spec
    lead = max(f.terms)
    c = spec.div(f.terms[lead], g.terms[lead])
    mul = spec._mul[c]
    for k, v in g.terms.items():
        if f.terms[k] != mul[v]:
            return None
    return c


# ---------------------------------------------------------------------------
# the plane: points, lines, cached monomial columns


class _Plane:
    __slots__ = (
        "spec", "points", "lines", "line_coeffs", "_mono", "_scalings", "_line_points",
        "affine_idx", "infinity_idx",
    )

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        elems = range(spec.q)
        triples = (
            [(1, y, z) for y in elems for z in elems]
            + [(0, 1, z) for z in elems]
            + [(0, 0, 1)]
        )
        self.points = [ProjPoint(spec, t) for t in triples]
        self.line_coeffs = list(triples)
        self.lines = [HomogPoly.linear_form(spec, t) for t in triples]
        self.affine_idx = [i for i, p in enumerate(self.points) if p.key[2]]
        self.infinity_idx = [i for i, p in enumerate(self.points) if not p.key[2]]
        self._mono: dict = {}
        self._scalings = None
        self._line_points = None

    def mono_column(self, key):
        col = self._mono.get(key)
        if col is None:
            i, j, k = key
            powf, mul = self.spec.pow_int, self.spec._mul
            col = [
                mul[mul[powf(a, i)][powf(b, j)]][powf(c, k)]
                for a, b, c in (p.key for p in self.points)
            ]
            self._mono[key] = col
        return col

    def _column(self, terms: dict) -> list[int]:
        add, mul = self.spec._add, self.spec._mul
        vals = [0] * len(self.points)
        for key, c in terms.items():
            col = self.mono_column(key)
            crow = mul[c]
            vals = [add[v][crow[cv]] for v, cv in zip(vals, col)]
        return vals

    def values(self, f: HomogPoly) -> list[int]:
        return self._column(f.terms)

    def jets(self, f: HomogPoly) -> tuple[list[int], ...]:
        """The values of f, df/dx, df/dy and df/dz at the points, in plane
        order."""
        return tuple(self._column(g.terms) for g in (f, *partials(f)))

    def value_at(self, f: HomogPoly, i: int) -> int:
        """The value of f at the i-th point, from the monomial columns."""
        add, mul = self.spec._add, self.spec._mul
        acc = 0
        for key, c in f.terms.items():
            acc = add[acc][mul[c][self.mono_column(key)[i]]]
        return acc

    def scalings(self) -> dict:
        """(i, lam) with v = lam * (the i-th point) for every nonzero
        vector v, built on first use."""
        if self._scalings is None:
            mul = self.spec._mul
            self._scalings = {
                (mul[lam][a], mul[lam][b], mul[lam][c]): (i, lam)
                for i, (a, b, c) in enumerate(self.line_coeffs)
                for lam in range(1, self.spec.q)
            }
        return self._scalings

    def line_points(self) -> list[list[int]]:
        """The indices of the q + 1 points of each line, in plane order,
        built on first use: the points u + t*v and v for two points u, v
        spanning the line."""
        if self._line_points is None:
            spec = self.spec
            q, add, mul, neg, inv = spec.q, spec._add, spec._mul, spec._neg, spec._inv

            def index(a, b, c):
                if a:
                    row = mul[inv[a]]
                    return row[b] * q + row[c]
                return q * q + mul[inv[b]][c] if b else q * q + q

            table = []
            for a, b, c in self.line_coeffs:
                if a:
                    u, v = (neg[b], 1, 0), (neg[c], 0, 1)
                elif b:
                    u, v = (0, neg[c], 1), (1, 0, 0)
                else:
                    u, v = (1, 0, 0), (0, 1, 0)
                pts = [
                    index(*(add[x][trow[y]] for x, y in zip(u, v)))
                    for trow in (mul[t] for t in range(q))
                ]
                pts.append(index(*v))
                table.append(pts)
            self._line_points = table
        return self._line_points


@lru_cache(maxsize=None)
def _plane_for(spec: FieldSpec) -> _Plane:
    return _Plane(spec)


# ---------------------------------------------------------------------------
# matrix and vector algebra on raw integer rows (shared by the matrix front
# ends, the similarity construction and the oracle)


def _as_int_rows(b, spec: FieldSpec):
    rows = getattr(b, "rows_int", None)
    if rows is not None:
        return rows
    out = []
    for row in b:
        out.append(tuple(_coerce(spec, v) for v in row))
    if len(out) != 3 or any(len(r) != 3 for r in out):
        raise ValueError("expected a 3x3 matrix")
    return tuple(out)


def _transpose(rows):
    return tuple(zip(*rows))


def _matvec(rows, v, spec: FieldSpec):
    """rows * v: the dot product of each row with the vector v."""
    mul, add = spec._mul, spec._add
    out = []
    for row in rows:
        s = 0
        for a, b in zip(row, v):
            s = add[s][mul[a][b]]
        out.append(s)
    return tuple(out)


def _matmul(a, b, spec: FieldSpec):
    """a * b for conformable matrices of any shape: row i is b^t * (row i
    of a)."""
    cols = _transpose(b)
    return tuple([_matvec(cols, row, spec) for row in a])


def _cross(u, v, spec: FieldSpec):
    """u x v: zero exactly when u and v are proportional; otherwise the
    line through two points, or the point on two lines."""
    sub, mul = spec._sub, spec._mul
    return (
        sub[mul[u[1]][v[2]]][mul[u[2]][v[1]]],
        sub[mul[u[2]][v[0]]][mul[u[0]][v[2]]],
        sub[mul[u[0]][v[1]]][mul[u[1]][v[0]]],
    )


def _mat3_det(rows, spec: FieldSpec) -> int:
    (det,) = _matvec(rows[:1], _cross(rows[1], rows[2], spec), spec)
    return det


def _mat3_inv(rows, spec: FieldSpec):
    """The adjugate, whose columns are cross products of the rows, over
    the determinant."""
    r0, r1, r2 = rows
    cols = (_cross(r1, r2, spec), _cross(r2, r0, spec), _cross(r0, r1, spec))
    (det,) = _matvec((r0,), cols[0], spec)
    if det == 0:
        raise ValueError("matrix is singular")
    mrow = spec._mul[spec._inv[det]]
    return tuple(tuple(mrow[v] for v in row) for row in zip(*cols))


# ---------------------------------------------------------------------------
# substitution and derivatives


def _row_power(row, n: int, spec: FieldSpec, cache: dict):
    """Sparse expansion of (r0*x + r1*y + r2*z)^n for n >= 1.

    For n >= q the Frobenius split (L^q has the original coefficients on
    x^q, y^q, z^q) keeps the expansion sparse instead of dense.
    """
    got = cache.get(n)
    if got is not None:
        return got
    q = spec.q
    if n == 1:
        out = HomogPoly.linear_form(spec, row).terms
    elif n >= q:
        m, r = divmod(n, q)
        base = _row_power(row, m, spec, cache)
        out = {(i * q, j * q, k * q): c for (i, j, k), c in base.items()}
        if r:
            out = _dict_mul(out, _row_power(row, r, spec, cache), spec)
    else:
        out = _dict_mul(
            _row_power(row, n - 1, spec, cache), _row_power(row, 1, spec, cache), spec
        )
    cache[n] = out
    return out


def _add_scaled(acc: dict, terms: dict, c: int, spec: FieldSpec) -> dict:
    """acc += c*terms in place, dropping the terms that cancel; returns acc."""
    add, row = spec._add, spec._mul[c]
    for key, v in terms.items():
        s = add[acc.get(key, 0)][row[v]]
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return acc


def _combination(spec: FieldSpec, degree: int, pairs) -> HomogPoly:
    """The sum of c*terms over the (c, terms) pairs, as a polynomial of the
    given degree."""
    acc: dict = {}
    for c, terms in pairs:
        if c:
            _add_scaled(acc, terms, c, spec)
    return HomogPoly._raw(spec, degree, acc)


def _dict_mul(a: dict, b: dict, spec: FieldSpec) -> dict:
    add, mul = spec._add, spec._mul
    out: dict = {}
    for (i1, j1, k1), c1 in a.items():
        row = mul[c1]
        for (i2, j2, k2), c2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            s = add[out.get(key, 0)][row[c2]]
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def linear_substitute(f: HomogPoly, b) -> HomogPoly:
    """f composed with the invertible substitution (x,y,z) = B(x',y',z')."""
    spec = f.spec
    rows = _as_int_rows(b, spec)
    if _mat3_det(rows, spec) == 0:
        raise ValueError("substitution matrix is singular")
    caches = ({}, {}, {})

    def image(key):
        """The product of the row powers, leaving out the x^0 factors."""
        prod = None
        for row, e, cache in zip(rows, key, caches):
            if e:
                power = _row_power(row, e, spec, cache)
                prod = power if prod is None else _dict_mul(prod, power, spec)
        return {(0, 0, 0): 1} if prod is None else prod

    return _combination(spec, f.degree, ((c, image(key)) for key, c in f.terms.items()))


def partials(f: HomogPoly) -> tuple[HomogPoly, HomogPoly, HomogPoly]:
    """Formal partial derivatives; exponent multipliers are taken mod p."""
    if f.degree < 1:
        raise ValueError("needs degree at least 1")
    spec = f.spec
    p = spec.p
    mul = spec._mul
    items = f.terms.items()
    # an exponent taken mod p is below p, so it is its own element encoding
    fx = {(i - 1, j, k): mul[c][i % p] for (i, j, k), c in items if i % p}
    fy = {(i, j - 1, k): mul[c][j % p] for (i, j, k), c in items if j % p}
    fz = {(i, j, k - 1): mul[c][k % p] for (i, j, k), c in items if k % p}
    return tuple(HomogPoly._raw(spec, f.degree - 1, terms) for terms in (fx, fy, fz))
