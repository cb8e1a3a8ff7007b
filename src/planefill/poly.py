"""Univariate polynomials over GF(q), plus the factor-shape analysis of
monic cubics and of binary quadratic forms that drives both curve
classifications.

Coefficients are stored as integer element encodings, low degree first,
with no trailing zeros; the zero polynomial has an empty coefficient tuple
and ``degree None`` (a real sentinel, never -1 arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import FieldSpec, _coerce

CUBIC_IRREDUCIBLE = "irreducible"
CUBIC_LINEAR_TIMES_QUADRATIC = "linear_times_irreducible_quadratic"
CUBIC_THREE_DISTINCT = "three_distinct_roots"
CUBIC_DOUBLE_PLUS_SIMPLE = "double_root_plus_simple"
CUBIC_TRIPLE = "triple_root"

QUAD_IRREDUCIBLE = "irreducible"
QUAD_TWO_DISTINCT = "two_distinct_roots"
QUAD_DOUBLE = "double_root"
QUAD_ZERO = "zero_polynomial"


class UniPoly:
    """A polynomial in one variable t over a fixed GF(q)."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs=()):
        cs = [_coerce(spec, c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, spec: FieldSpec, coeffs: tuple) -> "UniPoly":
        """From encodings already in range, with no trailing zero."""
        out = object.__new__(cls)
        out.spec = spec
        out.coeffs = coeffs
        return out

    @classmethod
    def from_roots(cls, spec: FieldSpec, roots) -> "UniPoly":
        out = cls(spec, (1,))
        for r in roots:
            rv = _coerce(spec, r)
            out = out * cls(spec, (spec.neg(rv), 1))
        return out

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def to_ints(self) -> list[int]:
        return list(self.coeffs)

    def eval_int(self, x: int) -> int:
        spec = self.spec
        acc = 0
        for c in reversed(self.coeffs):
            acc = spec._add[spec._mul[acc][x]][c]
        return acc

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        spec = self._same(other)
        if self.is_zero() or other.is_zero():
            return UniPoly._raw(spec, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        add, mul = spec._add, spec._mul
        for i, a in enumerate(self.coeffs):
            if a:
                row = mul[a]
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = add[out[i + j]][row[b]]
        return UniPoly(spec, out)

    def affine_transform(self, rho: int, mu: int) -> "UniPoly":
        """rho^deg * f((t - mu)/rho) for the encodings rho and mu; keeps
        monic polynomials monic, and the leading coefficient in general, so
        no trailing zero appears."""
        if rho == 0:
            raise ValueError("scale factor must be nonzero")
        if self.is_zero():
            return self
        spec = self.spec
        add, sub, mul = spec._add, spec._sub, spec._mul
        rrow, mrow = mul[rho], mul[mu]
        # Horner in t - mu from the top: out <- out*(t - mu) + a_i rho^(d-i)
        out: list[int] = []
        scale = 1
        for a in reversed(self.coeffs):
            out = [sub[x][mrow[y]] for x, y in zip([0, *out], [*out, 0])]
            out[0] = add[out[0]][mul[a][scale]]
            scale = rrow[scale]
        return UniPoly._raw(spec, tuple(out))

    def _same(self, other: "UniPoly") -> FieldSpec:
        if not isinstance(other, UniPoly) or other.spec != self.spec:
            raise ValueError("operands must be polynomials over the same field")
        return self.spec

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec.q, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return " + ".join(parts)


def divrem(f: UniPoly, g: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder with deg r < deg g."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    spec = f._same(g)
    r = list(f.coeffs)
    dg = g.degree
    inv_lead = spec.inv(g.coeffs[-1])
    quot = [0] * max(len(r) - dg, 0)
    sub, mul = spec._sub, spec._mul
    while len(r) - 1 >= dg:
        if r[-1] == 0:
            r.pop()
            continue
        c = mul[r[-1]][inv_lead]
        shift = len(r) - 1 - dg
        quot[shift] = c
        for i, gc in enumerate(g.coeffs):
            if gc:
                r[shift + i] = sub[r[shift + i]][mul[c][gc]]
        r.pop()
    return UniPoly(spec, quot), UniPoly(spec, r)


def roots(f: UniPoly) -> list[int]:
    """GF(q)-roots with multiplicity, ascending by encoding.

    Multiplicities come from repeated exact division by t - root, which is
    safe in any characteristic.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has every element as a root")
    spec = f.spec
    out = []
    cur = f
    for v in range(spec.q):
        while not cur.is_zero() and cur.degree >= 1 and cur.eval_int(v) == 0:
            cur = divrem(cur, UniPoly(spec, (spec.neg(v), 1)))[0]
            out.append(v)
    return out


@dataclass(frozen=True)
class CubicShape:
    """Factor shape of a monic cubic over GF(q)."""

    tag: str
    roots: tuple[int, ...]
    quad: UniPoly | None = None


def cubic_shape(f: UniPoly) -> CubicShape:
    """Exact factorization pattern of a monic cubic over GF(q)."""
    if f.degree != 3:
        raise ValueError("cubic_shape expects degree 3")
    if not f.is_monic():
        raise ValueError("cubic_shape expects a monic polynomial")
    rs = roots(f)
    if not rs:
        return CubicShape(CUBIC_IRREDUCIBLE, ())
    if len(rs) == 1:
        quad = divrem(f, UniPoly(f.spec, (f.spec.neg(rs[0]), 1)))[0]
        return CubicShape(CUBIC_LINEAR_TIMES_QUADRATIC, (rs[0],), quad)
    assert len(rs) == 3, "a cubic with two roots counted with multiplicity cannot exist"
    if len(set(rs)) == 3:
        return CubicShape(CUBIC_THREE_DISTINCT, tuple(rs))
    if len(set(rs)) == 1:
        return CubicShape(CUBIC_TRIPLE, tuple(rs))
    # sort the double root in front
    double = next(v for v in rs if rs.count(v) == 2)
    simple = next(v for v in rs if rs.count(v) == 1)
    return CubicShape(CUBIC_DOUBLE_PLUS_SIMPLE, (double, double, simple))


def enumerate_P1(spec: FieldSpec) -> list[tuple[int, int]]:
    """The q+1 points of the projective line, (1:t) first, then (0:1)."""
    return [(1, t) for t in range(spec.q)] + [(0, 1)]


@dataclass(frozen=True)
class QuadShape:
    """Projective root structure of a binary quadratic A s^2 + B st + C t^2."""

    tag: str
    roots: tuple[tuple[int, int], ...]


def quad_shape(spec: FieldSpec, a, b, c) -> QuadShape:
    """Classify a binary quadratic by enumerating P^1(F_q).

    Enumeration is uniform across characteristics (a discriminant test
    would fail in characteristic 2) and visits only q+1 points.
    """
    av, bv, cv = _coerce(spec, a), _coerce(spec, b), _coerce(spec, c)
    pts = enumerate_P1(spec)
    if av == bv == cv == 0:
        return QuadShape(QUAD_ZERO, tuple(pts))
    mul, add = spec._mul, spec._add
    found = []
    for s, t in pts:
        v = mul[av][mul[s][s]]
        v = add[v][mul[bv][mul[s][t]]]
        v = add[v][mul[cv][mul[t][t]]]
        if v == 0:
            found.append((s, t))
    if not found:
        return QuadShape(QUAD_IRREDUCIBLE, ())
    if len(found) == 1:
        return QuadShape(QUAD_DOUBLE, tuple(found))
    assert len(found) == 2, "a nonzero binary quadratic has at most two projective roots"
    return QuadShape(QUAD_TWO_DISTINCT, tuple(found))
