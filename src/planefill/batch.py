"""Packed GF(q)-linear images of 3x3 matrices for the exhaustive sweeps.

The map A -> F_A is GF(q)-linear, and so is everything the exhaustive
projective sweeps read off F_A: its coefficients, its values at the
rational points, its partial derivatives there and its restriction to each
rational line.  A ``Kernel`` holds, for each of the nine matrix entries and
each c in GF(q), the image of c*E_ij packed into one Python int, so the
image of a matrix is the packed sum of nine table entries.  Walking the
matrices in counting order with one partial sum per digit level costs one
packed addition per matrix.

Each field element takes e lanes, one per base-p digit of its encoding.
For p = 2 a lane is one bit and addition is XOR; for odd p a lane has a
guard bit above the digit, and addition is a SWAR add followed by a
lane-wise subtraction of p where the sum reached p.

Kernels are built lazily, once per field and process, from nine calls of
``build_FA``; ``build_FA`` and the enumeration oracle stay the reference
that the tests compare the kernels with.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from . import fillcurve as fc
from .gf import FieldSpec, base_digits, make_field
from .homog import linear_substitute, partials
from .verify import _check_cycle, _matrix_at, _note_failure, _plane_for


class Lanes:
    """Sequences of ``size`` elements of GF(p^e) packed into one int."""

    def __init__(self, spec: FieldSpec, size: int):
        p, e = spec.p, spec.e
        self.spec = spec
        self.size = size
        # bits per lane: a sum of two digits stays below the guard bit
        self.width = w = 1 if p == 2 else (2 * p - 2).bit_length() + 1
        if p == 2:
            self.add = operator.xor
            return
        ones = sum(1 << (i * w) for i in range(size * e))
        guard = ones << (w - 1)
        bias = guard - p * ones  # 2^(w-1) - p in every lane

        def add(a: int, b: int) -> int:
            s = a + b
            # the guard bit of s + bias is set exactly in lanes where s >= p
            return s - (((s + bias) & guard) >> (w - 1)) * p

        self.add = add

    def pack(self, values) -> int:
        p, e, w = self.spec.p, self.spec.e, self.width
        out = 0
        for i, v in enumerate(values):
            for j, d in enumerate(base_digits(v, p, e)):
                out |= d << ((i * e + j) * w)
        return out

    def unpack(self, packed: int) -> list[int]:
        p, e, w = self.spec.p, self.spec.e, self.width
        lane = (1 << w) - 1
        out = []
        for i in range(self.size):
            v = 0
            for j in reversed(range(e)):
                v = v * p + ((packed >> ((i * e + j) * w)) & lane)
            out.append(v)
        return out

    def bit(self, slot: int) -> int:
        """Position of the lowest bit of element ``slot``."""
        return slot * self.spec.e * self.width

    def mask(self, first: int, count: int) -> int:
        """All bits of the elements first, ..., first + count - 1."""
        return ((1 << (self.bit(count))) - 1) << self.bit(first)


class Blocks:
    """``count`` consecutive blocks of ``size`` elements each, starting at
    element ``first``; ``any_zero`` tells whether some block is all zero.

    OR-folding a packed value onto itself with shifts that add up to the
    block width leaves at the lowest bit of each block the OR of exactly
    that block's bits, whatever lies above it.
    """

    def __init__(self, lanes: Lanes, first: int, size: int, count: int):
        bits = lanes.bit(size)
        self.lows = sum(1 << lanes.bit(first + b * size) for b in range(count))
        shifts = []
        span = 1
        while 2 * span <= bits:
            shifts.append(span)
            span *= 2
        if bits > span:
            shifts.append(bits - span)
        self.shifts = tuple(shifts)

    def any_zero(self, packed: int) -> bool:
        for k in self.shifts:
            packed |= packed >> k
        return packed & self.lows != self.lows


class Kernel:
    """Packed images of c*E_ij for one field.

    ``sections`` names consecutive runs of elements as (first, count);
    ``tables[k][c]`` is the packed image of c times the matrix unit at
    entry k (row-major, the counting-order digit k), so the image of A is
    the packed sum of ``tables[k][A_k]`` over the nine entries.
    """

    def __init__(self, spec: FieldSpec, sections: dict, unit_vectors):
        self.spec = spec
        self.sections = sections
        self.lanes = Lanes(spec, sum(count for _first, count in sections.values()))
        self.add = self.lanes.add
        mul = spec._mul
        self.tables = [
            [self.lanes.pack([mul[c][v] for v in vec]) for c in range(spec.q)]
            for vec in unit_vectors
        ]

    def image(self, A: fc.Matrix3) -> int:
        out = 0
        for row, c in zip(self.tables, A.to_ints()):
            out = self.add(out, row[c])
        return out

    def section(self, packed: int, name: str) -> list[int]:
        first, count = self.sections[name]
        return self.lanes.unpack(packed)[first:first + count]

    def mask(self, name: str) -> int:
        return self.lanes.mask(*self.sections[name])

    def blocks(self, name: str, size: int) -> Blocks:
        first, count = self.sections[name]
        return Blocks(self.lanes, first, size, count // size)


def _units(spec: FieldSpec):
    """F_E for the nine matrix units E, in counting order."""
    return [fc.build_FA(_matrix_at(fc.Matrix3, 9, spec, spec.q**k)) for k in range(9)]


@lru_cache(maxsize=None)
def fill_kernel(spec: FieldSpec) -> Kernel:
    """Images holding the coefficients of F_A on ``kernel.monomials`` (the
    monomials any F_A can carry), then its values at the rational points in
    plane order."""
    plane = _plane_for(spec)
    units = _units(spec)
    monomials = sorted(set().union(*(f.terms for f in units)), reverse=True)
    kern = Kernel(
        spec,
        {
            "coefficients": (0, len(monomials)),
            "values": (len(monomials), len(plane.points)),
        },
        [[f.terms.get(m, 0) for m in monomials] + plane.values(f) for f in units],
    )
    kern.monomials = monomials
    return kern


def _line_charts(spec: FieldSpec):
    """For each rational line L in plane order, rows R with L(R(s, t, w)) = w:
    L divides f exactly when f(R(s, t, 0)) is the zero binary form."""
    neg = spec._neg
    for a, b, c in _plane_for(spec).line_coeffs:
        if a:
            yield ((neg[b], neg[c], 1), (1, 0, 0), (0, 1, 0))
        elif b:
            yield ((1, 0, 0), (0, neg[c], 1), (0, 1, 0))
        else:
            yield ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@lru_cache(maxsize=None)
def cycle_kernel(spec: FieldSpec) -> Kernel:
    """Images holding (F_A, dF_A/dx, dF_A/dy, dF_A/dz) at each rational
    point ("points", four elements per point), then the q+3 coefficients
    of the restriction of F_A to each rational line ("lines", s^(q+2-m) t^m
    for m = 0, ..., q+2)."""
    plane = _plane_for(spec)
    d = spec.q + 2
    charts = list(_line_charts(spec))
    vectors = []
    for f in _units(spec):
        columns = [plane.values(g) for g in (f, *partials(f))]
        vec = [v for point in zip(*columns) for v in point]
        for rows in charts:
            terms = linear_substitute(f, rows).terms
            vec += [terms.get((d - m, m, 0), 0) for m in range(d + 1)]
        vectors.append(vec)
    npts = len(plane.points)
    return Kernel(
        spec,
        {"points": (0, 4 * npts), "lines": (4 * npts, (d + 1) * len(charts))},
        vectors,
    )


def walk(kern: Kernel, lo: int, hi: int):
    """Matrices lo, ..., hi-1 in counting order, q at a time.

    Yields (n, c_lo, c_hi, digits, base): for c in [c_lo, c_hi), matrix
    n + c - c_lo has entries (c, digits[1], ..., digits[8]) and packed
    image ``add(base, tables[0][c])``.  ``digits`` is reused between
    yields.
    """
    q = kern.spec.q
    add, tables = kern.add, kern.tables
    digits = list(base_digits(lo, q, 9))
    sums = [0] * 10  # sums[k]: image of the entries k, ..., 8
    for k in range(8, 0, -1):
        sums[k] = add(sums[k + 1], tables[k][digits[k]])
    n = lo
    while n < hi:
        c_lo = digits[0]
        c_hi = min(q, c_lo + hi - n)
        yield n, c_lo, c_hi, digits, sums[1]
        n += c_hi - c_lo
        digits[0] = 0
        k = 1
        while k < 9 and digits[k] == q - 1:
            digits[k] = 0
            k += 1
        if k == 9:
            return
        digits[k] += 1
        for j in range(k, 0, -1):
            sums[j] = add(sums[j + 1], tables[j][digits[j]])


def _scalar_entry(digits) -> int:
    """The entry c at which (c, digits[1], ..., digits[8]) is scalar, or -1."""
    if digits[1] or digits[2] or digits[3] or digits[5] or digits[6] or digits[7]:
        return -1
    return digits[4] if digits[4] == digits[8] else -1


def fill_range(args) -> dict:
    """Plane-filling and kernel checks on matrices lo, ..., hi-1: F_A is
    zero exactly for scalars, and vanishes at every rational point."""
    p, e, lo, hi = args
    spec = make_field(p, e)
    kern = fill_kernel(spec)
    add, row = kern.add, kern.tables[0]
    coefficients, values = kern.mask("coefficients"), kern.mask("values")
    counters = {
        "checked": 0,
        "scalars": 0,
        "fill_failures": 0,
        "kernel_failures": 0,
        "first_discrepancy": None,
    }

    def name(n):
        return _matrix_at(fc.Matrix3, 9, spec, n).to_ints()

    for n, c_lo, c_hi, digits, base in walk(kern, lo, hi):
        counters["checked"] += c_hi - c_lo
        scalar = _scalar_entry(digits)
        if c_lo <= scalar < c_hi:
            counters["scalars"] += 1
        for c in range(c_lo, c_hi):
            s = add(base, row[c])
            zero = not s & coefficients
            if zero != (c == scalar):
                _note_failure(
                    counters, "kernel_failures",
                    f"matrix {name(n + c - c_lo)}: zero polynomial iff scalar violated",
                )
            elif not zero and s & values:
                _note_failure(
                    counters, "fill_failures",
                    f"matrix {name(n + c - c_lo)}: curve misses a rational point",
                )
    return counters


def cycle_range(args) -> dict:
    """Theorem 2.4 on the non-scalar matrices among lo, ..., hi-1:
    irreducible characteristic polynomial <=> no rational line divides F_A
    <=> F_A has no singular rational point."""
    p, e, lo, hi = args
    spec = make_field(p, e)
    q = spec.q
    kern = cycle_kernel(spec)
    add, row = kern.add, kern.tables[0]
    singular = kern.blocks("points", 4)
    lines = kern.blocks("lines", q + 3)
    counters = {"checked": 0, "cycle_failures": 0, "first_discrepancy": None}
    for _n, c_lo, c_hi, digits, base in walk(kern, lo, hi):
        counters["checked"] += c_hi - c_lo
        scalar = _scalar_entry(digits)
        rest = ((digits[3], digits[4], digits[5]), (digits[6], digits[7], digits[8]))
        for c in range(c_lo, c_hi):
            if c == scalar:
                continue
            a = fc.Matrix3(spec, ((c, digits[1], digits[2]), *rest))
            s = add(base, row[c])
            _check_cycle(
                counters, a, fc.classify(a).tag == fc.CASE_NONSINGULAR,
                lines.any_zero(s), singular.any_zero(s),
            )
    return counters
