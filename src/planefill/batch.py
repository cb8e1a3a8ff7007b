"""Packed GF(q)-linear images of matrices for the exhaustive sweeps.

The maps A -> F_A (3x3 matrices) and M -> G_M (2x3 matrices) are
GF(q)-linear, and so is everything the exhaustive sweeps read off the
curve: its coefficients, its values at the rational points, its partial
derivatives there and its restriction to each rational line.  A ``Kernel``
holds, for each matrix entry and each c in GF(q), the image of c*E_ij
packed into one Python int, so the image of a matrix is the packed sum of
one table entry per entry.  Walking the matrices in counting order with one
partial sum per digit level costs one packed addition per matrix.  The
report sweeps take from the sum an ``Observation`` of each curve (its
dividing lines with multiplicity, its rational points, its number of
singular rational points) in place of the line search and the evaluation.

Each field element takes e lanes, one per base-p digit of its encoding.
For p = 2 a lane is one bit and addition is XOR; for odd p a lane has a
guard bit above the digit, and addition is a SWAR add followed by a
lane-wise subtraction of p where the sum reached p.  Multiplication by a
field element c is F_p-linear on each element's lanes, so ``Lanes.scale``
does it with masks, shifts and additions, without unpacking.

Kernels are built lazily, once per field and process, from nine calls of
``build_FA`` or six of ``build_GM``; these and the enumeration oracle stay
the reference that the tests compare the kernels with.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple

from . import affine as aff
from . import fillcurve as fc
from .gf import FieldSpec, base_digits
from .homog import HomogPoly, _plane_for, linear_substitute
from .poly import QUAD_IRREDUCIBLE
from .sweep import _check_cycle, _note_failure


class Lanes:
    """Sequences of ``size`` elements of GF(p^e) packed into one int."""

    def __init__(self, spec: FieldSpec, size: int):
        p, e = spec.p, spec.e
        self.spec = spec
        self.size = size
        # bits per lane: a sum of two digits stays below the guard bit
        self.width = w = 1 if p == 2 else (2 * p - 2).bit_length() + 1
        # patterns[v]: the e lanes of the element v, as binary digits
        step = e * w
        self.patterns = [
            format(sum(d << (j * w) for j, d in enumerate(base_digits(v, p, e))), f"0{step}b")
            for v in range(spec.q)
        ]
        # maps[c]: (mask of lane j, shift up, shift down, d) for each nonzero
        # entry d in row i, column j of the F_p-linear map of c on the digits
        lane = "1" * w
        masks = [int(("0" * w * (e - 1 - j) + lane + "0" * w * j) * size, 2) for j in range(e)]
        self.maps = [
            [
                (masks[j], max(i - j, 0) * w, max(j - i, 0) * w, d)
                for j in range(e)
                for i, d in enumerate(base_digits(spec._mul[c][p**j], p, e))
                if d
            ]
            for c in range(spec.q)
        ]
        if p == 2:
            self.add = operator.xor
            return
        ones = int(("0" * (w - 1) + "1") * (size * e), 2)
        guard = ones << (w - 1)
        bias = guard - p * ones  # 2^(w-1) - p in every lane

        def add(a: int, b: int) -> int:
            s = a + b
            # the guard bit of s + bias is set exactly in lanes where s >= p
            return s - (((s + bias) & guard) >> (w - 1)) * p

        self.add = add

    def times(self, packed: int, d: int) -> int:
        """d times every lane, for d in [0, p): double-and-add on ``add``."""
        add, out = self.add, 0
        while True:
            if d & 1:
                out = add(out, packed)
            d >>= 1
            if not d:
                return out
            packed = add(packed, packed)

    def scale(self, packed: int, c: int) -> int:
        """c times every element, with no unpacking: the F_p-linear map of
        c on each element's e lanes, lane j moved to lane i by a shift and
        multiplied by its entry (on a prime field, ``times`` c)."""
        add, times, out = self.add, self.times, 0
        for mask, up, down, d in self.maps[c]:
            out = add(out, times(((packed & mask) << up) >> down, d))
        return out

    def pack(self, values) -> int:
        """The packed int, read at once from its binary digits, element 0
        lowest: a shift-or per element would copy the growing int each
        time."""
        patterns = self.patterns
        return int("".join([patterns[v] for v in reversed(values)]) or "0", 2)

    def unpack(self, packed: int, size: int | None = None, stride: int = 1) -> list[int]:
        """The first ``size`` elements (all by default), or with ``stride``
        the elements 0, stride, 2 stride, ... of which there are ``size``."""
        p, e, w = self.spec.p, self.spec.e, self.width
        lane, step = (1 << w) - 1, e * w
        positions = range(0, (self.size if size is None else size) * stride * step, stride * step)
        if e == 1:
            return [(packed >> i) & lane for i in positions]
        out = []
        for i in positions:
            v = 0
            for j in range(i + step - w, i - 1, -w):  # the element's lanes, top digit first
                v = v * p + ((packed >> j) & lane)
            out.append(v)
        return out

    def bit(self, slot: int) -> int:
        """Position of the lowest bit of element ``slot``."""
        return slot * self.spec.e * self.width

    def mask(self, first: int, count: int) -> int:
        """All bits of the elements first, ..., first + count - 1."""
        return ((1 << (self.bit(count))) - 1) << self.bit(first)


class Blocks:
    """Blocks of ``size`` elements each, starting at the elements
    ``starts``; ``zeros`` marks the blocks that are all zero.

    OR-folding a packed value onto itself with shifts that add up to the
    block width leaves at the lowest bit of each block the OR of exactly
    that block's bits, whatever lies above it.
    """

    def __init__(self, lanes: Lanes, starts, size: int):
        bits = lanes.bit(size)
        positions = [lanes.bit(first) for first in starts]
        self.lows = sum(1 << pos for pos in positions)
        self.index = {pos: b for b, pos in enumerate(positions)}
        shifts = []
        span = 1
        while 2 * span <= bits:
            shifts.append(span)
            span *= 2
        if bits > span:
            shifts.append(bits - span)
        self.shifts = tuple(shifts)

    def zeros(self, packed: int) -> int:
        """The lowest bit of every all-zero block."""
        for k in self.shifts:
            packed |= packed >> k
        return self.lows & ~packed

    def any_zero(self, packed: int) -> bool:
        return bool(self.zeros(packed))

    def count_zero(self, packed: int) -> int:
        return self.zeros(packed).bit_count()

    def zero_indices(self, packed: int) -> list[int]:
        """The numbers of the all-zero blocks, in increasing order."""
        return self.indices(self.zeros(packed))

    def indices(self, zero: int) -> list[int]:
        """The numbers of the blocks whose lowest bit is set in zero, in
        increasing order; zero holds no other bits."""
        out = []
        while zero:
            low = zero & -zero
            out.append(self.index[low.bit_length() - 1])
            zero ^= low
        return out


class Kernel:
    """Packed images of c*E_ij for one field.

    ``sections`` names consecutive runs of elements as (first, count);
    ``tables[k][c]`` is the packed image of c times the matrix unit at
    entry k (row-major, the counting-order digit k), so the image of a
    matrix A is the packed sum of ``tables[k][A_k]`` over its entries.
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

    def image(self, A) -> int:
        out = 0
        for row, c in zip(self.tables, A.to_ints()):
            out = self.add(out, row[c])
        return out

    def section(self, packed: int, name: str) -> list[int]:
        first, count = self.sections[name]
        return self.lanes.unpack(packed >> self.lanes.bit(first), count)

    def mask(self, name: str) -> int:
        return self.lanes.mask(*self.sections[name])

    def blocks(self, name: str, size: int) -> Blocks:
        first, count = self.sections[name]
        return Blocks(self.lanes, range(first, first + count, size), size)


def _units(spec: FieldSpec, cls, size: int, build):
    """build(E) for the ``size`` matrix units E of cls, in counting order."""
    return [build(cls.from_ints(spec, [int(i == k) for i in range(size)])) for k in range(size)]


@lru_cache(maxsize=None)
def fill_kernel(spec: FieldSpec) -> Kernel:
    """Images holding the coefficients of F_A on ``kernel.monomials`` (the
    monomials any F_A can carry), then its values at the rational points in
    plane order."""
    plane = _plane_for(spec)
    units = _units(spec, fc.Matrix3, 9, fc.build_FA)
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
    L^m divides f exactly when the coefficients of w^0, ..., w^(m-1) in
    f(R(s, t, w)) are all zero binary forms."""
    neg = spec._neg
    for a, b, c in _plane_for(spec).line_coeffs:
        if a:
            yield ((neg[b], neg[c], 1), (1, 0, 0), (0, 1, 0))
        elif b:
            yield ((1, 0, 0), (0, neg[c], 1), (0, 1, 0))
        else:
            yield ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _point_jets(plane, f: HomogPoly) -> list[int]:
    """f, df/dx, df/dy and df/dz at each rational point in plane order."""
    return [v for point in zip(*plane.jets(f)) for v in point]


def _kernel(spec: FieldSpec, units) -> Kernel:
    """Images holding (f, df/dx, df/dy, df/dz) at each rational point in
    plane order ("points"), then for each k = 0, 1, 2 and each chart R of
    ``_line_charts`` the coefficients of s^(d-k-m) t^m w^k in
    f(R(s, t, w)), m = 0, ..., d-k, for f of degree d ("w<k>"), which give
    the lines dividing f with multiplicity up to 2;
    ``line_blocks[k]`` has one block of "w<k>" per line, ``values`` one
    block per point holding f and ``singular`` one per point holding f and
    its partials.  ``jets`` memoizes, per (monomial, c) met, the packed
    "points" section of c times the monomial, filled by ``Observation.scan``."""
    plane = _plane_for(spec)
    d = units[0].degree
    sections = {"points": (0, 4 * len(plane.points))}
    first = 4 * len(plane.points)
    for k in range(3):
        count = (d - k + 1) * len(plane.lines)
        sections[f"w{k}"] = (first, count)
        first += count
    vectors = []
    for f in units:
        vec = _point_jets(plane, f)
        charts = [linear_substitute(f, rows).terms for rows in _line_charts(spec)]
        for k in range(3):
            for terms in charts:
                vec += [terms.get((d - k - m, m, k), 0) for m in range(d - k + 1)]
        vectors.append(vec)
    kern = Kernel(spec, sections, vectors)
    kern.line_blocks = tuple(kern.blocks(f"w{k}", d - k + 1) for k in range(3))
    kern.values = Blocks(kern.lanes, range(0, 4 * len(plane.points), 4), 1)
    kern.singular = kern.blocks("points", 4)
    kern.jets = {}
    return kern


@lru_cache(maxsize=None)
def cycle_kernel(spec: FieldSpec) -> Kernel:
    """``_kernel`` of F_A with the w^0, w^1 and w^2 blocks, which give the
    lines dividing F_A with multiplicity up to 2."""
    return _kernel(spec, _units(spec, fc.Matrix3, 9, fc.build_FA))


@lru_cache(maxsize=None)
def affine_kernel(spec: FieldSpec) -> Kernel:
    """``_kernel`` of G_M with the w^0, w^1 and w^2 blocks, which give the
    lines dividing G_M with multiplicity up to 2.

    ``quad[a][b][c]`` is the tag of ``affine.memo_quad_shape`` of
    a s^2 + b st + c t^2, so the left-block quadratic of M is
    ``quad[a0][a1 + b0][b1]``, and the reports' ``left_quad_shape`` reads
    the memo this table filled;
    ``affine_values`` masks G_M at the affine points and ``infinity``
    blocks it at the points of z = 0.
    """
    q = spec.q
    kern = _kernel(spec, _units(spec, aff.Matrix23, 6, aff.build_GM))
    plane = _plane_for(spec)
    lanes = kern.lanes
    kern.quad = [
        [[aff.memo_quad_shape(spec, a, b, c).tag for c in range(q)] for b in range(q)]
        for a in range(q)
    ]
    kern.affine_values = sum(lanes.mask(4 * i, 1) for i in plane.affine_idx)
    kern.infinity = Blocks(lanes, [4 * i for i in plane.infinity_idx], 1)
    return kern


def walk(kern: Kernel, lo: int, hi: int):
    """Matrices lo, ..., hi-1 in counting order, q at a time, with one
    digit per table of the kernel.

    Yields (n, c_lo, c_hi, digits, base): for c in [c_lo, c_hi), matrix
    n + c - c_lo has entries (c, digits[1], ...) and packed image
    ``add(base, tables[0][c])``.  ``digits`` is reused between yields.
    """
    q = kern.spec.q
    add, tables = kern.add, kern.tables
    size = len(tables)
    digits = list(base_digits(lo, q, size))
    sums = [0] * (size + 1)  # sums[k]: image of the entries k, ..., size-1
    for k in range(size - 1, 0, -1):
        sums[k] = add(sums[k + 1], tables[k][digits[k]])
    n = lo
    while n < hi:
        c_lo = digits[0]
        c_hi = min(q, c_lo + hi - n)
        yield n, c_lo, c_hi, digits, sums[1]
        n += c_hi - c_lo
        digits[0] = 0
        k = 1
        while k < size and digits[k] == q - 1:
            digits[k] = 0
            k += 1
        if k == size:
            return
        digits[k] += 1
        for j in range(k, 0, -1):
            sums[j] = add(sums[j + 1], tables[j][digits[j]])


def _scalar_entry(digits) -> int:
    """The entry c at which (c, digits[1], ..., digits[8]) is scalar, or -1."""
    if digits[1] or digits[2] or digits[3] or digits[5] or digits[6] or digits[7]:
        return -1
    return digits[4] if digits[4] == digits[8] else -1


def projective_images(spec: FieldSpec, lo: int, hi: int):
    """The 3x3 matrices lo, ..., hi-1 in counting order, each with its
    packed F_A on ``cycle_kernel``, or None for a scalar matrix, whose F_A
    is zero: yields (Matrix3, packed)."""
    kern = cycle_kernel(spec)
    add, row = kern.add, kern.tables[0]
    for _n, c_lo, c_hi, digits, base in walk(kern, lo, hi):
        scalar = _scalar_entry(digits)
        rest = ((digits[3], digits[4], digits[5]), (digits[6], digits[7], digits[8]))
        for c in range(c_lo, c_hi):
            a = fc.Matrix3(spec, ((c, digits[1], digits[2]), *rest))
            yield a, None if c == scalar else add(base, row[c])


def affine_images(spec: FieldSpec, lo: int, hi: int):
    """The nonzero 2x3 matrices among lo, ..., hi-1 in counting order, each
    with its packed G_M on ``affine_kernel`` and whether ``quad`` calls its
    left-block quadratic irreducible: yields (entries, packed, irreducible),
    the entries a row-major list."""
    kern = affine_kernel(spec)
    add, row, quad = kern.add, kern.tables[0], kern.quad
    for _n, c_lo, c_hi, digits, base in walk(kern, max(lo, 1), hi):
        rest = digits[1:]
        b1 = digits[4]
        mid = spec._add[digits[1]][digits[3]]
        for c in range(c_lo, c_hi):
            yield [c, *rest], add(base, row[c]), quad[c][mid][b1] == QUAD_IRREDUCIBLE


def fill_range(spec: FieldSpec, lo: int, hi: int) -> dict:
    """Plane-filling and kernel checks on matrices lo, ..., hi-1: F_A is
    zero exactly for scalars, and vanishes at every rational point."""
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
    for _n, c_lo, c_hi, digits, base in walk(kern, lo, hi):
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
                    f"matrix {[c, *digits[1:]]}: zero polynomial iff scalar violated",
                )
            elif not zero and s & values:
                _note_failure(
                    counters, "fill_failures",
                    f"matrix {[c, *digits[1:]]}: curve misses a rational point",
                )
    return counters


def cycle_range(spec: FieldSpec, lo: int, hi: int) -> dict:
    """Theorem 2.4 on the non-scalar matrices among lo, ..., hi-1:
    irreducible characteristic polynomial <=> no rational line divides F_A
    <=> F_A has no singular rational point."""
    kern = cycle_kernel(spec)
    singular, lines = kern.singular, kern.line_blocks[0]
    counters = {"checked": 0, "cycle_failures": 0, "first_discrepancy": None}
    for a, s in projective_images(spec, lo, hi):
        counters["checked"] += 1
        if s is not None:
            _check_cycle(
                counters, a, fc.classify(a).tag == fc.CASE_NONSINGULAR,
                lines.any_zero(s), singular.any_zero(s),
            )
    return counters


def affine_fill_range(spec: FieldSpec, lo: int, hi: int) -> dict:
    """The affine-filling characterization on the nonzero 2x3 matrices among
    lo, ..., hi-1: every curve contains the affine plane; the left-block
    quadratic is irreducible exactly when no point at infinity lies on the
    curve; and then the curve has exactly one singular rational point and
    no rational line divides it."""
    q = spec.q
    kern = affine_kernel(spec)
    affine_values, infinity = kern.affine_values, kern.infinity
    singular, lines = kern.singular, kern.line_blocks[0]
    counters = {
        "checked": 0,
        "filling": 0,
        "iff_failures": 0,
        "coverage_failures": 0,
        "singular_failures": 0,
        "first_discrepancy": None,
    }
    for entries, s, irreducible in affine_images(spec, lo, hi):
        counters["checked"] += 1
        if s & affine_values:
            _note_failure(
                counters, "coverage_failures",
                f"matrix {entries}: curve misses an affine point",
            )
            continue
        at_infinity = infinity.count_zero(s)
        if irreducible != (not at_infinity):
            _note_failure(
                counters, "iff_failures",
                f"matrix {entries}: irreducible={irreducible} but points={q * q + at_infinity}",
            )
        if irreducible:
            counters["filling"] += 1
            if singular.count_zero(s) != 1:
                _note_failure(
                    counters, "singular_failures",
                    f"matrix {entries}: filling curve without a unique singular point",
                )
            if lines.any_zero(s):
                _note_failure(
                    counters, "iff_failures",
                    f"matrix {entries}: filling curve lost a rational linear component",
                )
    return counters


def observed_lines(kern: Kernel, packed: int):
    """The rational lines dividing the curve of a packed image, as (index of
    the line in plane order, multiplicity) in plane order; None when some
    line divides with multiplicity at least 3, which the blocks w^0, w^1,
    w^2 do not resolve."""
    w0, w1, w2 = kern.line_blocks
    lines = w0.zero_indices(packed)
    double = set(w1.zero_indices(packed)).intersection(lines) if lines else ()
    if double and double.intersection(w2.zero_indices(packed)):
        return None
    return [(i, 1 + (i in double)) for i in lines]


class Observation(NamedTuple):
    """What the packed image of a nonzero curve shows: the rational lines
    dividing it as ``observed_lines`` gives them, the zero mask of its
    values (the lowest bit of the value of each rational point on it) and
    the number of those points, the number of its singular rational
    points, the kernel it came from, on which ``scan`` observes the
    residual left after dividing out the lines, and the image itself."""

    lines: list | None
    zeros: int
    points: int
    singular: int
    kern: Kernel
    packed: int

    def values(self) -> list[int]:
        """The values of the curve at the rational points."""
        return self.kern.lanes.unpack(self.packed, len(_plane_for(self.kern.spec).points), 4)

    def covers_affine(self) -> bool:
        """Whether every affine point lies on the curve (``affine_kernel``
        only)."""
        return not self.packed & self.kern.affine_values

    def at_infinity(self) -> list[int]:
        """The positions, among the points of z = 0 in plane order, of
        those on the curve (``affine_kernel`` only)."""
        infinity = self.kern.infinity
        return infinity.indices(self.zeros & infinity.lows)

    def scan(self, g: HomogPoly) -> tuple[list, int, int]:
        """The values of a curve g at the rational points, with the number
        of its rational points and of its singular rational points, read
        off the packed "points" section of g: the sum of one ``jets`` entry
        per term."""
        kern = self.kern
        plane = _plane_for(kern.spec)
        jets, add = kern.jets, kern.add
        packed = 0
        for term in g.terms.items():
            entry = jets.get(term)
            if entry is None:
                monomial = HomogPoly._raw(kern.spec, g.degree, dict([term]))
                entry = jets[term] = kern.lanes.pack(_point_jets(plane, monomial))
            packed = add(packed, entry)
        return (
            kern.lanes.unpack(packed, len(plane.points), 4),
            kern.values.count_zero(packed),
            kern.singular.count_zero(packed),
        )


def observe(kern: Kernel, packed: int) -> Observation:
    zeros = kern.values.zeros(packed)
    return Observation(
        observed_lines(kern, packed), zeros, zeros.bit_count(),
        kern.singular.count_zero(packed), kern, packed,
    )
