"""Brute-force verification of every symbolic prediction.

Everything here works by enumeration: points of the projective plane,
rational lines, divisions by every candidate line, and point counts.  The
oracle never trusts the case analysis; it recomputes decompositions from
scratch and compares them with the transported canonical predictions.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import affine as aff
from . import fillcurve as fc
from .gf import FieldSpec, base_digits, field_for_order
from .homog import (
    HomogPoly,
    ProjPoint,
    _cross,
    _mat3_inv,
    _matmul,
    _matvec,
    _plane_for,
    linear_substitute,
    partials,
    scalar_ratio,
)
from .poly import QUAD_IRREDUCIBLE, QUAD_ZERO
from .sweep import _check_cycle, _note_failure, _run_ranges


# ---------------------------------------------------------------------------
# elementary oracle operations


def count_points(f: HomogPoly) -> int:
    """Number of rational points on the curve f = 0."""
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a curve")
    return _plane_for(f.spec).values(f).count(0)


@dataclass
class LineComponentSet:
    """All rational linear components of a polynomial, with the residual
    left after dividing them out."""

    lines: list
    residual: HomogPoly
    residual_degree: int


def _rows(terms: dict, d: int, lead: int):
    """Row form of a degree-d polynomial as sum_i v^i P_i, where v is x
    (lead 0) or y (lead 1); row i is the dense coefficient list of P_i,
    indexed by the exponent of the other of x and y."""
    other = 1 - lead
    rows = [None] * (d + 1)
    for key, v in terms.items():
        i = key[lead]
        row = rows[i]
        if row is None:
            row = rows[i] = [0] * (d - i + 1)
        row[key[other]] = v
    return rows


def _terms_from_rows(rows, d: int, lead: int) -> dict:
    terms = {}
    for i, row in enumerate(rows):
        if row:
            for j, v in enumerate(row):
                if v:
                    terms[(j, i, d - i - j) if lead else (i, j, d - i - j)] = v
    return terms


def _divline(rows, d: int, b: int, c: int, spec: FieldSpec):
    """Synthetic division of sum_i v^i P_i by v + b w + c z, where w is
    the other of x and y.

    Horner in v with the substitution v -> -(b w + c z); returns the
    quotient rows, or None when the remainder is nonzero.
    """
    add, mul, neg = spec._add, spec._mul, spec._neg
    mrb, mrc = mul[neg[b]], mul[neg[c]]
    cur = rows[d] if rows[d] else [0]
    out = [None] * d
    if d:
        out[d - 1] = cur
    for i in range(d - 1, -1, -1):
        nxt = [0] * (d - i + 1)
        if b:
            for j, v in enumerate(cur):
                if v:
                    nxt[j + 1] = add[nxt[j + 1]][mrb[v]]
                    nxt[j] = add[nxt[j]][mrc[v]]
        else:
            for j, v in enumerate(cur):
                if v:
                    nxt[j] = mrc[v]
        pi = rows[i]
        if pi:
            for j, v in enumerate(pi):
                if v:
                    nxt[j] = add[nxt[j]][v]
        if i:
            out[i - 1] = nxt
            cur = nxt
        elif any(nxt):
            return None
    return out


def _divide_out(f: HomogPoly, trials) -> LineComponentSet | None:
    """Divide f by rational lines with multiplicity, in plane order.

    ``trials`` gives (index of the line in plane order, multiplicity): the
    line is divided out that many times, or as often as it divides when
    the multiplicity is None.  Lines x + by + cz are divided with x
    leading, then lines y + cz with y leading, then z.  Returns None when a
    division with a given multiplicity leaves a remainder.
    """
    spec = f.spec
    plane = _plane_for(spec)
    deg, terms = f.degree, f.terms
    found = []
    lead, rows = None, None
    for i, want in trials:
        a, b, c = plane.line_coeffs[i]
        now = 0 if a else 1 if b else 2
        if now != lead:
            if rows is not None:
                terms = _terms_from_rows(rows, deg, lead)
            lead = now
            rows = _rows(terms, deg, lead) if lead < 2 else None
        mult = 0
        while deg > 0 and mult != want:
            if rows is not None:
                # x + by + cz has b on the other of x and y, y + cz has 0
                quot = _divline(rows, deg, b if a else 0, c, spec)
                if quot is None:
                    break
                rows = quot
            elif all(k for (_i, _j, k) in terms):
                terms = {(i, j, k - 1): v for (i, j, k), v in terms.items()}
            else:
                break
            deg -= 1
            mult += 1
        if want is not None and mult != want:
            return None
        if mult:
            found.append((plane.lines[i], mult))
    if rows is not None:
        terms = _terms_from_rows(rows, deg, lead)
    return LineComponentSet(found, HomogPoly._raw(spec, deg, terms), deg)


def find_linear_components(f: HomogPoly) -> LineComponentSet:
    """Divide out every rational line with multiplicity.

    A line L with coordinates n that divides f = L*G gives
    grad f = G grad L + L grad G, which is G(P) n at each rational point P
    of L: the product rule holds for formal derivatives in every
    characteristic.  So f vanishes at P and grad f(P) x n = 0.  Only the
    lines that pass this test at all their rational points are divided,
    in plane order and as often as each divides; the test is necessary,
    not sufficient, so division still decides every candidate.  The
    residual is divisible by no rational linear form.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a curve")
    if f.degree < 1:
        return _divide_out(f, ())
    plane = _plane_for(f.spec)
    mul = f.spec._mul
    vals, fx, fy, fz = plane.jets(f)
    candidates = []
    for i, (pts, (a, b, c)) in enumerate(zip(plane.line_points(), plane.line_coeffs)):
        for k in pts:
            gx, gy, gz = fx[k], fy[k], fz[k]
            if (
                vals[k]
                or mul[gy][c] != mul[gz][b]
                or mul[gz][a] != mul[gx][c]
                or mul[gx][b] != mul[gy][a]
            ):
                break
        else:
            candidates.append((i, None))
    return _divide_out(f, candidates)


def singular_Fq_points(f: HomogPoly, fvals=None) -> list[ProjPoint]:
    """Rational points where f and all three partials vanish; fvals, if
    given, are the values of f at the points of the plane."""
    if f.degree < 1:
        raise ValueError("needs degree at least 1")
    plane = _plane_for(f.spec)
    if fvals is None:
        fvals = plane.values(f)
    fx, fy, fz = partials(f)
    fxvals = plane.values(fx)
    return [
        plane.points[i]
        for i, (v, vx) in enumerate(zip(fvals, fxvals))
        if not (v or vx or plane.value_at(fy, i) or plane.value_at(fz, i))
    ]


def concurrency_check(lines) -> ProjPoint | None:
    """The common point of all the lines, if there is one."""
    if len(lines) < 2:
        raise ValueError("need at least two lines")
    spec = lines[0].spec
    coeffs = [l.line_coeffs() for l in lines]
    meet = None
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            c = _cross(coeffs[i], coeffs[j], spec)
            if any(c):
                meet = c
                break
        if meet:
            break
    if meet is None:
        # every form is the same line; any of its points is common
        plane = _plane_for(spec)
        vals = plane.values(lines[0])
        return plane.points[vals.index(0)]
    if any(_matvec(coeffs, meet, spec)):
        return None
    return ProjPoint(spec, meet)


def sziklai_audit(f: HomogPoly) -> dict:
    """Check the point-count bound N <= (d-1)q + 1 for a curve without
    rational linear components; the one quartic over GF(4) that beats the
    bound by a point is flagged instead of failing."""
    comps = find_linear_components(f)
    if comps.lines:
        raise ValueError("the bound only applies without rational linear components")
    q = f.spec.q
    n = count_points(f)
    bound = fc.point_bound(f.degree, q)
    return {
        "points": n,
        "bound": bound,
        "bound_holds": n <= bound,
        "is_exceptional": q == 4 and f.degree == 4 and n == bound + 1,
    }


def missing_points_collinear(f: HomogPoly) -> dict:
    """The rational points off the curve, and whether they all lie on one
    rational line (vacuously true for at most two points)."""
    plane = _plane_for(f.spec)
    vals = plane.values(f)
    missing = [plane.points[i] for i, v in enumerate(vals) if v]
    if len(missing) <= 2:
        return {"missing": missing, "collinear": True}
    spec = f.spec
    line = _cross(missing[0].key, missing[1].key, spec)
    on_line = not any(_matvec([p.key for p in missing], line, spec))
    return {"missing": missing, "collinear": on_line}


def exceptional_quartic(spec: FieldSpec) -> HomogPoly:
    """The quartic (x+y+z)^4 + (xy+yz+zx)^2 + xyz(x+y+z)."""
    x, y, z = (HomogPoly.variable(spec, i) for i in range(3))
    s = x + y + z
    t = x * y + y * z + z * x
    s2 = s * s
    return s2 * s2 + t * t + x * y * z * s


# ---------------------------------------------------------------------------
# prediction-versus-observation reports


@dataclass
class DecompositionReport:
    q: int
    family: str
    matrix: list
    case: str
    charpoly: list | None
    minpoly: list | None
    predicted: dict
    observed: dict
    match: bool
    discrepancies: list

    def to_json(self) -> dict:
        return asdict(self)


def _serialize_lines(pairs):
    """(line coefficients, multiplicity) pairs, sorted already, as fresh
    JSON lists."""
    return [[list(c), m] for c, m in pairs]


class _Frame(NamedTuple):
    """The substitution x -> rows*x from canonical coordinates to the
    curve's (none when rows is None), with its ``_point_images`` when
    already known."""

    rows: tuple | None
    points: tuple | None = None


class _Prediction(NamedTuple):
    """A predicted decomposition in the curve's coordinates: the lines
    transported, the residual equation composed with the frame's
    substitution holds up to a scalar."""

    lines: list  # sorted (normalized line coefficients, multiplicity)
    residual: fc.ResidualSpec | None
    concurrency: str | None
    frame: _Frame = _Frame(None)

    def to_json(self) -> dict:
        res = self.residual
        return {
            "lines": _serialize_lines(self.lines),
            "residual_degree": res.degree if res else 0,
            "residual_kind": res.kind if res else None,
            "expected_points": res.expected_points if res else None,
            "concurrency": self.concurrency,
        }


def _point_images(rows, spec: FieldSpec) -> list:
    """(k, lam) with rows*P_j = lam*P_k for each rational point P_j, in
    plane order; a ValueError when rows is singular."""
    plane = _plane_for(spec)
    add, mul = spec._add, spec._mul
    # a point's coordinates are the coefficients of the line of its index
    u, v, w = (
        [add[add[m0[a]][m1[b]]][m2[c]] for a, b, c in plane.line_coeffs]
        for m0, m1, m2 in ([mul[r] for r in row] for row in rows)
    )
    scalings = plane.scalings()
    try:
        return [scalings[t] for t in zip(u, v, w)]
    except KeyError:
        raise ValueError("substitution matrix is singular") from None


def _transport(plan, frame: _Frame, spec: FieldSpec) -> _Prediction:
    """Carry the lines and concurrency of a canonical plan through the
    frame's substitution; a line's coefficient row c becomes c*rows,
    normalized like a point, and the lines are sorted.  The residual keeps
    its canonical equation, with the frame beside it for
    ``transported_multiple``."""
    plane = _plane_for(spec)
    scalings = plane.scalings()
    images = _matmul([l.line_coeffs() for l, _m in plan.lines], frame.rows, spec)
    return _Prediction(
        lines=sorted(
            (plane.line_coeffs[scalings[c][0]], m) for c, (_l, m) in zip(images, plan.lines)
        ),
        residual=plan.residual,
        concurrency=plan.concurrency,
        frame=frame,
    )


class _OrbitFrames:
    """The similarity frames of the scalar-shift orbit R + mu E of R, from
    R's label and ``fc._basis``, which R's own report, the orbit's first,
    fills in, with the point images when the canonical plan has a residual.

    S R S^-1 = C gives S (R + mu E) S^-1 = C + mu E, so a member whose
    label is R's shifted by mu takes the basis ``fc._shift_basis`` derives
    from R's, and R's frame itself when that basis is R's."""

    def __init__(self, rep: fc.Matrix3):
        self.rep = rep
        self.label = self.frame = None

    def frame_of(self, A: fc.Matrix3, label: fc.CaseLabel) -> _Frame | None:
        """The frame of A = R + mu E with its label, or None when A's
        basis is to come from A alone: R's ``fc._basis`` or point images
        raised, or A's label is not R's shifted by mu."""
        spec = A.spec
        mu = spec._sub[A.rows_int[2][2]][self.rep.rows_int[2][2]]
        if not mu:
            try:
                basis = fc._basis(A, label)
                residual = fc.canonical_plan(spec, label).residual
                points = tuple(_point_images(basis, spec)) if residual else None
            except ValueError:
                return None
            self.label, self.frame = label, _Frame(basis, points)
            return self.frame
        if self.frame is None:
            return None
        basis = fc._shift_basis(self.frame.rows, self.label, label, mu, spec)
        if basis is None:
            return None
        return self.frame if basis == self.frame.rows else _Frame(basis)


@lru_cache(maxsize=None)
def _form_jets(spec: FieldSpec, degree: int, terms: tuple):
    """The values at the points of the form with the given (monomial,
    coefficient) terms, with its partials there in degree q + 1 only, once
    per process: the canonical residual equations recur."""
    f = HomogPoly._raw(spec, degree, dict(terms))
    plane = _plane_for(spec)
    return plane.jets(f) if degree == spec.q + 1 else (plane.values(f),)


def transported_multiple(g: HomogPoly, eq: HomogPoly, rows, gvals=None, images=None) -> bool:
    """Whether g is a nonzero scalar multiple of eq composed with
    x -> rows*x (of eq itself when rows is None), or both are zero:
    ``scalar_ratio(g, linear_substitute(eq, rows)) is not None``.

    The composite h is compared without expanding it, for degree d <= q + 1.
    At the j-th rational point P_j, rows*P_j = lam*P_k gives
    h(P_j) = lam^d eq(P_k), from the memoized values of eq (gvals, if
    given, are those of g; images, if given, are the ``_point_images`` of
    rows).  The ideal of all the points of P^2(F_q) is
    generated by U = y^q z - y z^q, V = z^q x - z x^q and W = x^q y - x y^q,
    of degree q + 1.  So a nonzero form of degree at most q is nonzero at
    some point, and g - c*h vanishes everywhere only when g = c*h.  In
    degree q + 1 it may be aU + bV + cW, whose d/dy at (1:0:0), d/dz at
    (1:0:0) and d/dz at (0:1:0) are c, -b and a: these three partials of g
    and c*h must agree too.  For g they are the coefficients of x^(d-1) y,
    x^(d-1) z and y^(d-1) z; for h they are rows^t grad eq(rows*e).  When h
    vanishes at every point, or d > q + 1, the composite is expanded.
    """
    if g.degree != eq.degree:
        return False
    if rows is None:
        return scalar_ratio(g, eq) is not None
    spec = g.spec
    q, d = spec.q, g.degree
    if d > q + 1:
        return scalar_ratio(g, linear_substitute(eq, rows)) is not None
    plane = _plane_for(spec)
    add, mul, powmod = spec._add, spec._mul, spec._powmod
    if images is None:
        images = _point_images(rows, spec)
    eq_vals, *eq_grad = _form_jets(spec, d, tuple(eq.terms.items()))
    e = d % (q - 1)
    hvals = [mul[powmod[lam][e]][eq_vals[k]] for k, lam in images]
    i = next((i for i, h in enumerate(hvals) if h), None)
    if i is None:
        return scalar_ratio(g, linear_substitute(eq, rows)) is not None
    if gvals is None:
        gvals = plane.values(g)
    c = spec.div(gvals[i], hvals[i])
    crow = mul[c]
    if c == 0 or gvals != [crow[h] for h in hvals]:
        return False
    if d <= q:
        return True

    def partial(point: int, var: int) -> int:
        """c * dh/d(var) at the point (1:0:0) (index 0) or (0:1:0)
        (index q^2): the column var of rows against grad eq at its image,
        which is lam^(d-1) grad eq(P_k)."""
        k, lam = images[point]
        s = 0
        for row, grad in zip(rows, eq_grad):
            s = add[s][mul[row[var]][grad[k]]]
        return crow[mul[powmod[lam][(d - 1) % (q - 1)]][s]]

    terms = g.terms
    return (
        terms.get((d - 1, 1, 0), 0) == partial(0, 1)
        and terms.get((d - 1, 0, 1), 0) == partial(0, 2)
        and terms.get((0, d - 1, 1), 0) == partial(q * q, 2)
    )


class _Scanned:
    """The reference observation of a nonzero curve f, with the fields and
    methods of ``batch.Observation`` that the reports read: its rational
    points by evaluating f at every point of the plane, its singular
    rational points by ``singular_Fq_points`` on first use, and no lines,
    so that the audit takes the lines from ``find_linear_components``;
    ``scan`` observes another curve the same way."""

    lines = None

    def __init__(self, f: HomogPoly):
        self.f = f
        self._values = _plane_for(f.spec).values(f)
        self.points = self._values.count(0)

    def values(self) -> list[int]:
        return self._values

    def covers_affine(self) -> bool:
        return not any(self._values[i] for i in _plane_for(self.f.spec).affine_idx)

    def at_infinity(self) -> list[int]:
        infinity = _plane_for(self.f.spec).infinity_idx
        return [b for b, i in enumerate(infinity) if not self._values[i]]

    @cached_property
    def singular(self) -> int:
        return len(singular_Fq_points(self.f, self._values))

    @staticmethod
    def scan(g: HomogPoly) -> tuple[list, int, int]:
        vals = _plane_for(g.spec).values(g)
        return vals, vals.count(0), len(singular_Fq_points(g, vals))


class _Observed:
    """The observation step of the audit, once per nonzero curve f: its
    linear components with multiplicity, their concurrency point, and the
    values, point count and singular-point count of the residual.

    ``obs`` observes f itself (a ``batch.Observation`` or ``_Scanned``):
    when its ``lines`` are given, as (index in plane order, multiplicity)
    in plane order, f is divided by those alone instead of searching with
    ``find_linear_components``, and a residual without lines, which is f,
    takes its values, points and singular points from it; any other
    residual is observed by its ``scan``.  ``disc`` holds what the
    observation itself got wrong."""

    def __init__(self, f: HomogPoly, obs):
        self.f, self.obs = f, obs
        self.disc = []
        comps = None if obs.lines is None else _divide_out(f, obs.lines)
        if comps is None:
            if obs.lines is not None:
                self.disc.append("observed lines do not divide the curve with their multiplicities")
            comps = find_linear_components(f)
        self.comps = comps
        self.forms = [l for l, _ in comps.lines]
        self.lines = sorted([(l.line_coeffs(), mult) for l, mult in comps.lines])
        meet = concurrency_check(self.forms) if len(self.forms) >= 2 else None
        self.concurrent = meet.key if meet else None
        # the residual's values (None when it is f), points and singular points
        self._values = self.points = self.singular = None
        if comps.residual_degree == f.degree:
            self.points, self.singular = obs.points, obs.singular
        elif comps.residual_degree:
            self._values, self.points, self.singular = obs.scan(comps.residual)

    def residual_values(self) -> list[int]:
        """The residual's values at the rational points."""
        return self.obs.values() if self._values is None else self._values

    @cached_property
    def pencil(self) -> tuple:
        """(point, count) for the point lying on the most of the lines."""
        spec = self.f.spec
        coeffs = [f.line_coeffs() for f in self.forms]
        candidates = []
        for i in range(min(3, len(coeffs))):
            for j in range(i + 1, min(3, len(coeffs))):
                c = _cross(coeffs[i], coeffs[j], spec)
                if any(c):
                    candidates.append(ProjPoint(spec, c).key)
        best, best_n = None, -1
        for cand in dict.fromkeys(candidates):
            n = _matvec(coeffs, cand, spec).count(0)
            if n > best_n:
                best, best_n = cand, n
        return best, best_n

    @cached_property
    def affine_covered(self) -> bool:
        """Whether the curve passes through every affine rational point."""
        return self.obs.covers_affine()

    @cached_property
    def infinity_keys(self) -> frozenset:
        """The keys of the curve's rational points on z = 0."""
        plane = _plane_for(self.f.spec)
        return frozenset(plane.points[plane.infinity_idx[b]].key for b in self.obs.at_infinity())


def _compare(seen: _Observed, pred: _Prediction, disc: list) -> dict:
    """The comparison step of the audit: the observed curve against one
    prediction, for line set with multiplicity, residual degree, residual
    equation up to a scalar, residual point and singular-point counts, and
    concurrency.  Mismatches, after those of the observation itself, are
    appended to disc; returns the observed fields both report families
    share."""
    disc += seen.disc
    comps = seen.comps
    if seen.lines != pred.lines:
        disc.append(
            f"lines differ: observed {_serialize_lines(seen.lines)}, predicted {_serialize_lines(pred.lines)}"
        )
    res = pred.residual
    pred_degree = res.degree if res else 0
    if comps.residual_degree != pred_degree:
        disc.append(f"residual degree {comps.residual_degree}, predicted {pred_degree}")

    residual_points = None
    singular_count = None
    if res and comps.residual_degree == res.degree:
        rows = pred.frame.rows
        residual_points, singular_count = seen.points, seen.singular
        rvals = None if rows is None else seen.residual_values()
        if not transported_multiple(comps.residual, res.equation, rows, rvals, pred.frame.points):
            disc.append("residual equation is not a scalar multiple of the transported prediction")
        if residual_points != res.expected_points:
            disc.append(f"residual has {residual_points} points, expected {res.expected_points}")
        if singular_count != res.expected_singular_points:
            disc.append(
                f"residual has {singular_count} singular rational points, "
                f"expected {res.expected_singular_points}"
            )

    concurrent_point = seen.concurrent
    if pred.concurrency == fc.NOT_CONCURRENT and concurrent_point is not None:
        disc.append("lines unexpectedly share a common point")
    elif pred.concurrency == fc.CONCURRENT_ALL and concurrent_point is None:
        disc.append("lines were predicted to be concurrent but are not")
    elif pred.concurrency == fc.CONCURRENT_ALL_BUT_ONE:
        point, through = seen.pencil
        if point is None or through != len(seen.forms) - 1:
            disc.append(
                f"expected all lines but one through a common point, widest pencil has {through}"
            )

    return {
        "lines": _serialize_lines(seen.lines),
        "residual_degree": comps.residual_degree,
        "residual_points": residual_points,
        "singular_points": singular_count,
        "concurrent": None if concurrent_point is None else list(concurrent_point),
    }


def decomposition_report(
    A: fc.Matrix3, seen: _Observed | None = None, frames: _OrbitFrames | None = None
) -> DecompositionReport:
    """Run the oracle against the predicted splitting of the curve of A.

    Compares line sets with multiplicity, concurrency structure, residual
    degree, the residual equation pulled back through the similarity
    transform (up to a nonzero scalar), the residual point count against
    the formula for its kind, and the number of singular rational points
    on the residual.  Mismatches are reported, never raised.  ``seen`` is
    the ``_Observed`` curve F_A of a non-scalar A if already observed, as
    shared by the matrices A + mu E of one curve; without it F_A is built
    and evaluated at every point.  ``frames``, the ``_OrbitFrames`` of the
    orbit R + mu E that holds A, gives A's similarity basis derived from
    R's; without it, or when it has none, the basis is ``fc._basis`` of A.
    The classification, the canonical plan, the transport and every
    comparison are A's own.
    """
    spec = A.spec
    q = spec.q
    f_a = fc.build_FA(A) if seen is None else seen.f
    label, mp, cp = fc._case_and_minpoly(A)
    disc: list[str] = []

    def report(predicted, observed):
        return DecompositionReport(
            q, "projective", A.to_ints(), label.tag, cp.to_ints(), mp.to_ints(),
            predicted, observed, not disc, disc,
        )

    scalar = A.is_scalar()
    if scalar or f_a.is_zero():
        if not scalar:
            disc.append("non-scalar matrix gave the zero polynomial")
        elif not f_a.is_zero():
            disc.append("scalar matrix gave a nonzero polynomial")
        predicted = {
            "lines": [],
            "residual_degree": 0 if scalar else None,
            "residual_kind": None,
            "expected_points": None,
            "concurrency": None,
            "zero_polynomial": scalar,
        }
        observed = {
            "lines": [],
            "residual_degree": 0,
            "residual_points": None,
            "singular_points": None,
            "concurrent": None,
            "curve_points": None,
            "curve_singular": None,
            "zero_polynomial": f_a.is_zero(),
        }
        return report(predicted, observed)

    if label.tag == fc.CASE_NONSINGULAR:
        pred = _Prediction([], fc.ResidualSpec(fc.RESIDUAL_PLANE_FILLING, f_a), None)
    else:
        frame = None if frames is None else frames.frame_of(A, label)
        try:
            plan = fc.predicted_decomposition(A, label, None if frame is None else frame.rows)
        except ValueError as exc:
            # A is not similar to the canonical form of its label: predict
            # nothing, so that the audit still records what the curve has
            disc.append(f"no similarity to the canonical form of case {label.tag}: {exc}")
            pred = _Prediction([], None, None)
        else:
            pred = _transport(plan, _Frame(plan.basis) if frame is None else frame, spec)
    if seen is None:
        seen = _Observed(f_a, _Scanned(f_a))
    observed = _compare(seen, pred, disc)
    observed.update(
        curve_points=seen.obs.points,
        curve_singular=bool(seen.obs.singular),
        zero_polynomial=False,
    )
    return report({**pred.to_json(), "zero_polynomial": False}, observed)


# ---------------------------------------------------------------------------
# the affine family


@lru_cache(maxsize=None)
def _unit_curves(spec: FieldSpec) -> tuple:
    """(E, G_E) for the six 2x3 matrix units E, row-major, once per field."""
    units = (aff.Matrix23.from_ints(spec, [int(i == k) for i in range(6)]) for k in range(6))
    return tuple((unit, aff.build_GM(unit)) for unit in units)


@lru_cache(maxsize=None)
def witness_law_holds(t: aff.BTransform) -> bool:
    """Whether G_M composed with t is G of ``apply_transform(M, t)`` for
    every M.  M -> G_M, M -> apply_transform(M, t) and f -> f composed
    with t are all GF(q)-linear, so the six matrix units decide it; the
    memo checks each distinct witness once per process."""
    rows = t.matrix_rows()
    return all(
        linear_substitute(curve, rows) == aff.build_GM(aff.apply_transform(unit, t))
        for unit, curve in _unit_curves(t.spec)
    )


@lru_cache(maxsize=None)
def witness_frame(t: aff.BTransform) -> _Frame:
    """The ``_Frame`` of the rows T of t^-1, with its point images, once
    per distinct witness and process."""
    spec = t.spec
    rows = _mat3_inv(t.matrix_rows(), spec)
    return _Frame(rows, tuple(_point_images(rows, spec)))


class _ScalingOrbit:
    """The label and prediction of the scaling orbit cM, c != 0, of a
    representative M, which M's own report, the orbit's first, fills in.

    The reduction to the canonical form is linear in M, so a member whose
    label ``aff._scale_label`` derives from M's takes M's witness, to c
    times M's canonical matrix.  With M's tag it takes M's prediction, the
    lines of M's canonical plan sorted and transported through M's frame;
    only its residual comes from its own canonical plan."""

    def __init__(self, rep: aff.Matrix23):
        # the representative's most significant nonzero entry is 1, so a
        # member cM holds c there
        self.top = max(k for k, v in enumerate(rep.to_ints()) if v)
        self.label = self.pred = None

    def label_of(self, M: aff.Matrix23) -> aff.AffineLabel | None:
        """M's label derived from the representative's, or None when M is
        to classify itself: M is the representative, or ``_scale_label``
        derives no label."""
        if self.label is None:
            return None
        c = M.rows_int[self.top // 3][self.top % 3]
        return aff._scale_label(self.label, c, aff._affine_facts(M))


def affine_report(
    M: aff.Matrix23, obs=None, seen: _Observed | None = None, orbit: _ScalingOrbit | None = None
) -> DecompositionReport:
    """Oracle audit of the curve of a nonzero 2x3 matrix.

    Checks the canonical reduction round trip, the substitution law for
    the witness, the transported line/residual structure, rational points
    at infinity by two routes, affine coverage, and the rank-2 criterion
    for a nonlinear component.  ``obs`` observes the curve if already
    observed, as for ``_Observed``; without it the curve is evaluated at
    every point.  ``seen`` is the ``_Observed`` curve of M if already
    observed, as shared by the matrices cM of one curve; with it G_M is
    not built.  ``orbit``, the ``_ScalingOrbit`` that holds M, gives M's
    label and prediction derived from its representative's; without it,
    or when it derives none, M is classified and its plan transported on
    its own.  The facts that decide the tag, the witness check, the
    residual and every comparison are M's own.
    """
    spec = M.spec
    derived = None if orbit is None else orbit.label_of(M)
    label = aff.classify_affine(M) if derived is None else derived
    disc: list[str] = []

    plan = aff.predicted_decomposition(label)

    if label.tag != aff.AFFINE_FILLING:
        # with the law for the witness, G_M composed with it is G of the
        # transformed matrix, and M -> G_M is injective: the canonical
        # equation comes out exactly when the canonical matrix does
        reproduces = aff.apply_transform(M, label.witness).rows_int == label.canonical.rows_int
        if not reproduces:
            disc.append("witness transform does not reproduce the canonical matrix")
        if not (reproduces and witness_law_holds(label.witness)):
            disc.append("substituting the witness does not give the canonical equation")

    if derived is None:
        pred = _transport(plan, witness_frame(label.witness), spec)
        if orbit is not None and orbit.label is None:
            orbit.label, orbit.pred = label, pred
    else:
        # the plan's lines, concurrency and residual kind follow the tag
        pred = orbit.pred._replace(residual=plan.residual)
    if seen is None:
        g_m = aff.build_GM(M)
        seen = _Observed(g_m, _Scanned(g_m) if obs is None else obs)
    observed = _compare(seen, pred, disc)
    if not seen.affine_covered:
        disc.append("curve misses an affine rational point")
    inf_observed = len(seen.infinity_keys)
    if inf_observed != plan.infinity_points:
        disc.append(f"{inf_observed} points at infinity, expected {plan.infinity_points}")
    if aff.points_at_infinity(label.shape) != seen.infinity_keys:
        disc.append("points at infinity disagree with the left-block quadratic roots")

    # a component of degree >= 2 survives the line sieve iff the matrix
    # has rank 2 and a nonzero left-block quadratic
    has_nonlinear = observed["residual_degree"] >= 2
    if has_nonlinear != (label.rank == 2 and label.shape.tag != QUAD_ZERO):
        disc.append("nonlinear component does not follow the rank criterion")

    predicted = {
        "label": label.tag,
        "canonical": label.canonical.to_ints(),
        "witness": {
            "B": [v for row in label.witness.block for v in row],
            "b": list(label.witness.shift),
            "lam": label.witness.lam,
        },
        **pred.to_json(),
        "infinity_points": plan.infinity_points,
    }
    observed.update(curve_points=seen.obs.points, infinity_points=inf_observed)
    return DecompositionReport(
        spec.q, "affine", M.to_ints(), label.tag, None, None,
        predicted, observed, not disc, disc,
    )


# ---------------------------------------------------------------------------
# sweeps and suites


def _matrix_at(cls, size: int, spec: FieldSpec, n: int):
    """The n-th matrix with size entries in base-q counting order, first
    entry least significant."""
    return cls.from_ints(spec, base_digits(n, spec.q, size))


def _audit_residual_bound(counters: dict, r: DecompositionReport, index: int | None = None):
    """Point-count bound N <= (d-1)q + 1 on a report's residual curve: tight
    for the maximal kinds, strict for the affine-filling residual."""
    kind = r.predicted["residual_kind"]
    if kind in fc.MAXIMAL_KINDS or kind == fc.RESIDUAL_AFFINE_FILLING:
        counters["audit_checked"] += 1
        npts = r.observed["residual_points"]
        bound = fc.point_bound(r.predicted["residual_degree"], r.q)
        ok = npts is not None and npts <= bound and (
            (npts == bound) == (kind in fc.MAXIMAL_KINDS)
        )
        if not ok:
            _note_failure(
                counters, "audit_failures",
                f"matrix {r.matrix}: residual point bound violated",
                index,
            )


def _shift_orbits(spec: FieldSpec, lo: int, hi: int):
    """The orbits R + mu E of the matrices R among lo, ..., hi-1, with
    hi <= q^8 so that each R has a22 = 0 and the smallest counting index of
    its orbit: R by R in counting order, then mu in encoding order.

    F_(R + mu E) = F_R + mu F_E = F_R, so a matrix whose packed image on
    ``batch.cycle_kernel`` is R's shares R's ``_Observed`` of F_R; one
    whose image differs, which takes a wrong kernel, is observed on its own
    image.  The two images differ by the table entries of the diagonal
    alone, so those are what is compared.  The orbit of R = 0, the scalars,
    gets None, as does a non-scalar matrix whose curve is zero.  The
    reports on the scalars build F_E themselves and check that it is zero,
    the identity the sharing rests on.  Each orbit starts with R itself,
    the only one with a22 = 0, so that its report can fill the
    ``_OrbitFrames`` its members derive their similarity bases from.
    Yields (counting index, Matrix3, observed)."""
    from . import batch

    q, add = spec.q, spec._add
    if not 0 <= lo <= hi <= q**8:
        raise ValueError(f"orbit representatives lie in [0, {q**8})")
    kern = batch.cycle_kernel(spec)
    t00, t11, t22 = (kern.tables[k] for k in (0, 4, 8))
    plus = kern.add

    def observed(a: fc.Matrix3, packed: int) -> _Observed | None:
        f = fc.build_FA(a)
        return None if f.is_zero() else _Observed(f, batch.observe(kern, packed))

    for n, (rep, packed) in enumerate(batch.projective_images(spec, lo, hi), lo):
        seen = None if packed is None else observed(rep, packed)
        yield n, rep, seen
        (a00, a01, a02), (a10, a11, a12), (a20, a21, _) = rep.rows_int
        diagonal = plus(plus(t00[a00], t11[a11]), t22[0])
        for mu in range(1, q):
            b00, b11 = add[a00][mu], add[a11][mu]
            # the entries 0, 4 and 8 change, the last one from 0 to mu
            index = n + (b00 - a00) + (b11 - a11) * q**4 + mu * q**8
            a = fc.Matrix3(spec, ((b00, a01, a02), (a10, b11, a12), (a20, a21, mu)))
            if packed is None or plus(plus(t00[b00], t11[b11]), t22[mu]) == diagonal:
                yield index, a, seen
            else:
                yield index, a, observed(a, kern.image(a))


def _orbit_reports(spec: FieldSpec, lo: int, hi: int):
    """(counting index, Matrix3, report) for the q matrices R + mu E of
    each R among lo, ..., hi-1 (hi <= q^8), from ``_shift_orbits``: each
    non-scalar one audits the observation of its orbit's curve, and takes
    its similarity basis from the orbit's ``_OrbitFrames``, which R's
    ``fc._basis`` fills once."""
    for n, a, seen in _shift_orbits(spec, lo, hi):
        if not a.rows_int[2][2]:
            frames = _OrbitFrames(a)
        yield n, a, decomposition_report(a, seen, frames)


def _case_range(spec: FieldSpec, lo: int, hi: int) -> dict:
    """The counters of theorem 4 over the reports of ``_orbit_reports``.
    A failure carries its matrix's counting index, so that the first
    discrepancy is the one of the smallest index."""
    counters = {
        "checked": 0,
        "scalars": 0,
        "match_failures": 0,
        "cycle_failures": 0,
        "minpoly_criterion_failures": 0,
        "audit_checked": 0,
        "audit_failures": 0,
        "cases": {},
        "first_discrepancy": None,
    }
    for n, a, r in _orbit_reports(spec, lo, hi):
        counters["checked"] += 1
        counters["cases"][r.case] = counters["cases"].get(r.case, 0) + 1
        if a.is_scalar():
            counters["scalars"] += 1
            if not r.match:
                _note_failure(
                    counters, "match_failures",
                    f"matrix {a.to_ints()}: {r.discrepancies[0]}", n,
                )
            continue
        if not r.match:
            _note_failure(
                counters, "match_failures",
                f"matrix {a.to_ints()} (case {r.case}): {r.discrepancies[0]}", n,
            )
        _check_cycle(
            counters, a, r.case == fc.CASE_NONSINGULAR,
            bool(r.observed["lines"]), r.observed["curve_singular"], n,
        )
        min_is_char = r.minpoly == r.charpoly
        has_nonlinear = r.observed["residual_degree"] >= 2
        if min_is_char != has_nonlinear:
            _note_failure(
                counters, "minpoly_criterion_failures",
                f"matrix {a.to_ints()}: minimal==characteristic is {min_is_char} "
                f"but nonlinear component is {has_nonlinear}",
                n,
            )
        _audit_residual_bound(counters, r, n)
    return counters


def sweep_plane_filling(spec: FieldSpec, jobs: int = 1) -> dict:
    """Every non-scalar matrix fills the plane; the zero polynomial happens
    exactly for scalars.  Runs on the packed kernel of planefill.batch."""
    from . import batch

    return _run_ranges(batch.fill_range, spec, spec.q**9, jobs)


def sweep_case_reports(spec: FieldSpec, jobs: int = 1) -> dict:
    """Full oracle reports for every matrix, with the irreducibility cycle,
    the minimal-polynomial criterion and the residual point-count audits;
    the chunks split the q^8 orbit representatives of ``_shift_orbits``,
    and the counts cover all q^9 matrices."""
    return _run_ranges(_case_range, spec, spec.q**8, jobs)


def sweep_irreducibility_cycle(spec: FieldSpec, jobs: int = 1) -> dict:
    """Theorem 2.4 on every non-scalar matrix: irreducible characteristic
    polynomial <=> no rational linear component <=> no singular rational
    point.  Lines and singular points come from the packed kernel of
    planefill.batch, irreducibility from fillcurve.classify."""
    from . import batch

    return _run_ranges(batch.cycle_range, spec, spec.q**9, jobs)


def sweep_case_representatives(spec: FieldSpec) -> dict:
    """Oracle reports for one matrix per projective-equivalence class."""
    counters = {
        "checked": 0,
        "match_failures": 0,
        "orbit_total": 0,
        "cases": {},
        "first_discrepancy": None,
    }
    for rep in fc.equivalence_representatives(spec):
        r = decomposition_report(rep.matrix)
        counters["checked"] += 1
        counters["orbit_total"] += rep.orbit_size
        counters["cases"][r.case] = counters["cases"].get(r.case, 0) + 1
        if not r.match:
            _note_failure(
                counters, "match_failures",
                f"matrix {rep.matrix.to_ints()} (case {r.case}): {r.discrepancies[0]}",
            )
    counters["orbit_sum_ok"] = counters["orbit_total"] == spec.q**9 - spec.q
    counters["pass"] = counters["match_failures"] == 0 and counters["orbit_sum_ok"]
    return counters


def sweep_affine_filling(spec: FieldSpec, jobs: int = 1) -> dict:
    """Exhaustive over nonzero 2x3 matrices: the left-block quadratic is
    irreducible exactly when the curve's rational points are the affine
    plane, and each filling curve has one singular rational point and no
    rational linear component.  Runs on the packed kernel of
    planefill.batch."""
    from . import batch

    return _run_ranges(batch.affine_fill_range, spec, spec.q**6, jobs)


def _scaling_orbits(spec: FieldSpec, lo: int, hi: int):
    """The orbits cM, c != 0, of the degenerate matrices M among lo, ...,
    hi-1 whose most significant nonzero entry is 1, with hi <= 2 q^5 so
    that these are all the representatives, each the member of its orbit
    with the smallest counting index: M by M in counting order, then c in
    encoding order.

    G_cM = c G_M is the curve of M, so a member whose packed image on
    ``batch.affine_kernel``, summed from the tables, is c times M's
    (``Lanes.scale``) shares M's ``_Observed`` of G_M; one whose image
    differs, which takes a wrong kernel entry, is observed on its own
    image.  The left-block quadratic of cM is c times M's, so the orbit is
    degenerate when M is.  Yields (counting index, Matrix23, observed)."""
    from . import batch

    q = spec.q
    if not 0 <= lo <= hi <= 2 * q**5:
        raise ValueError(f"orbit representatives lie in [0, {2 * q**5})")
    kern = batch.affine_kernel(spec)
    scale, mul = kern.lanes.scale, spec._mul
    weights = [q**k for k in range(6)]

    def matrix(entries) -> aff.Matrix23:
        return aff.Matrix23(spec, (tuple(entries[:3]), tuple(entries[3:])))

    def observed(m: aff.Matrix23, packed: int) -> _Observed:
        return _Observed(aff.build_GM(m), batch.observe(kern, packed))

    for entries, packed, irreducible in batch.affine_images(spec, lo, hi):
        if irreducible or next(v for v in reversed(entries) if v) != 1:
            continue
        rep = matrix(entries)
        seen = observed(rep, packed)
        yield sum(v * w for v, w in zip(entries, weights)), rep, seen
        for c in range(2, q):
            member = [mul[c][v] for v in entries]
            m = matrix(member)
            image = kern.image(m)
            n = sum(v * w for v, w in zip(member, weights))
            yield n, m, seen if image == scale(packed, c) else observed(m, image)


def _affine_orbit_reports(spec: FieldSpec, lo: int, hi: int):
    """(counting index, Matrix23, report) for the degenerate matrices in
    the scaling orbits of ``_scaling_orbits`` over the representatives
    among lo, ..., hi-1 (hi <= 2 q^5): each audits the observation of its
    orbit's curve, divided by the lines read off the packed kernel of
    planefill.batch, and takes its label and prediction from the orbit's
    ``_ScalingOrbit``, which the representative's report fills."""
    for n, m, seen in _scaling_orbits(spec, lo, hi):
        if next(v for v in reversed(m.to_ints()) if v) == 1:
            orbit = _ScalingOrbit(m)
        yield n, m, affine_report(m, seen=seen, orbit=orbit)


def _affine_report_range(spec: FieldSpec, lo: int, hi: int) -> dict:
    """The counters of the affine reports of ``_affine_orbit_reports``.
    A failure carries its matrix's counting index, so that the first
    discrepancy is the one of the smallest index.  The labels are met in
    counting order of their first matrix, which is a representative,
    since the label of cM is M's."""
    counters = {
        "checked": 0,
        "match_failures": 0,
        "audit_checked": 0,
        "audit_failures": 0,
        "labels": {},
        "first_discrepancy": None,
    }
    for n, m, r in _affine_orbit_reports(spec, lo, hi):
        counters["checked"] += 1
        counters["labels"][r.case] = counters["labels"].get(r.case, 0) + 1
        if not r.match:
            _note_failure(
                counters, "match_failures",
                f"matrix {m.to_ints()} ({r.case}): {r.discrepancies[0]}", n,
            )
        _audit_residual_bound(counters, r, n)
    return counters


def sweep_affine_reports(spec: FieldSpec, jobs: int = 1) -> dict:
    """Oracle reports for every nonzero degenerate 2x3 matrix, plus the
    residual point-count audits; the chunks split the range [0, 2 q^5)
    of the scaling-orbit representatives of ``_scaling_orbits``, each
    curve observed once per orbit cM, and every degenerate matrix among
    the q^6 - 1 nonzero ones is reported and counted."""
    return _run_ranges(_affine_report_range, spec, 2 * spec.q**5, jobs)


def sweep_missing_point_images(spec: FieldSpec, samples: int = 200) -> dict:
    """Random projective images of filling curves: each keeps q^2 rational
    points and its missing points stay collinear."""
    q = spec.q
    rng = random.Random(COLLINEAR_SEED)
    counters = {
        "checked": 0,
        "count_failures": 0,
        "collinear_failures": 0,
        "first_discrepancy": None,
    }
    sources = []
    while len(sources) < 25:
        m = aff.Matrix23.from_ints(spec, [rng.randrange(q) for _ in range(6)])
        if m.is_zero():
            continue
        if aff.left_quad_shape(m).tag == QUAD_IRREDUCIBLE:
            sources.append(aff.build_GM(m))
    for _ in range(samples):
        g = sources[rng.randrange(len(sources))]
        while True:
            rows = tuple(
                tuple(rng.randrange(q) for _ in range(3)) for _ in range(3)
            )
            try:
                image = linear_substitute(g, rows)
                break
            except ValueError:
                continue
        counters["checked"] += 1
        if count_points(image) != q * q:
            _note_failure(counters, "count_failures", "image does not have q^2 points")
            continue
        res = missing_points_collinear(image)
        if len(res["missing"]) != q + 1 or not res["collinear"]:
            _note_failure(counters, "collinear_failures", "missing points are not collinear")
    counters["pass"] = counters["count_failures"] == 0 and counters["collinear_failures"] == 0
    return counters


SUITES = ("plane-filling", "theorem-2.4", "theorem-4", "affine-6", "sziklai", "collinear")
# theorem-4 and sziklai report on every matrix up to this q, on the class
# representatives above it
EXHAUSTIVE_MAX_Q = 4
COLLINEAR_SEED = 20260811


def suite_size(name: str, q: int, samples: int = 200) -> int:
    """How many matrices a suite visits, summed over its passes; samples
    for ``collinear``.  A sweep over class representatives counts the q^3
    characteristic polynomials it scans."""
    proj = q**9 if q <= EXHAUSTIVE_MAX_Q else q**3
    affine = q**6 - 1
    return {
        "plane-filling": q**9,
        "theorem-2.4": q**9,
        "theorem-4": proj,
        "affine-6": 2 * affine,
        "sziklai": proj + affine,
        "collinear": samples,
    }[name]


def run_suite(name: str, q: int, jobs: int = 1, samples: int = 200) -> dict:
    """Named verification suites behind the command-line front end."""
    spec = field_for_order(q)
    exhaustive = q <= EXHAUSTIVE_MAX_Q
    if name == "plane-filling":
        return sweep_plane_filling(spec, jobs)
    if name == "theorem-2.4":
        return sweep_irreducibility_cycle(spec, jobs)
    if name == "theorem-4":
        return sweep_case_reports(spec, jobs) if exhaustive else sweep_case_representatives(spec)
    if name == "affine-6":
        filling = sweep_affine_filling(spec, jobs)
        reports = sweep_affine_reports(spec, jobs)
        return {
            "filling": filling,
            "reports": reports,
            "pass": filling["pass"] and reports["pass"],
        }
    if name == "sziklai":
        if exhaustive:
            proj = sweep_case_reports(spec, jobs)
        else:
            proj = {"audit_checked": 0, "audit_failures": 0, "first_discrepancy": None}
            for rep in fc.equivalence_representatives(spec):
                _audit_residual_bound(proj, decomposition_report(rep.matrix))
        affr = sweep_affine_reports(spec, jobs)
        out = {
            "projective_audits": proj["audit_checked"],
            "affine_audits": affr["audit_checked"],
            "audit_failures": proj["audit_failures"] + affr["audit_failures"],
            "pass": proj["audit_failures"] == 0 and affr["audit_failures"] == 0,
        }
        if q == 4:
            audit = sziklai_audit(exceptional_quartic(spec))
            out["exceptional_quartic"] = audit
            out["pass"] = out["pass"] and audit["is_exceptional"] and not audit["bound_holds"]
        return out
    if name == "collinear":
        return sweep_missing_point_images(spec, samples=samples)
    raise ValueError(f"unknown suite {name!r}")
