"""Brute-force verification of every symbolic prediction.

Everything here works by enumeration: points of the projective plane,
rational lines, divisions by every candidate line, and point counts.  The
oracle never trusts the case analysis; it recomputes decompositions from
scratch and compares them with the transported canonical predictions.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from multiprocessing import Pool
from typing import NamedTuple

from . import affine as aff
from . import fillcurve as fc
from .gf import FieldSpec, base_digits, field_for_order, make_field
from .homog import (
    HomogPoly,
    ProjPoint,
    _cross,
    _mat3_inv,
    _matmul,
    _matvec,
    _transpose,
    linear_substitute,
    partials,
    scalar_ratio,
)
from .poly import QUAD_IRREDUCIBLE


# ---------------------------------------------------------------------------
# the plane: points, lines, cached monomial columns


class _Plane:
    __slots__ = (
        "spec", "points", "lines", "line_coeffs", "_mono", "_powers", "affine_idx", "infinity_idx"
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
        # _powers[e][a] is a^e for the exponents of a form of degree <= q
        self._powers = [[spec.pow_int(a, e) for a in elems] for e in range(spec.q + 1)]

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

    def values(self, f: HomogPoly) -> list[int]:
        add, mul = self.spec._add, self.spec._mul
        vals = [0] * len(self.points)
        for key, c in f.terms.items():
            col = self.mono_column(key)
            crow = mul[c]
            vals = [add[v][crow[cv]] for v, cv in zip(vals, col)]
        return vals

    def value_at(self, f: HomogPoly, i: int) -> int:
        """The value of f at the i-th point, from the monomial columns."""
        add, mul = self.spec._add, self.spec._mul
        acc = 0
        for key, c in f.terms.items():
            acc = add[acc][mul[c][self.mono_column(key)[i]]]
        return acc

    def substituted_values(self, f: HomogPoly, rows) -> list[int]:
        """The values of f composed with the substitution x -> rows*x, for f
        of degree at most q: f evaluated on the value columns of the three
        row forms, so the composite is never expanded."""
        add, mul = self.spec._add, self.spec._mul
        # a point's coordinates are the coefficients of the line of its index
        u, v, w = (
            [add[add[m0[a]][m1[b]]][m2[c]] for a, b, c in self.line_coeffs]
            for m0, m1, m2 in ([mul[r] for r in row] for row in rows)
        )
        powers = self._powers
        vals = [0] * len(self.points)
        for (i, j, k), c in f.terms.items():
            pi, pj, pk, crow = powers[i], powers[j], powers[k], mul[c]
            vals = [
                add[s][crow[mul[mul[pi[a]][pj[b]]][pk[d]]]]
                for s, a, b, d in zip(vals, u, v, w)
            ]
        return vals


@lru_cache(maxsize=None)
def _plane_for(spec: FieldSpec) -> _Plane:
    return _Plane(spec)


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

    Tries each of the q^2+q+1 lines in plane order; the residual is
    divisible by no rational linear form.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a curve")
    return _divide_out(f, ((i, None) for i in range(len(_plane_for(f.spec).lines))))


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
        return {
            "q": self.q,
            "family": self.family,
            "matrix": self.matrix,
            "case": self.case,
            "charpoly": self.charpoly,
            "minpoly": self.minpoly,
            "predicted": self.predicted,
            "observed": self.observed,
            "match": self.match,
            "discrepancies": self.discrepancies,
        }


def _serialize_lines(pairs):
    return sorted([list(c), m] for c, m in pairs)


def _pencil_structure(forms, spec: FieldSpec):
    """(point, count) for the point lying on the most of the given lines."""
    coeffs = [f.line_coeffs() for f in forms]
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


class _Prediction(NamedTuple):
    """A predicted decomposition in the curve's coordinates: the lines
    transported, the residual equation composed with ``rows`` (or as it
    stands when ``rows`` is None) holds up to a scalar."""

    lines: list  # (normalized line coefficients, multiplicity)
    residual: fc.ResidualSpec | None
    concurrency: str | None
    rows: tuple | None = None

    def to_json(self) -> dict:
        res = self.residual
        return {
            "lines": _serialize_lines(self.lines),
            "residual_degree": res.degree if res else 0,
            "residual_kind": res.kind if res else None,
            "expected_points": res.expected_points if res else None,
            "concurrency": self.concurrency,
        }


def _transport(plan, rows, spec: FieldSpec) -> _Prediction:
    """Carry the lines and concurrency of a canonical plan through the
    substitution x -> rows*x; a line's coefficient row c becomes c*rows,
    normalized like a point.  The residual keeps its canonical equation,
    with rows beside it for ``transported_multiple``."""
    images = _matmul([l.line_coeffs() for l, _m in plan.lines], rows, spec)
    return _Prediction(
        lines=[(ProjPoint(spec, c).key, m) for c, (_l, m) in zip(images, plan.lines)],
        residual=plan.residual,
        concurrency=plan.concurrency,
        rows=rows,
    )


def transported_multiple(g: HomogPoly, eq: HomogPoly, rows, gvals=None) -> bool:
    """Whether g is a nonzero scalar multiple of eq composed with
    x -> rows*x (of eq itself when rows is None), or both are zero:
    ``scalar_ratio(g, linear_substitute(eq, rows)) is not None``.

    Up to degree q the composite is compared by its values at the rational
    points (gvals, if given, are those of g).  The ideal of all the points
    of P^2(F_q) is generated by x^q y - x y^q, x^q z - x z^q and
    y^q z - y z^q, of degree q + 1, so a nonzero form of degree at most q
    is nonzero at some point, and g - c*h vanishes everywhere only when
    g = c*h.  From degree q + 1 on x^q z - x z^q vanishes everywhere, so
    the composite is expanded and compared coefficient by coefficient.
    """
    if g.degree != eq.degree:
        return False
    if rows is None:
        return scalar_ratio(g, eq) is not None
    spec = g.spec
    if eq.degree > spec.q:
        return scalar_ratio(g, linear_substitute(eq, rows)) is not None
    plane = _plane_for(spec)
    if gvals is None:
        gvals = plane.values(g)
    hvals = plane.substituted_values(eq, rows)
    i = next((i for i, h in enumerate(hvals) if h), None)
    if i is None:
        return not any(gvals)
    c = spec.div(gvals[i], hvals[i])
    mrow = spec._mul[c]
    return c != 0 and gvals == [mrow[h] for h in hvals]


class _Scanned:
    """The reference observation of a nonzero curve f, with the fields of
    ``batch.Observation``: its rational points by evaluating f at every
    point of the plane, its singular rational points by
    ``singular_Fq_points`` on first use, and no lines, so that the audit
    tries every rational line; ``scan`` observes another curve the same
    way."""

    lines = None

    def __init__(self, f: HomogPoly):
        self.f = f
        self.values = _plane_for(f.spec).values(f)
        self.zeros = [i for i, v in enumerate(self.values) if not v]

    @cached_property
    def singular(self) -> int:
        return len(singular_Fq_points(self.f, self.values))

    @staticmethod
    def scan(g: HomogPoly) -> tuple[list, int, int]:
        vals = _plane_for(g.spec).values(g)
        return vals, vals.count(0), len(singular_Fq_points(g, vals))


def _audit(f: HomogPoly, pred: _Prediction, disc: list, obs) -> dict:
    """Recompute the linear components of f and compare them with the
    prediction: line set with multiplicity, residual degree, residual
    equation up to a scalar, residual point and singular-point counts, and
    concurrency.  Mismatches are appended to disc; returns the observed
    fields both report families share.

    ``obs`` observes f itself (a ``batch.Observation`` or ``_Scanned``):
    when its ``lines`` are given, as (index in plane order, multiplicity)
    in plane order, f is divided by those alone instead of trying every
    rational line, and a residual without lines, which is f, takes its
    points and singular points from it; any other residual is observed
    by its ``scan``."""
    spec = f.spec
    comps = None if obs.lines is None else _divide_out(f, obs.lines)
    if comps is None:
        if obs.lines is not None:
            disc.append("observed lines do not divide the curve with their multiplicities")
        comps = find_linear_components(f)
    obs_lines = [(l.line_coeffs(), mult) for l, mult in comps.lines]
    forms = [l for l, _ in comps.lines]
    if sorted(obs_lines) != sorted(pred.lines):
        disc.append(
            f"lines differ: observed {_serialize_lines(obs_lines)}, predicted {_serialize_lines(pred.lines)}"
        )
    res = pred.residual
    pred_degree = res.degree if res else 0
    if comps.residual_degree != pred_degree:
        disc.append(f"residual degree {comps.residual_degree}, predicted {pred_degree}")

    residual_points = None
    singular_count = None
    if res and comps.residual_degree == res.degree:
        if comps.residual_degree == f.degree:
            rvals, residual_points, singular_count = None, len(obs.zeros), obs.singular
        else:
            rvals, residual_points, singular_count = obs.scan(comps.residual)
        if not transported_multiple(comps.residual, res.equation, pred.rows, rvals):
            disc.append("residual equation is not a scalar multiple of the transported prediction")
        if residual_points != res.expected_points:
            disc.append(f"residual has {residual_points} points, expected {res.expected_points}")
        if singular_count != res.expected_singular_points:
            disc.append(
                f"residual has {singular_count} singular rational points, "
                f"expected {res.expected_singular_points}"
            )

    concurrent_point = None
    if len(forms) >= 2:
        meet = concurrency_check(forms)
        concurrent_point = list(meet.key) if meet else None
    if pred.concurrency == fc.NOT_CONCURRENT and concurrent_point is not None:
        disc.append("lines unexpectedly share a common point")
    elif pred.concurrency == fc.CONCURRENT_ALL and concurrent_point is None:
        disc.append("lines were predicted to be concurrent but are not")
    elif pred.concurrency == fc.CONCURRENT_ALL_BUT_ONE:
        point, through = _pencil_structure(forms, spec)
        if point is None or through != len(forms) - 1:
            disc.append(
                f"expected all lines but one through a common point, widest pencil has {through}"
            )

    return {
        "lines": _serialize_lines(obs_lines),
        "residual_degree": comps.residual_degree,
        "residual_points": residual_points,
        "singular_points": singular_count,
        "concurrent": concurrent_point,
    }


def decomposition_report(A: fc.Matrix3, obs=None) -> DecompositionReport:
    """Run the oracle against the predicted splitting of the curve of A.

    Compares line sets with multiplicity, concurrency structure, residual
    degree, the residual equation pulled back through the similarity
    transform (up to a nonzero scalar), the residual point count against
    the formula for its kind, and the number of singular rational points
    on the residual.  Mismatches are reported, never raised.  ``obs``
    observes F_A of a non-scalar A if already observed, as for ``_audit``;
    without it F_A is evaluated at every point.
    """
    spec = A.spec
    q = spec.q
    f_a = fc.build_FA(A)
    cp = fc.charpoly(A)
    mp = fc.minpoly(A)
    label = fc.classify(A, f=cp, mp=mp)
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
        try:
            plan = fc.predicted_decomposition(A, label=label, f=cp)
        except ValueError as exc:
            # A is not similar to the canonical form of its label: predict
            # nothing, so that the audit still records what the curve has
            disc.append(f"no similarity to the canonical form of case {label.tag}: {exc}")
            pred = _Prediction([], None, None)
        else:
            pred = _transport(plan, _transpose(_mat3_inv(plan.transform.rows_int, spec)), spec)
    if obs is None:
        obs = _Scanned(f_a)
    observed = _audit(f_a, pred, disc, obs)
    observed.update(
        curve_points=len(obs.zeros),
        curve_singular=bool(obs.singular),
        zero_polynomial=False,
    )
    return report({**pred.to_json(), "zero_polynomial": False}, observed)


# ---------------------------------------------------------------------------
# the affine family


@lru_cache(maxsize=None)
def witness_law_holds(t: aff.BTransform) -> bool:
    """Whether G_M composed with t is G of ``apply_transform(M, t)`` for
    every M.  M -> G_M, M -> apply_transform(M, t) and f -> f composed
    with t are all GF(q)-linear, so the six matrix units decide it; the
    memo checks each distinct witness once per process."""
    spec = t.spec
    rows = t.matrix_rows()
    for k in range(6):
        unit = aff.Matrix23.from_ints(spec, [int(i == k) for i in range(6)])
        image = aff.build_GM(aff.apply_transform(unit, t))
        if linear_substitute(aff.build_GM(unit), rows) != image:
            return False
    return True


def affine_report(M: aff.Matrix23, obs=None) -> DecompositionReport:
    """Oracle audit of the curve of a nonzero 2x3 matrix.

    Checks the canonical reduction round trip, the substitution law for
    the witness, the transported line/residual structure, rational points
    at infinity by two routes, affine coverage, and the rank-2 criterion
    for a nonlinear component.  ``obs`` observes the curve if already
    observed, as for ``_audit``; without it the curve is evaluated at
    every point.
    """
    spec = M.spec
    plane = _plane_for(spec)
    g_m = aff.build_GM(M)
    label = aff.classify_affine(M)
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
        t_rows = _mat3_inv(label.witness.matrix_rows(), spec)
    else:
        t_rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    pred = _transport(plan, t_rows, spec)
    if obs is None:
        obs = _Scanned(g_m)
    observed = _audit(g_m, pred, disc, obs)
    on_curve = set(obs.zeros)
    if not on_curve.issuperset(plane.affine_idx):
        disc.append("curve misses an affine rational point")
    inf_set = {plane.points[i].key for i in plane.infinity_idx if i in on_curve}
    inf_observed = len(inf_set)
    if inf_observed != plan.infinity_points:
        disc.append(f"{inf_observed} points at infinity, expected {plan.infinity_points}")
    if {p.key for p in aff.points_at_infinity(M)} != inf_set:
        disc.append("points at infinity disagree with the left-block quadratic roots")

    # a component of degree >= 2 survives the line sieve iff the matrix
    # has rank 2 and a nonzero left-block quadratic
    has_nonlinear = observed["residual_degree"] >= 2
    rank2_nonzero_quad = M.rank() == 2 and any(aff.quad_form_triple(M))
    if has_nonlinear != rank2_nonzero_quad:
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
    observed.update(curve_points=len(obs.zeros), infinity_points=inf_observed)
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


def _merge(counters: list[dict]) -> dict:
    out = dict(counters[0])
    for c in counters[1:]:
        for k, v in c.items():
            if k == "first_discrepancy":
                if out.get(k) is None:
                    out[k] = v
            elif isinstance(v, dict):
                tgt = out.setdefault(k, {})
                for kk, vv in v.items():
                    tgt[kk] = tgt.get(kk, 0) + vv
            else:
                out[k] = out.get(k, 0) + v
    return out


def _note_failure(counters: dict, key: str, message: str):
    counters[key] += 1
    if counters["first_discrepancy"] is None:
        counters["first_discrepancy"] = message


def _check_cycle(counters: dict, a, irreducible: bool, has_lin: bool, has_sing: bool):
    """Theorem 2.4 for one non-scalar Matrix3 a: irreducible characteristic
    polynomial <=> no rational line divides F_A <=> F_A has no singular
    rational point."""
    if not (irreducible == (not has_lin) == (not has_sing)):
        _note_failure(
            counters, "cycle_failures",
            f"matrix {a.to_ints()}: irreducible={irreducible} "
            f"no-lines={not has_lin} no-singular={not has_sing}",
        )


def _audit_residual_bound(counters: dict, r: DecompositionReport):
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
            )


def _case_range(args) -> dict:
    """Reports for the matrices lo, ..., hi-1, each non-scalar one auditing
    F_A with the observation read off the packed kernel of
    planefill.batch."""
    from . import batch

    p, e, lo, hi = args
    spec = make_field(p, e)
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
    for a, obs in batch.case_observations(spec, lo, hi):
        r = decomposition_report(a, obs)
        counters["checked"] += 1
        counters["cases"][r.case] = counters["cases"].get(r.case, 0) + 1
        if a.is_scalar():
            counters["scalars"] += 1
            if not r.match:
                _note_failure(
                    counters, "match_failures",
                    f"matrix {a.to_ints()}: {r.discrepancies[0]}",
                )
            continue
        if not r.match:
            _note_failure(
                counters, "match_failures",
                f"matrix {a.to_ints()} (case {r.case}): {r.discrepancies[0]}",
            )
        _check_cycle(
            counters, a, r.case == fc.CASE_NONSINGULAR,
            bool(r.observed["lines"]), r.observed["curve_singular"],
        )
        min_is_char = r.minpoly == r.charpoly
        has_nonlinear = r.observed["residual_degree"] >= 2
        if min_is_char != has_nonlinear:
            _note_failure(
                counters, "minpoly_criterion_failures",
                f"matrix {a.to_ints()}: minimal==characteristic is {min_is_char} "
                f"but nonlinear component is {has_nonlinear}",
            )
        _audit_residual_bound(counters, r)
    return counters


def _ranges(total: int, jobs: int):
    chunks = max(jobs * 4, 1)
    step = max(total // chunks, 1)
    edges = list(range(0, total, step)) + [total]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1) if edges[i] < edges[i + 1]]


def _run_ranges(worker, spec: FieldSpec, total: int, jobs: int) -> dict:
    """worker((p, e, lo, hi)) over [0, total) in chunks, on at most
    os.cpu_count() processes; the counters merge in counting order, and
    ``pass`` holds when no ``*_failures`` counter is nonzero."""
    jobs = min(jobs, os.cpu_count() or 1)
    args = [(spec.p, spec.e, lo, hi) for lo, hi in _ranges(total, jobs)]
    if jobs <= 1:
        parts = [worker(a) for a in args]
    else:
        with Pool(processes=jobs) as pool:
            parts = pool.map(worker, args)
    out = _merge(parts)
    out["pass"] = not any(v for k, v in out.items() if k.endswith("_failures"))
    return out


def sweep_plane_filling(spec: FieldSpec, jobs: int = 1) -> dict:
    """Every non-scalar matrix fills the plane; the zero polynomial happens
    exactly for scalars.  Runs on the packed kernel of planefill.batch."""
    # batch imports this module, and only the packed sweeps need it
    from . import batch

    return _run_ranges(batch.fill_range, spec, spec.q**9, jobs)


def sweep_case_reports(spec: FieldSpec, jobs: int = 1) -> dict:
    """Full oracle reports for every matrix, with the irreducibility cycle,
    the minimal-polynomial criterion and the residual point-count audits."""
    return _run_ranges(_case_range, spec, spec.q**9, jobs)


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


def _affine_report_range(args) -> dict:
    """Reports for the degenerate nonzero 2x3 matrices among lo, ..., hi-1,
    each dividing its curve by the lines read off the packed kernel of
    planefill.batch."""
    from . import batch

    p, e, lo, hi = args
    spec = make_field(p, e)
    counters = {
        "checked": 0,
        "match_failures": 0,
        "audit_checked": 0,
        "audit_failures": 0,
        "labels": {},
        "first_discrepancy": None,
    }
    for m, obs in batch.degenerate_observations(spec, lo, hi):
        r = affine_report(m, obs)
        counters["checked"] += 1
        counters["labels"][r.case] = counters["labels"].get(r.case, 0) + 1
        if not r.match:
            _note_failure(
                counters, "match_failures",
                f"matrix {m.to_ints()} ({r.case}): {r.discrepancies[0]}",
            )
        _audit_residual_bound(counters, r)
    return counters


def sweep_affine_reports(spec: FieldSpec, jobs: int = 1) -> dict:
    """Oracle reports for every nonzero degenerate 2x3 matrix, plus the
    residual point-count audits."""
    return _run_ranges(_affine_report_range, spec, spec.q**6, jobs)


def sweep_missing_point_images(spec: FieldSpec, samples: int = 200, seed: int = 20260811) -> dict:
    """Random projective images of filling curves: each keeps q^2 rational
    points and its missing points stay collinear."""
    q = spec.q
    rng = random.Random(seed)
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


def suite_size(name: str, q: int, samples: int = 200) -> int:
    """How many matrices a suite visits, summed over its passes; samples
    for ``collinear``.  A sweep over class representatives counts the q^3
    characteristic polynomials it scans."""
    proj = q**9 if q <= 4 else q**3
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
    if name == "plane-filling":
        out = sweep_plane_filling(spec, jobs)
    elif name == "theorem-2.4":
        out = sweep_irreducibility_cycle(spec, jobs)
    elif name == "theorem-4":
        if q <= 4:
            out = sweep_case_reports(spec, jobs)
        else:
            out = sweep_case_representatives(spec)
    elif name == "affine-6":
        filling = sweep_affine_filling(spec, jobs)
        reports = sweep_affine_reports(spec, jobs)
        out = {
            "filling": filling,
            "reports": reports,
            "pass": filling["pass"] and reports["pass"],
        }
    elif name == "sziklai":
        if q <= 4:
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
    elif name == "collinear":
        out = sweep_missing_point_images(spec, samples=samples)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return out

