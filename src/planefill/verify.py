"""Brute-force verification of every symbolic prediction.

Everything here works by enumeration: points of the projective plane,
rational lines, divisions by every candidate line, and point counts.  The
oracle never trusts the case analysis; it recomputes decompositions from
scratch and compares them with the transported canonical predictions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool
from typing import NamedTuple

from . import affine as aff
from . import fillcurve as fc
from .gf import FieldSpec, field_for_order, make_field
from .homog import (
    HomogPoly,
    ProjPoint,
    _mat3_inv,
    _mat3_transpose,
    linear_substitute,
    partials,
    scalar_ratio,
)
from .poly import QUAD_IRREDUCIBLE

MAXIMAL_KINDS = (
    fc.RESIDUAL_MAX_Q_PLUS_1,
    fc.RESIDUAL_MAX_Q,
    fc.RESIDUAL_MAX_Q_MINUS_1,
)


# ---------------------------------------------------------------------------
# the plane: points, lines, cached monomial columns


class _Plane:
    __slots__ = ("spec", "points", "point_index", "lines", "line_coeffs", "_mono", "affine_idx", "infinity_idx")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        elems = range(spec.q)
        triples = (
            [(1, y, z) for y in elems for z in elems]
            + [(0, 1, z) for z in elems]
            + [(0, 0, 1)]
        )
        self.points = [ProjPoint(spec, t) for t in triples]
        self.point_index = {p.key: i for i, p in enumerate(self.points)}
        self.line_coeffs = list(triples)
        self.lines = [HomogPoly.linear_form(spec, t) for t in triples]
        self.affine_idx = [i for i, p in enumerate(self.points) if p.key[2]]
        self.infinity_idx = [i for i, p in enumerate(self.points) if not p.key[2]]
        self._mono: dict = {}

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


@lru_cache(maxsize=None)
def _plane_for(spec: FieldSpec) -> _Plane:
    return _Plane(spec)


def enumerate_P2(spec: FieldSpec) -> list[ProjPoint]:
    """All q^2+q+1 points, (1:y:z) first, then (0:1:z), then (0:0:1)."""
    return list(_plane_for(spec).points)


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


def find_linear_components(f: HomogPoly) -> LineComponentSet:
    """Divide out every rational line with multiplicity.

    Tries each of the q^2+q+1 lines in enumeration order; the residual is
    divisible by no rational linear form.  Lines x + by + cz are divided
    with x leading, then lines y + cz with y leading, then z.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a curve")
    spec = f.spec
    q = spec.q
    plane = _plane_for(spec)
    deg = f.degree
    terms = f.terms
    found = []

    for lead, bs in ((0, range(q)), (1, (0,))):
        if deg == 0:
            break
        rows = _rows(terms, deg, lead)
        for b in bs:
            for c in range(q):
                mult = 0
                while deg > 0:
                    quot = _divline(rows, deg, b, c, spec)
                    if quot is None:
                        break
                    rows = quot
                    deg -= 1
                    mult += 1
                if mult:
                    found.append((plane.lines[lead * q * q + b * q + c], mult))
                if deg == 0:
                    break
            if deg == 0:
                break
        terms = _terms_from_rows(rows, deg, lead)

    mult = 0
    while deg > 0 and all(k for (_i, _j, k) in terms):
        terms = {(i, j, k - 1): v for (i, j, k), v in terms.items()}
        deg -= 1
        mult += 1
    if mult:
        found.append((plane.lines[q * q + q], mult))

    return LineComponentSet(found, HomogPoly._raw(spec, deg, terms), deg)


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
    out = []
    for i, pt in enumerate(plane.points):
        if fvals[i] or fxvals[i]:
            continue
        if fy.eval(pt).val == 0 and fz.eval(pt).val == 0:
            out.append(pt)
    return out


def _cross(u, v, spec: FieldSpec):
    sub, mul = spec._sub, spec._mul
    return (
        sub[mul[u[1]][v[2]]][mul[u[2]][v[1]]],
        sub[mul[u[2]][v[0]]][mul[u[0]][v[2]]],
        sub[mul[u[0]][v[1]]][mul[u[1]][v[0]]],
    )


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
    add, mul = spec._add, spec._mul
    for a, b, c in coeffs:
        v = add[add[mul[a][meet[0]]][mul[b][meet[1]]]][mul[c][meet[2]]]
        if v:
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
    bound = (f.degree - 1) * q + 1
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
    add, mul = spec._add, spec._mul
    a, b, c = line
    ok = all(
        add[add[mul[a][p.key[0]]][mul[b][p.key[1]]]][mul[c][p.key[2]]] == 0
        for p in missing
    )
    return {"missing": missing, "collinear": ok}


def exceptional_quartic(spec: FieldSpec) -> HomogPoly:
    """The quartic (x+y+z)^4 + (xy+yz+zx)^2 + xyz(x+y+z)."""
    x = HomogPoly.variable(spec, 0)
    y = HomogPoly.variable(spec, 1)
    z = HomogPoly.variable(spec, 2)
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


def _normalize_coeffs(coeffs, spec: FieldSpec):
    lead = next((v for v in coeffs if v), 0)
    if lead in (0, 1):
        return tuple(coeffs)
    inv = spec._inv[lead]
    mul = spec._mul[inv]
    return tuple(mul[v] for v in coeffs)


def _transport_line(coeffs, rows, spec: FieldSpec):
    """Coefficients of a linear form after the substitution x -> rows*x."""
    add, mul = spec._add, spec._mul
    out = []
    for j in range(3):
        s = 0
        for i in range(3):
            s = add[s][mul[coeffs[i]][rows[i][j]]]
        out.append(s)
    return _normalize_coeffs(out, spec)


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
    add, mul = spec._add, spec._mul
    for cand in dict.fromkeys(candidates):
        n = 0
        for a, b, c in coeffs:
            if add[add[mul[a][cand[0]]][mul[b][cand[1]]]][mul[c][cand[2]]] == 0:
                n += 1
        if n > best_n:
            best, best_n = cand, n
    return best, best_n


class _Prediction(NamedTuple):
    """A predicted decomposition, transported to the curve's coordinates."""

    lines: list  # (normalized line coefficients, multiplicity)
    residual_degree: int
    residual: HomogPoly | None  # the residual equation, up to a scalar
    kind: str | None
    points: int | None  # rational points on the residual
    singulars: int | None  # singular rational points on the residual
    concurrency: str | None

    def to_json(self) -> dict:
        return {
            "lines": _serialize_lines(self.lines),
            "residual_degree": self.residual_degree,
            "residual_kind": self.kind,
            "expected_points": self.points,
            "concurrency": self.concurrency,
        }


def _audit(f: HomogPoly, pred: _Prediction, disc: list) -> dict:
    """Recompute the linear components of f and compare them with the
    prediction: line set with multiplicity, residual degree, residual
    equation up to a scalar, residual point and singular-point counts, and
    concurrency.  Mismatches are appended to disc; returns the observed
    fields both report families share."""
    spec = f.spec
    comps = find_linear_components(f)
    obs_lines = [(l.line_coeffs(), mult) for l, mult in comps.lines]
    forms = [l for l, _ in comps.lines]
    if sorted(obs_lines) != sorted(pred.lines):
        disc.append(
            f"lines differ: observed {_serialize_lines(obs_lines)}, predicted {_serialize_lines(pred.lines)}"
        )
    if comps.residual_degree != pred.residual_degree:
        disc.append(
            f"residual degree {comps.residual_degree}, predicted {pred.residual_degree}"
        )

    residual_points = None
    singular_count = None
    if pred.residual_degree > 0 and comps.residual_degree == pred.residual_degree:
        if pred.residual is not None and scalar_ratio(comps.residual, pred.residual) is None:
            disc.append("residual equation is not a scalar multiple of the transported prediction")
        residual_points = _plane_for(spec).values(comps.residual).count(0)
        if pred.points is not None and residual_points != pred.points:
            disc.append(f"residual has {residual_points} points, expected {pred.points}")
        singular_count = len(singular_Fq_points(comps.residual))
        if pred.singulars is not None and singular_count != pred.singulars:
            disc.append(
                f"residual has {singular_count} singular rational points, expected {pred.singulars}"
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


def decomposition_report(A: fc.Matrix3) -> DecompositionReport:
    """Run the oracle against the predicted splitting of the curve of A.

    Compares line sets with multiplicity, concurrency structure, residual
    degree, the residual equation pulled back through the similarity
    transform (up to a nonzero scalar), the residual point count against
    the formula for its kind, and the number of singular rational points
    on the residual.  Mismatches are reported, never raised.
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
        pred = _Prediction(
            lines=[], residual_degree=q + 2, residual=f_a, kind="plane_filling",
            points=q * q + q + 1, singulars=0, concurrency=None,
        )
    else:
        plan = fc.predicted_decomposition(A, label=label, f=cp)
        t_inv = _mat3_transpose(_mat3_inv(plan.transform.rows_int, spec))
        res = plan.residual
        pred = _Prediction(
            lines=[(_transport_line(l.line_coeffs(), t_inv, spec), m) for l, m in plan.lines],
            residual_degree=res.degree if res else 0,
            residual=linear_substitute(res.equation, t_inv) if res else None,
            kind=res.kind if res else None,
            points=res.expected_points if res else None,
            singulars=None if res is None else (1 if res.kind == fc.RESIDUAL_AFFINE_FILLING else 0),
            concurrency=plan.concurrency,
        )
    observed = _audit(f_a, pred, disc)

    fvals = _plane_for(spec).values(f_a)
    if label.tag == fc.CASE_NONSINGULAR:
        curve_singular = (observed["singular_points"] or 0) > 0
    else:
        curve_singular = bool(singular_Fq_points(f_a, fvals))
    observed.update(
        curve_points=fvals.count(0),
        curve_singular=curve_singular,
        zero_polynomial=False,
    )
    return report({**pred.to_json(), "zero_polynomial": False}, observed)


# ---------------------------------------------------------------------------
# the affine family


def _affine_canonical_structure(label: aff.AffineLabel):
    """Lines, residual, kind, expected counts for the canonical matrix.

    The concrete shapes come from expanding the curve polynomial of each
    canonical form; the residual equations are written out directly.
    """
    n = label.canonical
    spec = n.spec
    q = spec.q
    neg = spec._neg
    x = HomogPoly.linear_form(spec, (1, 0, 0))
    y = HomogPoly.linear_form(spec, (0, 1, 0))
    z = HomogPoly.linear_form(spec, (0, 0, 1))

    def fan(base, other):
        # lines base - lam*other for nonzero lam
        out = []
        for lam in range(1, q):
            coeffs = [0, 0, 0]
            coeffs[base] = 1
            coeffs[other] = neg[lam]
            out.append((HomogPoly.linear_form(spec, coeffs), 1))
        return out

    tag = label.tag
    if tag == aff.AFFINE_FILLING:
        eq = aff.build_GM(n)
        return (), eq, fc.RESIDUAL_AFFINE_FILLING, q * q, 1, None, 0
    if tag == aff.AFFINE_I1:
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
        return ((x, 1), (y, 1)), eq, fc.RESIDUAL_MAX_Q_MINUS_1, (q - 2) * q + 1, 0, None, 2
    if tag == aff.AFFINE_I2:
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
        return ((y, 1),), eq, fc.RESIDUAL_MAX_Q, (q - 1) * q + 1, 0, None, 2
    if tag == aff.AFFINE_I3:
        lines = ((y, 1), (x, 1), *fan(0, 2))
        return lines, None, None, None, None, fc.CONCURRENT_ALL_BUT_ONE, 2
    if tag == aff.AFFINE_II1:
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
        return ((x, 1),), eq, fc.RESIDUAL_MAX_Q, (q - 1) * q + 1, 0, None, 1
    if tag == aff.AFFINE_II2:
        eq = aff.build_GM(n)
        return (), eq, fc.RESIDUAL_MAX_Q_PLUS_1, q * q + 1, 0, None, 1
    if tag == aff.AFFINE_II3:
        lines = ((x, 2), *fan(0, 2))
        return lines, None, None, None, None, fc.CONCURRENT_ALL, 1
    if tag == aff.AFFINE_III1:
        lines = ((x, 1), (y, 1), *fan(0, 1))
        return lines, None, None, None, None, fc.CONCURRENT_ALL, q + 1
    # III-3
    lines = ((x, 1), (z, 1), *fan(0, 2))
    return lines, None, None, None, None, fc.CONCURRENT_ALL, q + 1


def affine_report(M: aff.Matrix23) -> DecompositionReport:
    """Oracle audit of the curve of a nonzero 2x3 matrix.

    Checks the canonical reduction round trip, the substitution law for
    the witness, the transported line/residual structure, rational points
    at infinity by two routes, affine coverage, and the rank-2 criterion
    for a nonlinear component.
    """
    spec = M.spec
    plane = _plane_for(spec)
    g_m = aff.build_GM(M)
    label = aff.classify_affine(M)
    disc: list[str] = []

    lines_c, residual_c, kind, expected_points, expected_singulars, concurrency, inf_expected = (
        _affine_canonical_structure(label)
    )

    if label.tag != aff.AFFINE_FILLING:
        if aff.apply_transform(M, label.witness).rows_int != label.canonical.rows_int:
            disc.append("witness transform does not reproduce the canonical matrix")
        r_rows = label.witness.matrix_rows()
        if linear_substitute(g_m, r_rows) != aff.build_GM(label.canonical):
            disc.append("substituting the witness does not give the canonical equation")
        t_rows = _mat3_inv(r_rows, spec)
    else:
        t_rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    pred = _Prediction(
        lines=[(_transport_line(l.line_coeffs(), t_rows, spec), m) for l, m in lines_c],
        residual_degree=residual_c.degree if residual_c is not None else 0,
        residual=linear_substitute(residual_c, t_rows) if residual_c is not None else None,
        kind=kind,
        points=expected_points,
        singulars=expected_singulars,
        concurrency=concurrency,
    )
    observed = _audit(g_m, pred, disc)

    vals = plane.values(g_m)
    if any(vals[i] for i in plane.affine_idx):
        disc.append("curve misses an affine rational point")
    inf_observed = sum(1 for i in plane.infinity_idx if vals[i] == 0)
    if inf_observed != inf_expected:
        disc.append(f"{inf_observed} points at infinity, expected {inf_expected}")
    inf_set = {plane.points[i].key for i in plane.infinity_idx if vals[i] == 0}
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
        "infinity_points": inf_expected,
    }
    observed.update(curve_points=vals.count(0), infinity_points=inf_observed)
    return DecompositionReport(
        spec.q, "affine", M.to_ints(), label.tag, None, None,
        predicted, observed, not disc, disc,
    )


# ---------------------------------------------------------------------------
# sweeps and suites


def _matrix_at(cls, size: int, spec: FieldSpec, n: int):
    """The n-th matrix with size entries in base-q counting order, first
    entry least significant."""
    q = spec.q
    vals = []
    for _ in range(size):
        vals.append(n % q)
        n //= q
    return cls.from_ints(spec, vals)


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


def _audit_residual_bound(counters: dict, r: DecompositionReport):
    """Point-count bound N <= (d-1)q + 1 on a report's residual curve: tight
    for the maximal kinds, strict for the affine-filling residual."""
    kind = r.predicted["residual_kind"]
    if kind in MAXIMAL_KINDS or kind == fc.RESIDUAL_AFFINE_FILLING:
        counters["audit_checked"] += 1
        npts = r.observed["residual_points"]
        bound = (r.predicted["residual_degree"] - 1) * r.q + 1
        ok = npts is not None and npts <= bound and (
            (npts == bound) == (kind in MAXIMAL_KINDS)
        )
        if not ok:
            _note_failure(
                counters, "audit_failures",
                f"matrix {r.matrix}: residual point bound violated",
            )


def _fill_range(args) -> dict:
    p, e, lo, hi = args
    spec = make_field(p, e)
    plane = _plane_for(spec)
    counters = {
        "checked": 0,
        "scalars": 0,
        "fill_failures": 0,
        "kernel_failures": 0,
        "first_discrepancy": None,
    }
    for n in range(lo, hi):
        a = _matrix_at(fc.Matrix3, 9, spec, n)
        f = fc.build_FA(a)
        counters["checked"] += 1
        scalar = a.is_scalar()
        if scalar:
            counters["scalars"] += 1
        if f.is_zero() != scalar:
            _note_failure(
                counters, "kernel_failures",
                f"matrix {a.to_ints()}: zero polynomial iff scalar violated",
            )
            continue
        if not scalar and any(plane.values(f)):
            _note_failure(
                counters, "fill_failures",
                f"matrix {a.to_ints()}: curve misses a rational point",
            )
    return counters


def _case_range(args) -> dict:
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
    for n in range(lo, hi):
        a = _matrix_at(fc.Matrix3, 9, spec, n)
        r = decomposition_report(a)
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
        irreducible = r.case == fc.CASE_NONSINGULAR
        has_lin = bool(r.observed["lines"])
        has_sing = r.observed["curve_singular"]
        if not (irreducible == (not has_lin) == (not has_sing)):
            _note_failure(
                counters, "cycle_failures",
                f"matrix {a.to_ints()}: irreducible={irreducible} "
                f"no-lines={not has_lin} no-singular={not has_sing}",
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
    args = [(spec.p, spec.e, lo, hi) for lo, hi in _ranges(total, jobs)]
    if jobs <= 1:
        parts = [worker(a) for a in args]
    else:
        with Pool(processes=jobs) as pool:
            parts = pool.map(worker, args)
    return _merge(parts)


def sweep_plane_filling(spec: FieldSpec, jobs: int = 1) -> dict:
    """Every non-scalar matrix fills the plane; the zero polynomial happens
    exactly for scalars."""
    out = _run_ranges(_fill_range, spec, spec.q**9, jobs)
    out["pass"] = out["fill_failures"] == 0 and out["kernel_failures"] == 0
    return out


def sweep_case_reports(spec: FieldSpec, jobs: int = 1) -> dict:
    """Full oracle reports for every matrix, with the irreducibility cycle,
    the minimal-polynomial criterion and the residual point-count audits."""
    out = _run_ranges(_case_range, spec, spec.q**9, jobs)
    out["pass"] = (
        out["match_failures"] == 0
        and out["cycle_failures"] == 0
        and out["minpoly_criterion_failures"] == 0
        and out["audit_failures"] == 0
    )
    return out


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


def sweep_affine_filling(spec: FieldSpec) -> dict:
    """Exhaustive over nonzero 2x3 matrices: the left-block quadratic is
    irreducible exactly when the curve's rational points are the affine
    plane, and each filling curve has one singular rational point."""
    q = spec.q
    plane = _plane_for(spec)
    counters = {
        "checked": 0,
        "filling": 0,
        "iff_failures": 0,
        "coverage_failures": 0,
        "singular_failures": 0,
        "first_discrepancy": None,
    }
    for n in range(1, q**6):
        m = _matrix_at(aff.Matrix23, 6, spec, n)
        g = aff.build_GM(m)
        vals = plane.values(g)
        counters["checked"] += 1
        if any(vals[i] for i in plane.affine_idx):
            _note_failure(
                counters, "coverage_failures",
                f"matrix {m.to_ints()}: curve misses an affine point",
            )
            continue
        irreducible = aff.left_quad_shape(m).tag == QUAD_IRREDUCIBLE
        exactly_affine = vals.count(0) == q * q
        if irreducible != exactly_affine:
            _note_failure(
                counters, "iff_failures",
                f"matrix {m.to_ints()}: irreducible={irreducible} but "
                f"points={vals.count(0)}",
            )
        if irreducible:
            counters["filling"] += 1
            if len(singular_Fq_points(g)) != 1:
                _note_failure(
                    counters, "singular_failures",
                    f"matrix {m.to_ints()}: filling curve without a unique singular point",
                )
            if find_linear_components(g).residual_degree < 2:
                _note_failure(
                    counters, "iff_failures",
                    f"matrix {m.to_ints()}: filling curve lost a rational linear component",
                )
    counters["pass"] = (
        counters["iff_failures"] == 0
        and counters["coverage_failures"] == 0
        and counters["singular_failures"] == 0
    )
    return counters


def sweep_affine_reports(spec: FieldSpec) -> dict:
    """Oracle reports for every nonzero degenerate 2x3 matrix, plus the
    residual point-count audits."""
    q = spec.q
    counters = {
        "checked": 0,
        "match_failures": 0,
        "audit_checked": 0,
        "audit_failures": 0,
        "labels": {},
        "first_discrepancy": None,
    }
    for n in range(1, q**6):
        m = _matrix_at(aff.Matrix23, 6, spec, n)
        if aff.left_quad_shape(m).tag == QUAD_IRREDUCIBLE:
            continue
        r = affine_report(m)
        counters["checked"] += 1
        counters["labels"][r.case] = counters["labels"].get(r.case, 0) + 1
        if not r.match:
            _note_failure(
                counters, "match_failures",
                f"matrix {m.to_ints()} ({r.case}): {r.discrepancies[0]}",
            )
        _audit_residual_bound(counters, r)
    counters["pass"] = counters["match_failures"] == 0 and counters["audit_failures"] == 0
    return counters


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


def run_suite(name: str, q: int, jobs: int = 1, samples: int = 200) -> dict:
    """Named verification suites behind the command-line front end."""
    spec = field_for_order(q)
    if name == "plane-filling":
        out = sweep_plane_filling(spec, jobs)
    elif name == "theorem-2.4":
        full = sweep_case_reports(spec, jobs)
        out = {
            "checked": full["checked"],
            "cycle_failures": full["cycle_failures"],
            "first_discrepancy": full["first_discrepancy"],
            "pass": full["cycle_failures"] == 0,
        }
    elif name == "theorem-4":
        if q <= 4:
            out = sweep_case_reports(spec, jobs)
        else:
            out = sweep_case_representatives(spec)
    elif name == "affine-6":
        filling = sweep_affine_filling(spec)
        reports = sweep_affine_reports(spec)
        out = {
            "filling": filling,
            "reports": reports,
            "pass": filling["pass"] and reports["pass"],
        }
    elif name == "sziklai":
        proj = (
            sweep_case_reports(spec, jobs) if q <= 4 else sweep_case_representatives(spec)
        )
        affr = sweep_affine_reports(spec)
        out = {
            "projective_audits": proj.get("audit_checked", 0),
            "affine_audits": affr["audit_checked"],
            "audit_failures": proj.get("audit_failures", 0) + affr["audit_failures"],
            "pass": proj.get("audit_failures", 0) == 0 and affr["audit_failures"] == 0,
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

