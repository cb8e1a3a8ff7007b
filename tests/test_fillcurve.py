import hashlib
import itertools
import random

import pytest

from planefill import fillcurve as fc
from planefill.gf import base_digits, field_for_order
from planefill.homog import HomogPoly, linear_substitute, scalar_ratio
from planefill.poly import (
    CUBIC_DOUBLE_PLUS_SIMPLE,
    CUBIC_IRREDUCIBLE,
    CUBIC_LINEAR_TIMES_QUADRATIC,
    CUBIC_THREE_DISTINCT,
    CUBIC_TRIPLE,
    UniPoly,
    cubic_shape,
    divrem,
)
from support import field, rand_invertible3, rand_matrix3


def test_build_UVW_term_counts_and_char2_collapse():
    for q in (2, 3, 4, 5):
        spec = field(q)
        u, v, w = fc.build_UVW(spec)
        assert all(len(g.terms) == 2 for g in (u, v, w))
        assert all(g.degree == q + 1 for g in (u, v, w))
    spec2 = field(2)
    u = fc.build_UVW(spec2)[0]
    assert u == HomogPoly(spec2, 3, {(0, 2, 1): 1, (0, 1, 2): 1})


def test_W_antisymmetric_under_swap():
    spec = field(3)
    w = fc.build_UVW(spec)[2]
    swap = fc.Matrix3.from_ints(spec, [0, 1, 0, 1, 0, 0, 0, 0, 1])
    assert linear_substitute(w, swap) == -w


def test_build_FA_kernel_is_scalar():
    for q in (2, 3):
        spec = field(q)
        for mu in range(q):
            a = fc.Matrix3.diagonal(spec, mu, mu, mu)
            assert fc.build_FA(a).is_zero()


def test_build_FA_examples():
    spec = field(3)
    bprime = spec.element(2)
    a = fc.Matrix3.diagonal(spec, 0, 0, 2)
    z = HomogPoly.variable(spec, 2)
    w = fc.build_UVW(spec)[2]
    assert fc.build_FA(a) == (z * w).scaled(bprime)

    e12 = fc.Matrix3.from_ints(spec, [0, 1, 0, 0, 0, 0, 0, 0, 0])
    x = HomogPoly.variable(spec, 0)
    v = fc.build_UVW(spec)[1]
    assert fc.build_FA(e12) == x * v


def test_build_FA_linear_in_matrix():
    rng = random.Random(31)
    for q in (2, 3, 4):
        spec = field(q)
        for _ in range(25):
            a = rand_matrix3(spec, rng)
            b = rand_matrix3(spec, rng)
            assert fc.build_FA(a) + fc.build_FA(b) == fc.build_FA(a + b)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_build_FA_is_its_defining_product(q):
    # F_A = (x,y,z) A (U,V,W)^t = sum over columns j of (column j of A).(x,y,z)
    # times the j-th generator, in whole-polynomial arithmetic
    spec = field(q)
    uvw = fc.build_UVW(spec)
    for a in _matrices3(q):
        expected = HomogPoly.zero(spec, q + 2)
        for col, g in zip(zip(*a.rows_int), uvw):
            expected = expected + HomogPoly.linear_form(spec, col) * g
        assert fc.build_FA(a) == expected


def test_charpoly_examples():
    spec = field(5)
    zero = fc.Matrix3.from_ints(spec, [0] * 9)
    assert fc.charpoly(zero) == UniPoly(spec, (0, 0, 0, 1))

    # companion of g = t^2 - bt - a glued with the eigenvalue alpha
    a, b, alpha = 2, 1, 3
    m = fc.Matrix3.from_ints(spec, [0, a, 0, 1, b, 0, 0, 0, alpha])
    g = UniPoly(spec, (spec.neg(a), spec.neg(b), 1))
    lin = UniPoly(spec, (spec.neg(alpha), 1))
    assert fc.charpoly(m) == g * lin

    d = fc.Matrix3.diagonal(spec, 1, 2, 4)
    assert fc.charpoly(d) == UniPoly.from_roots(spec, (1, 2, 4))


def test_minpoly_examples():
    spec = field(5)
    assert fc.minpoly(fc.Matrix3.diagonal(spec, 3, 3, 3)) == UniPoly(spec, (2, 1))

    jordan = fc.Matrix3.from_ints(spec, [2, 1, 0, 0, 2, 0, 0, 0, 2])
    assert fc.minpoly(jordan) == UniPoly.from_roots(spec, (2, 2))

    nilp = fc.Matrix3.from_ints(spec, [0, 1, 0, 0, 0, 1, 0, 0, 0])
    assert fc.minpoly(nilp) == UniPoly(spec, (0, 0, 0, 1))


def _matrices3(q, samples=300, seed=37):
    """Every 3x3 matrix over GF(q) for q <= 3, else a seeded sample."""
    spec = field(q)
    if q <= 3:
        return [fc.Matrix3.from_ints(spec, v) for v in itertools.product(range(q), repeat=9)]
    rng = random.Random(seed)
    return [rand_matrix3(spec, rng) for _ in range(samples)]


def _dot(spec, u, v):
    add, mul = spec._add, spec._mul
    s = 0
    for a, b in zip(u, v):
        s = add[s][mul[a][b]]
    return s


def _ref_product(spec, a, b):
    return [[_dot(spec, row, col) for col in zip(*b)] for row in a]


def _power_columns(spec, a):
    """The entries of E, A, A^2, A^3, one column per matrix entry."""
    powers = [[[int(i == j) for j in range(3)] for i in range(3)], a.rows_int]
    while len(powers) < 4:
        powers.append(_ref_product(spec, powers[-1], a.rows_int))
    return list(zip(*([v for row in p for v in row] for p in powers)))


def _annihilates(spec, columns, coeffs):
    """Whether the polynomial with these coefficients, low degree first,
    annihilates the matrix whose _power_columns are given."""
    return not any(_dot(spec, coeffs, column) for column in columns)


def _minimal_degree(spec, columns):
    """The least degree of a monic polynomial that annihilates the matrix,
    by trying every one of degree 1 and 2 (Cayley-Hamilton gives 3
    otherwise)."""
    for d in (1, 2):
        for low in itertools.product(range(spec.q), repeat=d):
            if _annihilates(spec, columns, low + (1,)):
                return d
    return 3


def test_minpoly_divides_and_annihilates():
    # exhaustive at q = 2, 3 and seeded at q = 4, 5, 7, 8, 9: the minimal
    # polynomial annihilates A, divides the characteristic polynomial, and
    # no monic polynomial of lower degree annihilates A (brute force over
    # all of them)
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = field(q)
        for a in _matrices3(q):
            mp = fc.minpoly(a)
            assert mp.coeffs[-1] == 1
            assert divrem(fc.charpoly(a), mp)[1].is_zero()
            columns = _power_columns(spec, a)
            assert _annihilates(spec, columns, mp.coeffs)
            assert _minimal_degree(spec, columns) == mp.degree


def _typed_samples(q):
    """Every matrix for q <= 3; else a seeded sample, a scalar, and seeded
    conjugates of the canonical matrix of every case, so that the rare
    repeated-root cases come up too."""
    out = _matrices3(q)
    if q > 3:
        spec = field(q)
        rng = random.Random(q)
        out.append(fc.Matrix3.identity(spec).scale(q - 1))
        for _tag, c in canonical_samples(spec):
            for _ in range(5):
                p = rand_invertible3(spec, rng)
                out.append(p @ c @ p.inverse())
    return out


def _ref_charpoly(spec, a):
    """det(tE - A) by cofactor expansion along the first row."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (
        [UniPoly(spec, (spec.neg(v), int(i == j))) for j, v in enumerate(row)]
        for i, row in enumerate(a.rows_int)
    )
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


CASE_OF_SHAPE = {
    (CUBIC_IRREDUCIBLE, 3): fc.CASE_NONSINGULAR,
    (CUBIC_LINEAR_TIMES_QUADRATIC, 3): fc.CASE_1,
    (CUBIC_THREE_DISTINCT, 3): fc.CASE_2,
    (CUBIC_DOUBLE_PLUS_SIMPLE, 3): fc.CASE_3_1,
    (CUBIC_DOUBLE_PLUS_SIMPLE, 2): fc.CASE_3_2,
    (CUBIC_TRIPLE, 3): fc.CASE_4_1,
    (CUBIC_TRIPLE, 2): fc.CASE_4_2,
    (CUBIC_TRIPLE, 1): fc.CASE_4_3,
}


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_characteristic_data_against_references(q):
    # exhaustive at q = 2, 3, seeded at q >= 4: charpoly is the cofactor
    # determinant, and classify follows its factor shape and the brute-force
    # degree of the minimal polynomial, with the distinct roots in the order
    # cubic_shape lists them
    spec = field(q)
    for a in _typed_samples(q):
        f = fc.charpoly(a)
        assert f == _ref_charpoly(spec, a)
        shape = cubic_shape(f)
        label = fc.classify(a)
        assert label.tag == CASE_OF_SHAPE[shape.tag, _minimal_degree(spec, _power_columns(spec, a))]
        assert label.roots == tuple(dict.fromkeys(shape.roots))
        assert label.quad == shape.quad


def _low_rank_rows(spec, rng):
    """A seeded 3x3 matrix of rank at most 0, 1, 2 or 3, the bound drawn
    at random, as integer rows: combinations of that many random rows."""
    q = spec.q
    basis = [[rng.randrange(q) for _ in range(3)] for _ in range(rng.randrange(4))]
    rows = []
    for _ in range(3):
        row = [0, 0, 0]
        for b in basis:
            c = rng.randrange(q)
            row = [spec._add[x][spec._mul[c][y]] for x, y in zip(row, b)]
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_kernel_vectors_are_the_brute_force_null_space(q):
    # every matrix at q = 2, 3, seeded matrices of every rank above; the
    # first two rows of each as well; vectors in base-q order
    spec = field(q)
    vectors = [(n % q, n // q % q, n // (q * q)) for n in range(1, q**3)]
    if q <= 3:
        matrices = [a.rows_int for a in _matrices3(q)]
    else:
        rng = random.Random(q * 17)
        matrices = [_low_rank_rows(spec, rng) for _ in range(200 if q <= 5 else 40)]
    null = {}

    def brute(rows):
        for row in rows:
            if row not in null:
                null[row] = {v for v in vectors if not _dot(spec, row, v)}
        return [v for v in vectors if all(v in null[row] for row in rows)]

    ranks = set()
    for rows in matrices:
        expected = brute(rows)
        assert list(fc._kernel_vectors(rows, spec)) == expected, rows
        assert list(fc._kernel_vectors(rows[:2], spec)) == brute(rows[:2]), rows
        ranks.add(3 - {0: 0, q - 1: 1, q * q - 1: 2, q**3 - 1: 3}[len(expected)])
    assert ranks == {0, 1, 2, 3}
    assert list(fc._kernel_vectors((), spec)) == vectors


def test_classify_examples():
    spec2 = field(2)
    comp = fc._companion(UniPoly(spec2, (1, 1, 0, 1)))  # t^3 + t + 1, irreducible
    assert fc.classify(comp).tag == fc.CASE_NONSINGULAR

    spec7 = field(7)
    assert fc.classify(fc.Matrix3.diagonal(spec7, 0, 1, 2)).tag == fc.CASE_2

    assert fc.classify(fc.Matrix3.identity(spec7)).tag == fc.CASE_4_3


def test_classify_invariant_under_equivalence():
    rng = random.Random(41)
    for q in (2, 3, 4):
        spec = field(q)
        for _ in range(40):
            a = rand_matrix3(spec, rng)
            b = rand_invertible3(spec, rng)
            rho = rng.randrange(1, q)
            mu = rng.randrange(q)
            bt = b.transpose()
            other = (bt @ a @ bt.inverse()).scale(rho) + fc.Matrix3.identity(spec).scale(mu)
            assert fc.classify(a).tag == fc.classify(other).tag


def canonical_samples(spec):
    """One canonical matrix per case present over the field."""
    out = []
    seen = set()
    for rep in fc.equivalence_representatives(spec):
        if rep.tag not in seen:
            seen.add(rep.tag)
            out.append((rep.tag, rep.matrix))
    return out


def test_rcf_similarity_fixes_canonical_forms():
    for q in (2, 3, 4, 5):
        spec = field(q)
        ident = fc.Matrix3.identity(spec)
        for tag, c in canonical_samples(spec):
            got_c, got_s = fc.rcf_similarity(c)
            assert got_c.rows_int == c.rows_int
            assert got_s.rows_int == ident.rows_int


def test_rcf_similarity_random_sweep():
    rng = random.Random(43)
    for q in (2, 3, 4, 5):
        spec = field(q)
        for _ in range(60):
            a = rand_matrix3(spec, rng)
            c, s = fc.rcf_similarity(a)
            assert (s @ a @ s.inverse()).rows_int == c.rows_int
            # conjugates land on the same canonical form
            p = rand_invertible3(spec, rng)
            conj = p @ a @ p.inverse()
            c2, s2 = fc.rcf_similarity(conj)
            assert c2.rows_int == c.rows_int
            assert (s2 @ conj @ s2.inverse()).rows_int == c2.rows_int


def _ref_basis(spec, a, label):
    """The columns of S^-1 by the construction rcf_similarity documents,
    each vector the first suitable one of a brute-force null space listed in
    base-q order."""
    q = spec.q
    vectors = [(n % q, n // q % q, n // (q * q)) for n in range(1, q**3)]

    def image(m, v):
        return tuple(_dot(spec, row, v) for row in m)

    def shift(m, alpha):
        return [[spec._sub[v][alpha] if i == j else v for j, v in enumerate(row)] for i, row in enumerate(m)]

    def null(m):
        return [v for v in vectors if not any(image(m, v))]

    def apart(u, v):
        return all(tuple(spec._mul[c][x] for x in u) != v for c in range(q))

    rows = a.rows_int
    roots = [r.val for r in label.roots]
    if label.tag == fc.CASE_NONSINGULAR:
        v1 = (1, 0, 0)
        v2 = image(rows, v1)
        return v1, v2, image(rows, v2)
    if label.tag == fc.CASE_1:
        g0, g1, _one = label.quad.coeffs
        g_a = [
            [spec._add[spec._add[x][spec._mul[g1][y]]][g0 if i == j else 0] for j, (x, y) in enumerate(zip(r2, r))]
            for i, (r2, r) in enumerate(zip(_ref_product(spec, rows, rows), rows))
        ]
        v1 = null(g_a)[0]
        return v1, image(rows, v1), null(shift(rows, roots[0]))[0]
    if label.tag == fc.CASE_2:
        return tuple(null(shift(rows, r))[0] for r in roots)
    n = shift(rows, roots[0])
    if label.tag == fc.CASE_3_1:
        v2 = next(v for v in null(_ref_product(spec, n, n)) if any(image(n, v)))
        return image(n, v2), v2, null(shift(rows, roots[1]))[0]
    if label.tag == fc.CASE_3_2:
        kern = null(n)
        return kern[0], next(v for v in kern if apart(kern[0], v)), null(shift(rows, roots[1]))[0]
    if label.tag == fc.CASE_4_1:
        n2 = _ref_product(spec, n, n)
        v3 = next(v for v in vectors if any(image(n2, v)))
        v2 = image(n, v3)
        return image(n, v2), v2, v3
    assert label.tag == fc.CASE_4_2
    v2 = next(v for v in vectors if any(image(n, v)))
    v1 = image(n, v2)
    return v1, v2, next(v for v in null(n) if apart(v1, v))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_rcf_similarity_is_the_reference_construction(q):
    # every non-scalar matrix at q = 2, 3, seeded at q >= 4: S times the
    # matrix with the reference columns is E
    spec = field(q)
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    for a in _typed_samples(q):
        if a.is_scalar():
            continue
        _c, s = fc.rcf_similarity(a)
        basis = _ref_basis(spec, a, fc.classify(a))
        assert _ref_product(spec, s.rows_int, list(zip(*basis))) == ident


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_shift_basis_is_the_basis_of_each_orbit_member(q):
    # every orbit R + mu E (a22 = 0 in R) at q = 2, 3, 2,000 seeded orbits
    # at q >= 4: each member's label is R's shifted by mu, and the basis
    # derived from R's is the member's own
    spec = field(q)
    if q <= 3:
        reps = range(q**8)
    else:
        reps = random.Random(q).sample(range(q**8), 2000)
    identity = fc.Matrix3.identity(spec)
    derived = set()
    for n in reps:
        r = fc.Matrix3.from_ints(spec, base_digits(n, q, 9))
        label = fc.classify(r)
        basis = None if r.is_scalar() else fc._basis(r, label)
        for mu in range(1, q):
            a = r + identity.scale(mu)
            shifted = fc.classify(a)
            got = None if basis is None else fc._shift_basis(basis, label, shifted, mu, spec)
            if label.tag in (fc.CASE_NONSINGULAR, fc.CASE_4_3):
                assert got is None if label.tag == fc.CASE_NONSINGULAR else got == basis
                continue
            assert got == fc._basis(a, shifted), (r.to_ints(), mu)
            derived.add(label.tag)
    if q <= 3:
        cases = {fc.CASE_1, fc.CASE_3_1, fc.CASE_3_2, fc.CASE_4_1, fc.CASE_4_2}
        assert derived == (cases if q == 2 else cases | {fc.CASE_2})


def test_shift_basis_refuses_a_label_that_is_not_the_shift():
    spec = field(3)
    r = fc.Matrix3.from_ints(spec, [1, 1, 0, 1, 0, 0, 0, 0, 0])  # case 1
    label = fc.classify(r)
    basis = fc._basis(r, label)
    shifted = fc.classify(r + fc.Matrix3.identity(spec))
    assert fc._shift_basis(basis, label, shifted, 1, spec) is not None
    wrong_quad = fc.CaseLabel(fc.CASE_1, shifted.roots, label.quad)
    wrong_root = fc.CaseLabel(fc.CASE_1, label.roots, shifted.quad)
    wrong_tag = fc.CaseLabel(fc.CASE_3_1, shifted.roots, shifted.quad)
    for other in (wrong_quad, wrong_root, wrong_tag):
        assert fc._shift_basis(basis, label, other, 1, spec) is None


def test_case2_residual_coefficients_sum_to_zero():
    spec = field(5)
    a = fc.Matrix3.diagonal(spec, 1, 2, 4)
    plan = fc.predicted_decomposition(a)
    eq = plan.residual.equation
    coeffs = [eq.terms.get((4, 0, 0), 0), eq.terms.get((0, 4, 0), 0), eq.terms.get((0, 0, 4), 0)]
    assert all(coeffs)
    total = 0
    for c in coeffs:
        total = spec._add[total][c]
    assert total == 0
    assert plan.residual.kind == fc.RESIDUAL_MAX_Q_MINUS_1
    assert plan.residual.expected_points == (5 - 2) * 5 + 1


def test_case41_residual_matches_the_degree_qplus1_maximal_curve():
    for q in (2, 3, 4):
        spec = field(q)
        nilp = fc.Matrix3.from_ints(spec, [0, 1, 0, 0, 0, 1, 0, 0, 0])
        plan = fc.predicted_decomposition(nilp)
        g = plan.residual.equation
        assert g == HomogPoly(
            spec, q + 1,
            {(1, 0, q): 1, (q, 0, 1): spec.neg(1), (q - 1, 2, 0): 1, (0, q + 1, 0): spec.neg(1)},
        )
        # -g(-z, x, y) is the canonical maximal curve of degree q+1
        to_zxy = fc.Matrix3.from_ints(spec, [0, 0, spec.neg(1), 1, 0, 0, 0, 1, 0])
        image = -linear_substitute(g, to_zxy)
        maximal = HomogPoly(
            spec, q + 1,
            {(q + 1, 0, 0): 1, (2, 0, q - 1): spec.neg(1), (0, q, 1): 1, (0, 1, q): spec.neg(1)},
        )
        assert image == maximal


def test_case42_plan_is_double_line_plus_fan():
    spec = field(3)
    a = fc.Matrix3.from_ints(spec, [0, 1, 0, 0, 0, 0, 0, 0, 0])
    plan = fc.predicted_decomposition(a)
    assert plan.residual is None
    assert plan.concurrency == fc.CONCURRENT_ALL
    mults = sorted(m for _, m in plan.lines)
    assert mults == [1] * 3 + [2]


def test_plan_components_multiply_to_curve():
    for q in (2, 3, 4):
        spec = field(q)
        for tag, c in canonical_samples(spec):
            if tag == fc.CASE_NONSINGULAR:
                continue
            plan = fc.predicted_decomposition(c)
            product = HomogPoly(spec, 0, {(0, 0, 0): 1})
            for line, mult in plan.lines:
                for _ in range(mult):
                    product = product * line
            if plan.residual is not None:
                product = product * plan.residual.equation
            assert scalar_ratio(fc.build_FA(c), product) is not None
            total = sum(m for _, m in plan.lines) + (
                plan.residual.degree if plan.residual else 0
            )
            assert total == q + 2


def _plan_labels(spec):
    """Every case label over the field but the nonsingular one."""
    q = spec.q
    labels = [
        label
        for n in range(q**3)
        for label, _m in fc._case_labels(UniPoly(spec, base_digits(n, q, 3) + (1,)))
        if label.tag != fc.CASE_NONSINGULAR
    ]
    return labels + [fc.CaseLabel(fc.CASE_4_3, (spec.element(a),)) for a in range(q)]


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_memoized_canonical_plan_is_a_fresh_plan(q):
    spec = field(q)
    labels = _plan_labels(spec)
    assert {label.tag for label in labels} >= {
        fc.CASE_1, fc.CASE_3_1, fc.CASE_3_2, fc.CASE_4_1, fc.CASE_4_2, fc.CASE_4_3
    }
    memo = [fc.canonical_plan(spec, label) for label in labels]
    for label, plan in zip(labels, memo):
        assert fc.canonical_plan(spec, label) is plan
        assert plan == fc.canonical_plan.__wrapped__(spec, label)
        assert plan.basis is None


def test_predicted_decomposition_rejects_irreducible_case():
    spec = field(2)
    comp = fc._companion(UniPoly(spec, (1, 1, 0, 1)))
    with pytest.raises(ValueError):
        fc.predicted_decomposition(comp)


def test_scalar_matrix_gets_zero_plan():
    spec = field(3)
    plan = fc.predicted_decomposition(fc.Matrix3.identity(spec).scale(2))
    assert not plan.lines and plan.residual is None and plan.concurrency is None


def test_equiv_key_scalars():
    spec = field(3)
    e = fc.Matrix3.identity(spec)
    assert fc.equiv_key(e) == fc.equiv_key(e.scale(2))
    assert fc.equiv_key(e).scalar


def test_equiv_key_invariance():
    rng = random.Random(47)
    for q in (2, 3, 4):
        spec = field(q)
        ident = fc.Matrix3.identity(spec)
        for _ in range(50):
            a = rand_matrix3(spec, rng)
            if a.is_scalar():
                continue
            b = rand_invertible3(spec, rng)
            rho = rng.randrange(1, q)
            mu = rng.randrange(q)
            bt = b.transpose()
            other = (bt @ a @ bt.inverse()).scale(rho) + ident.scale(mu)
            assert fc.equiv_key(a) == fc.equiv_key(other)


def test_equiv_key_cross_ratio_orbit():
    spec = field(5)
    keys = {
        fc.equiv_key(fc.Matrix3.diagonal(spec, 0, 1, lam)).key for lam in (2, 3, 4)
    }
    assert len(keys) == 1


MINPOLY_DEGREE = {
    fc.CASE_NONSINGULAR: 3, fc.CASE_1: 3, fc.CASE_2: 3, fc.CASE_3_1: 3,
    fc.CASE_3_2: 2, fc.CASE_4_1: 3, fc.CASE_4_2: 2,
}


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_representatives_classify_as_their_tag(q):
    spec = field(q)
    for rep in fc.equivalence_representatives(spec):
        assert fc.classify(rep.matrix).tag == rep.tag
        assert fc.minpoly(rep.matrix).degree == MINPOLY_DEGREE[rep.tag]


def test_representatives_against_brute_force_q2():
    spec = field(2)
    reps = fc.equivalence_representatives(spec)
    brute: dict = {}
    for n in range(2**9):
        a = fc.Matrix3.from_ints(spec, [(n >> i) & 1 for i in range(9)])
        if a.is_scalar():
            continue
        k = fc.equiv_key(a)
        brute[k] = brute.get(k, 0) + 1
    assert len(reps) == len(brute)
    for rep in reps:
        assert brute[rep.key] == rep.orbit_size


@pytest.mark.parametrize("q", (2, 3))
def test_class_sizes_match_brute_force(q):
    spec = field(q)
    counts: dict = {}
    for n in range(q**9):
        vals = []
        m = n
        for _ in range(9):
            vals.append(m % q)
            m //= q
        a = fc.Matrix3.from_ints(spec, vals)
        key = (fc.charpoly(a).coeffs, fc.minpoly(a).coeffs)
        counts[key] = counts.get(key, 0) + 1
    for rep in fc.equivalence_representatives(spec):
        f = fc.charpoly(rep.matrix)
        m = fc.minpoly(rep.matrix)
        assert counts[(f.coeffs, m.coeffs)] == fc._class_size(spec, rep.tag)


# sha256 of repr((matrix.to_ints(), tag, orbit_size, key)) over the list,
# in order, from the enumeration that factored every monic cubic
REPRESENTATIVES_SHA256 = {
    2: "94b8a2234ee0c5e45412545201efd41609972caa3628fe372129a488b6cc8592",
    3: "ccc4944b1147573f7e36bdda830fb4aeea2678de261fe54fc590cb82c831e80d",
    4: "651d85d6b20d584e1d746a4e1dd36065890de08cbaf4515c922da6e65e5fb28a",
    5: "9e249ff6714f61d5391b6e4231e61553d0c3889f8211230caf00f479265c0d52",
    7: "199f8fc68135ba2fabf7e81b4d49aec3e1d6ab295d2e1242a8921c22bc3f2080",
    8: "2cf1608b49f8a1bb3b5235c12b82ca8c20fc07d81f42b47d49c1a85470c2541d",
    9: "05cb121fb0c047da0c15cd751dce8aa884c716c595779ff4a9c7da19b45d26c8",
    16: "b59afae496855bfab8d8a3615f670055f1dc6ccf150ddfb466ea0c63264416cd",
}


@pytest.mark.parametrize("q", sorted(REPRESENTATIVES_SHA256))
def test_representative_list_is_pinned(q):
    """The representatives, their order, tags, orbit sizes and keys are
    those of the enumeration that skips no cubic."""
    digest = hashlib.sha256()
    for rep in fc.equivalence_representatives(field_for_order(q)):
        digest.update(repr((rep.matrix.to_ints(), rep.tag, rep.orbit_size, rep.key)).encode())
    assert digest.hexdigest() == REPRESENTATIVES_SHA256[q]


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_orbit_sizes_partition_nonscalar_matrices(q):
    spec = field(q)
    total = sum(rep.orbit_size for rep in fc.equivalence_representatives(spec))
    assert total == q**9 - q


def _expanded_affine_transform(f, rho, mu):
    """rho^deg f((t - mu)/rho) expanded with polynomial arithmetic: the sum
    of a_i rho^(d-i) (t - mu)^i over the coefficients a_i of f."""
    spec = f.spec
    d = f.degree
    shifted = UniPoly(spec, (spec.neg(mu), 1))
    power = UniPoly(spec, (1,))
    out = UniPoly.zero(spec)
    for i, a in enumerate(f.coeffs):
        out = out + power.scale(spec._mul[a][spec.pow_int(rho, d - i)])
        power = power * shifted
    return out


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_affine_transform_is_the_expanded_substitution(q):
    # every (characteristic, minimal) pair of the case table, for every
    # monic cubic at q <= 5 and seeded ones above, under every (rho, mu)
    spec = field(q)
    if q <= 5:
        cubics = range(q**3)
    else:
        rng = random.Random(q + 70)
        cubics = [rng.randrange(q**3) for _ in range(25)]
    pairs = 0
    for n in cubics:
        f = UniPoly(spec, base_digits(n, q, 3) + (1,))
        for _label, m in fc._case_labels(f):
            pairs += 1
            for rho in range(1, q):
                for mu in range(q):
                    for g in (f, m):
                        assert g.affine_transform(rho, mu) == _expanded_affine_transform(g, rho, mu)
    assert pairs >= len(cubics)
