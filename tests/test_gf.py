import pytest

from planefill import gf
from planefill.gf import _is_prime as is_prime, field_for_order, make_field
from support import field

SMALL_QS = (2, 3, 4, 5, 7, 8, 9)


def test_prime_field_construction():
    gf2 = make_field(2)
    assert gf2.q == 2
    assert gf2.modulus == (0, 1)


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus_from_lex_scan():
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(9, 1)


def test_make_field_enforces_size_bound():
    with pytest.raises(ValueError):
        make_field(2, 7)


def test_bound_override(monkeypatch):
    monkeypatch.setenv("FILLCURVE_MAX_Q", "128")
    spec = make_field(2, 7)
    assert spec.q == 128
    assert spec._mul[87][spec.inv(87)] == 1


def test_field_for_order():
    assert field_for_order(8).q == 8
    assert field_for_order(9).p == 3
    with pytest.raises(ValueError):
        field_for_order(6)


def test_field_for_order_checks_the_bound_before_searching(monkeypatch):
    # the search for a prime divisor of q used to run before the bound
    # check: about a million primality tests for q = 1000003
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        if len(calls) > 64:
            raise AssertionError("primality search ran past the bound")
        return is_prime(n)

    monkeypatch.setattr(gf, "_is_prime", counting_is_prime)
    for q in (1000003, 1000000007):
        with pytest.raises(ValueError, match=f"q = {q} exceeds the configured bound 64"):
            field_for_order(q)
    assert calls == []


def test_gf4_generator_arithmetic():
    gf4 = make_field(2, 2)
    g = 2
    assert gf4._mul[g][g] == 3  # g^2 = g + 1
    assert gf4._mul[g][1] == g
    assert gf4.inv(g) == 3
    assert gf4.pow_int(g, 3) == 1


def test_prime_field_division():
    assert make_field(5).div(2, 3) == 4
    assert make_field(7).inv(3) == 5


def test_division_by_zero():
    gf3 = make_field(3)
    with pytest.raises(ZeroDivisionError):
        gf3.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        gf3.inv(0)


def test_enumeration_order():
    gf4 = make_field(2, 2)
    assert [gf4.coeffs_of(v) for v in range(4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert make_field(3, 2).coeffs_of(2 + 3 * 1) == (2, 1)


def _power(spec, a, n):
    """a^n by repeated multiplication in the table."""
    out = 1
    for _ in range(n):
        out = spec._mul[out][a]
    return out


def test_pow_conventions():
    gf4 = make_field(2, 2)
    assert gf4.pow_int(0, 0) == 1
    for a in range(gf4.q):
        assert gf4.pow_int(a, 0) == 1
        for n in range(1, 2 * gf4.q):
            assert gf4.pow_int(a, n) == _power(gf4, a, n)


@pytest.mark.parametrize("q", SMALL_QS)
def test_field_axioms_exhaustive(q):
    spec = field(q)
    add, mul, neg = spec._add, spec._mul, spec._neg
    for a in range(q):
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][spec.inv(a)] == 1
        for b in range(q):
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            assert add[spec._sub[a][b]][b] == a
            for c in range(q):
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", SMALL_QS)
def test_frobenius_and_group_order(q):
    spec = field(q)
    for a in range(q):
        assert _power(spec, a, q) == a
        if a:
            assert _power(spec, a, q - 1) == 1


@pytest.mark.parametrize("q", SMALL_QS)
def test_closure(q):
    spec = field(q)
    tables = (spec._add, spec._sub, spec._mul)
    assert all(len(table) == q and all(len(row) == q for row in table) for table in tables)
    for a in range(q):
        for b in range(q):
            assert all(0 <= table[a][b] < q for table in tables)
