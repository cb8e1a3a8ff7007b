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
    a = spec.element(87)
    assert (a * a.inverse()).val == 1


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
    g = gf4.element(2)
    assert (g * g).val == 3  # g^2 = g + 1
    assert g * gf4.one == g
    assert g.inverse().val == 3
    assert (g ** 3).val == 1


def test_prime_field_division():
    gf5 = make_field(5)
    assert (gf5.element(2) / gf5.element(3)).val == 4
    gf7 = make_field(7)
    assert gf7.element(3).inverse().val == 5


def test_division_by_zero():
    gf3 = make_field(3)
    with pytest.raises(ZeroDivisionError):
        gf3.element(1) / gf3.zero
    with pytest.raises(ZeroDivisionError):
        gf3.zero.inverse()


def test_mixed_field_operands_rejected():
    a = make_field(3).element(1)
    b = make_field(5).element(1)
    with pytest.raises(ValueError):
        a + b


def test_enumeration_order():
    assert [e.val for e in make_field(2).elements()] == [0, 1]
    gf4 = make_field(2, 2)
    assert [e.val for e in gf4.elements()] == [0, 1, 2, 3]
    assert [e.coeffs for e in gf4.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert len(make_field(3, 2).elements()) == 9


def test_pow_conventions():
    gf4 = make_field(2, 2)
    assert (gf4.zero ** 0).val == 1
    for a in gf4.elements():
        assert a ** 0 == gf4.one
    with pytest.raises(ValueError):
        gf4.element(2) ** -1


@pytest.mark.parametrize("q", SMALL_QS)
def test_field_axioms_exhaustive(q):
    spec = field(q)
    elems = spec.elements()
    zero, one = spec.zero, spec.one
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a.val:
            assert a * a.inverse() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q", SMALL_QS)
def test_frobenius_and_group_order(q):
    spec = field(q)
    for a in spec.elements():
        assert a ** q == a
        if a.val:
            assert (a ** (q - 1)).val == 1


@pytest.mark.parametrize("q", SMALL_QS)
def test_closure(q):
    spec = field(q)
    vals = {e.val for e in spec.elements()}
    assert len(vals) == q
    for a in spec.elements():
        for b in spec.elements():
            assert (a + b).val in vals
            assert (a * b).val in vals
            assert (a - b).val in vals


def test_serialization():
    gf9 = make_field(3, 2)
    assert gf9.to_json() == {"p": 3, "e": 2, "modulus": [1, 0, 1]}
    a = gf9.from_coeffs((2, 1))
    assert a.val == 2 + 3 * 1
    assert gf9.element(a.val) == a
