"""Exact arithmetic in small finite fields GF(p^e).

Elements are encoded as the integer ``sum(c_i * p**i)`` of their
polynomial-basis coordinates, and every field operation is a table lookup,
so the heavy exhaustive sweeps elsewhere in the package stay cheap.  A
``FieldSpec`` is immutable once built and safe to share across workers.
"""

from __future__ import annotations

import os

DEFAULT_MAX_Q = 64

_FIELD_CACHE: dict[tuple[int, int], "FieldSpec"] = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# modulus search: polynomials over the prime field as low-to-high int tuples


def _gfp_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _gfp_rem(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    r = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) - 1 >= db and r:
        if r[-1] == 0:
            r.pop()
            continue
        c = (r[-1] * inv_lead) % p
        shift = len(r) - 1 - db
        for i, bc in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bc) % p
        r.pop()
    return _gfp_trim(r)


def _gfp_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p) by trial division."""
    e = len(coeffs) - 1
    if e == 1:
        return True
    if e <= 3:
        return all(
            sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
            for x in range(p)
        )
    for d in range(1, e // 2 + 1):
        for n in range(p**d):
            div = []
            x = n
            for _ in range(d):
                div.append(x % p)
                x //= p
            div.append(1)
            if not _gfp_rem(coeffs, tuple(div), p):
                return False
    return True


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over GF(p).

    Candidates t^e + c_{e-1} t^{e-1} + ... + c_0 are ordered by the tuple
    (c_{e-1}, ..., c_0); the search space is at most p^e <= 64 polynomials.
    """
    for n in range(p**e):
        digits = []
        x = n
        for _ in range(e):
            digits.append(x % p)
            x //= p
        coeffs = tuple(digits) + (1,)
        if _gfp_is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FieldElement:
    """An element of GF(p^e), identified by its integer encoding."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: "FieldSpec", val: int):
        self.spec = spec
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Polynomial-basis coordinates, low degree first."""
        return self.spec.coeffs_of(self.val)

    def is_zero(self) -> bool:
        return self.val == 0

    def _other(self, other) -> int:
        if not isinstance(other, FieldElement):
            raise ValueError(f"expected a FieldElement, got {other!r}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("operands belong to different fields")
        return other.val

    def __add__(self, other):
        return self.spec._elems[self.spec._add[self.val][self._other(other)]]

    def __sub__(self, other):
        return self.spec._elems[self.spec._sub[self.val][self._other(other)]]

    def __mul__(self, other):
        return self.spec._elems[self.spec._mul[self.val][self._other(other)]]

    def __truediv__(self, other):
        v = self._other(other)
        if v == 0:
            raise ZeroDivisionError("division by zero field element")
        return self.spec._elems[self.spec._mul[self.val][self.spec._inv[v]]]

    def __neg__(self):
        return self.spec._elems[self.spec._neg[self.val]]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent; use inverse() explicitly")
        return self.spec._elems[self.spec.pow_int(self.val, n)]

    def inverse(self) -> "FieldElement":
        if self.val == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.spec._elems[self.spec._inv[self.val]]

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.val == other.val and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec.p, self.spec.e, self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


class FieldSpec:
    """Construction data and operation tables for one field GF(p^e).

    Built through :func:`make_field`; two specs compare equal iff they have
    the same characteristic, degree and modulus.  All arithmetic methods on
    raw integer encodings (`add`, `mul`, ...) are pure table lookups.
    """

    __slots__ = (
        "p", "e", "q", "modulus",
        "_add", "_sub", "_mul", "_neg", "_inv", "_powmod", "_elems",
    )

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._build_tables()
        self._elems = tuple(FieldElement(self, v) for v in range(self.q))

    # table construction -----------------------------------------------

    def coeffs_of(self, val: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            out.append(val % self.p)
            val //= self.p
        return tuple(out)

    def _val_of(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (c % self.p)
        return v

    def _raw_mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        ca, cb = self.coeffs_of(a), self.coeffs_of(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the defining polynomial
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * self.modulus[j]) % p
        return self._val_of(prod[:e])

    def _build_tables(self):
        p, q = self.p, self.q
        add = []
        sub = []
        neg = [0] * q
        for a in range(q):
            ca = self.coeffs_of(a)
            rowa, rows = [], []
            for b in range(q):
                cb = self.coeffs_of(b)
                rowa.append(self._val_of([(x + y) % p for x, y in zip(ca, cb)]))
                rows.append(self._val_of([(x - y) % p for x, y in zip(ca, cb)]))
            add.append(rowa)
            sub.append(rows)
            neg[a] = self._val_of([(-x) % p for x in ca])
        mul = [[self._raw_mul(a, b) for b in range(q)] for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        powmod = [None] * q
        for a in range(1, q):
            row = [1]
            for _ in range(q - 2):
                row.append(mul[row[-1]][a])
            powmod[a] = row
        self._add, self._sub, self._mul = add, sub, mul
        self._neg, self._inv, self._powmod = neg, inv, powmod

    # raw integer-encoding operations ------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._sub[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        return self._mul[a][self._inv[b]]

    def pow_int(self, a: int, n: int) -> int:
        # 0**0 is defined as 1 so monomial evaluation is total
        if n == 0:
            return 1
        if a == 0:
            return 0
        return self._powmod[a][n % (self.q - 1)]

    # element access ------------------------------------------------------

    def element(self, val: int) -> FieldElement:
        if not 0 <= val < self.q:
            raise ValueError(f"encoding {val} out of range for GF({self.q})")
        return self._elems[val]

    def from_coeffs(self, coeffs) -> FieldElement:
        if len(coeffs) > self.e:
            raise ValueError("too many coordinates")
        return self._elems[self._val_of(list(coeffs) + [0] * (self.e - len(coeffs)))]

    @property
    def zero(self) -> FieldElement:
        return self._elems[0]

    @property
    def one(self) -> FieldElement:
        return self._elems[1]

    def elements(self) -> tuple[FieldElement, ...]:
        return self._elems

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


def _coerce(spec: "FieldSpec", c) -> int:
    """Integer encoding of c, which may be a FieldElement or an encoding."""
    if isinstance(c, FieldElement):
        if c.spec != spec:
            raise ValueError("element from a different field")
        return c.val
    v = int(c)
    if not 0 <= v < spec.q:
        raise ValueError(f"encoding {v} out of range for GF({spec.q})")
    return v


def max_field_size() -> int:
    """Configured bound on q; FILLCURVE_MAX_Q overrides the default of 64."""
    raw = os.environ.get("FILLCURVE_MAX_Q")
    if raw is None:
        return DEFAULT_MAX_Q
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FILLCURVE_MAX_Q must be an integer, got {raw!r}") from None


def make_field(p: int, e: int = 1) -> FieldSpec:
    """Build (or fetch the cached) GF(p^e).

    The modulus is the lexicographically smallest monic irreducible of
    degree e over GF(p), so construction is deterministic: the same (p, e)
    always produces the same field model.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be positive")
    bound = max_field_size()
    if p**e > bound:
        raise ValueError(f"q = {p**e} exceeds the configured bound {bound}")
    key = (p, e)
    spec = _FIELD_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, e, _find_modulus(p, e))
        _FIELD_CACHE[key] = spec
    return spec


def field_for_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                break
            return make_field(p, e)
    raise ValueError(f"{q} is not a prime power")

