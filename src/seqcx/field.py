"""Exact arithmetic in finite fields F_q with q = p^m.

Elements are plain integers in [0, q).  For a prime field the integer is the
residue itself; for an extension field it packs the polynomial-basis
coefficient vector (a_0, ..., a_{m-1}) as sum(a_i * p**i).  Index 0 is the
additive identity and index 1 the multiplicative identity.

A Field instance is immutable after construction and all operations are pure,
so instances can be shared freely between threads or worker processes.
"""

from __future__ import annotations

from itertools import product

# Desk-scale cap: everything here targets small fields, no lookup tables.
PRIME_POWER_CAP = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Euclidean division in F_p[x]; coefficient lists are constant-first."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(rem) - len(b), -1, -1):
        factor = rem[i + len(b) - 1] * inv_lead % p
        if factor:
            quo[i] = factor
            for j, bj in enumerate(b):
                rem[i + j] = (rem[i + j] - factor * bj) % p
    return _trim(quo), _trim(rem)


def _is_irreducible(coeffs: tuple[int, ...], p: int, m: int) -> bool:
    """Trial division by every monic polynomial of degree 1..m//2."""
    poly = list(coeffs)
    for deg in range(1, m // 2 + 1):
        for tail in product(range(p), repeat=deg):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(poly, divisor, p)
            if not rem:
                return False
    return True


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over F_p.

    Candidates are ordered by their coefficient tuple (c_0, ..., c_{m-1}),
    which makes the default reproducible across runs.
    """
    for tail in product(range(p), repeat=m):
        candidate = tuple(tail) + (1,)
        if _is_irreducible(candidate, p, m):
            return candidate
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class Field:
    """Arithmetic context for F_q, q = p^m, with integer-indexed elements."""

    __slots__ = ("p", "m", "modulus", "q", "_reduction")

    def __init__(self, p: int, m: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > PRIME_POWER_CAP:
            raise ValueError(f"field size {p}^{m} exceeds cap {PRIME_POWER_CAP}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            if modulus:
                raise ValueError("prime fields take no modulus")
            self.modulus = ()
        else:
            if modulus is None:
                mod = _default_modulus(p, m)
            else:
                mod = tuple(c % p for c in modulus)
                if len(mod) != m + 1 or mod[-1] != 1:
                    raise ValueError(f"modulus must be monic of degree {m}")
                if not _is_irreducible(mod, p, m):
                    raise ValueError("modulus is reducible over F_p")
            self.modulus = mod
            # x^m = -(c_0 + c_1 x + ... + c_{m-1} x^{m-1}) mod the modulus
            self._reduction = tuple((-c) % p for c in mod[:m])

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"Field({self.p})"
        return f"Field({self.p}, {self.m}, modulus={list(self.modulus)})"

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element index of F_{self.q}")
        return a

    def elements(self):
        return range(self.q)

    def to_coeffs(self, a: int) -> list[int]:
        """Polynomial-basis coefficients (a_0, ..., a_{m-1}) of an element."""
        coeffs = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            coeffs.append(r)
        return coeffs

    def from_coeffs(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    # -- ring operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.m):
            out += (a % p + b % p) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.m):
            out += (-a % p) % p * shift
            a //= p
            shift *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        p = self.p
        ac = self.to_coeffs(a)
        bc = self.to_coeffs(b)
        prod = [0] * (2 * self.m - 1)
        for i, ai in enumerate(ac):
            if ai:
                for j, bj in enumerate(bc):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # fold x^{m+k} down using x^m = reduction polynomial
        for i in range(len(prod) - 1, self.m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, rj in enumerate(self._reduction):
                    prod[i - self.m + j] = (prod[i - self.m + j] + c * rj) % p
        return self.from_coeffs(prod[: self.m])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        # extended Euclid in F_p[x] against the modulus
        p = self.p
        r0, r1 = list(self.modulus), _trim(self.to_coeffs(a))
        s0, s1 = [], [1]
        while r1:
            quo, rem = _poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            # s_next = s0 - quo * s1
            conv = [0] * (len(quo) + len(s1) - 1) if quo and s1 else []
            for i, qi in enumerate(quo):
                if qi:
                    for j, sj in enumerate(s1):
                        conv[i + j] = (conv[i + j] + qi * sj) % p
            nxt = [0] * max(len(s0), len(conv))
            for i, c in enumerate(s0):
                nxt[i] = c
            for i, c in enumerate(conv):
                nxt[i] = (nxt[i] - c) % p
            s0, s1 = s1, _trim(nxt)
        # r0 is the (constant) gcd; the modulus is irreducible so deg r0 = 0
        scale = pow(r0[0], p - 2, p)
        return self.from_coeffs([c * scale % p for c in s0] + [0] * self.m)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.m == 1:
            return pow(a, e, self.p)
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, a: int, k: int) -> int:
        """a^(p^k); the identity on prime fields and on 0."""
        if k < 0:
            raise ValueError("frobenius iteration count must be >= 0")
        if a == 0 or self.m == 1:
            return a
        return self.pow(a, pow(self.p, k, self.q - 1))
