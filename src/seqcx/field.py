"""Exact arithmetic in finite fields F_q with q = p^m.

Elements are plain integers in [0, q).  For a prime field the integer is the
residue itself; for an extension field it packs the polynomial-basis
coefficient vector (a_0, ..., a_{m-1}) as sum(a_i * p**i).  Index 0 is the
additive identity and index 1 the multiplicative identity.

Prime fields compute with native ``% p`` arithmetic.  Extension fields are
table-driven: each Field builds, once, the powers ``exp`` of the primitive
element g with the smallest index (stored twice over, so a sum of two logs
needs no reduction), their discrete logarithms ``log`` and, for odd p, the
Zech logarithms ``zech[k] = log(1 + g^k)``.  Products, quotients, inverses,
powers and Frobenius maps are then table lookups; sums are XOR when p = 2
and a Zech lookup otherwise.

A Field instance is immutable after construction and all operations are pure,
so instances can be shared freely between threads or worker processes.
"""

from __future__ import annotations

from array import array
from itertools import product
from math import gcd

# Largest q supported.  An extension field holds 12 bytes of tables per
# element (16 for odd p): 12 MiB for F_{2^20}.
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
    which makes the default reproducible across runs.  Candidates with
    c_0 = 0 are divisible by x, so the search starts at c_0 = 1.
    """
    for tail in product(range(1, p), *[range(p)] * (m - 1)):
        candidate = tuple(tail) + (1,)
        if _is_irreducible(candidate, p, m):
            return candidate
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _digits(a: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        a, r = divmod(a, p)
        out.append(r)
    return out


def _shifted(vec: list[int], p: int) -> list[int]:
    """Entry i is the index of digits(i) + vec, digit by digit mod p."""
    table = [0]
    scale = 1
    for v in vec:
        table = [t + scale * ((b + v) % p) for b in range(p) for t in table]
        scale *= p
    return table


def _times_x(p: int, m: int, modulus: tuple[int, ...]):
    """The map from the index of a to the index of x * a, for m >= 2."""
    q = p**m
    if p == 2:
        poly = sum(c << i for i, c in enumerate(modulus))

        def step(a):
            a <<= 1
            return a ^ poly if a & q else a

        return step
    # x^m = red_0 + red_1 x + ... + red_{m-1} x^{m-1}
    red = [(-c) % p for c in modulus[:m]]
    if m == 2:  # direct: the lookup tables below would need p^2 = q entries
        r0, r1 = red

        def step(a):
            t, r = divmod(a, p)
            return t * r0 % p + p * ((r + t * r1) % p)

        return step
    # x * a = p * r + t * red digit by digit, where t is a's top digit and r
    # its lower m-1 digits; the sum is two lookups, one per half of r, in
    # tables indexed by t and that half.
    top = q // p
    half = (m - 1) // 2
    low = p**half
    high = top // low
    lo_tab, hi_tab = [], []
    for t in range(p):
        v = [t * c % p for c in red]
        lo_tab += [v[0] + p * s for s in _shifted(v[1 : half + 1], p)]
        hi_tab += [p * low * s for s in _shifted(v[half + 1 :], p)]

    def step(a):
        t, r = divmod(a, top)
        hi, lo = divmod(r, low)
        return lo_tab[t * low + lo] + hi_tab[t * high + hi]

    return step


def _log_tables(p: int, m: int, modulus: tuple[int, ...]) -> tuple[array, array]:
    """exp (length 2(q-1)) and log (log[0] = -1) over the primitive element
    with the smallest index, in O(q) steps."""
    q = p**m
    q1 = q - 1
    step = _times_x(p, m, modulus)
    # Walk the cosets y_c <x> in turn, y_c the smallest index not yet seen:
    # x^j * y_c lands in exp[q1 + c*d + j] and its position c*d + j in log.
    exp = array("I", bytes(8 * q1))
    log = array("i", [-1]) * q
    n = 0
    cosets = 0
    rep = 1
    while n < q1:
        while log[rep] >= 0:
            rep += 1
        cosets += 1
        a = rep
        while log[a] < 0:
            log[a] = n
            exp[q1 + n] = a
            n += 1
            a = step(a)
    if cosets == 1:  # x is primitive: exp and log are the powers of x
        exp[:q1] = exp[q1:]
        return exp, log
    d = q1 // cosets  # the order of x; d > m since x^m != 1

    def times(b, c):
        """b * y_c as (coset, exponent): the sum of b_i * x^i * y_c."""
        acc = [0] * m
        for i, bi in enumerate(_digits(b, p, m)):
            if bi:
                for k, v in enumerate(_digits(exp[q1 + c * d + i], p, m)):
                    acc[k] = (acc[k] + bi * v) % p
        return divmod(log[sum(v * p**k for k, v in enumerate(acc))], d)

    # g is primitive iff its powers reach the coset <x> first after
    # `cosets` steps, at g^cosets = x^j with gcd(j, d) = 1.
    for g in range(p, q):
        moves = {}
        c = j = 0
        for steps in range(1, cosets + 1):
            if c not in moves:
                moves[c] = times(g, c)
            c, t = moves[c]
            j = (j + t) % d
            if c == 0:
                break
        if steps == cosets and gcd(j, d) == 1:
            break
    nxt = [moves[c][0] for c in range(cosets)]
    shift = [moves[c][1] for c in range(cosets)]
    c = j = 0
    for k in range(q1):
        a = exp[q1 + c * d + j]
        exp[k] = a
        log[a] = k
        j += shift[c]
        if j >= d:
            j -= d
        c = nxt[c]
    exp[q1:] = exp[:q1]
    return exp, log


def _zech_table(p: int, q: int, exp: array, log: array) -> array:
    """zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0 (odd p)."""
    top = p - 1
    zech = array("i", bytes(4 * (q - 1)))
    for k in range(q - 1):
        a = exp[k]
        # adding 1 changes only the constant digit
        zech[k] = log[a - top if a % p == top else a + 1]
    return zech


def check_field_size(p: int, m: int) -> None:
    """Reject a field F_{p^m} above PRIME_POWER_CAP, before any trial
    division of p and without computing a huge p^m (p >= 2 gives
    p^m >= 2^m).  A p below 2 is left to the primality check."""
    if p > PRIME_POWER_CAP or (
        p >= 2 and (m >= PRIME_POWER_CAP.bit_length() or p**m > PRIME_POWER_CAP)
    ):
        raise ValueError(f"field size {p}^{m} exceeds cap {PRIME_POWER_CAP}")


class Field:
    """Arithmetic context for F_q, q = p^m, with integer-indexed elements."""

    __slots__ = ("p", "m", "modulus", "q", "_exp", "_log", "_zech")

    def __init__(self, p: int, m: int = 1, modulus=None):
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        check_field_size(p, m)
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        self._exp = self._log = self._zech = None
        if m == 1:
            if modulus:
                raise ValueError("prime fields take no modulus")
            self.modulus = ()
            return
        if modulus is None:
            mod = _default_modulus(p, m)
        else:
            mod = tuple(c % p for c in modulus)
            if len(mod) != m + 1 or mod[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            if not _is_irreducible(mod, p, m):
                raise ValueError("modulus is reducible over F_p")
        self.modulus = mod
        self._exp, self._log = _log_tables(p, m, mod)
        if p != 2:
            self._zech = _zech_table(p, q, self._exp, self._log)

    def __eq__(self, other):
        if self is other:
            return True
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
        return _digits(a, self.p, self.m)

    def from_coeffs(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    # -- ring operations ---------------------------------------------------
    #
    # Logs lie in [0, q-2] and exp has length 2(q-1), so exp[la + lb] needs
    # no reduction, and a negative index -l < 0 reads g^(2(q-1) - l) = g^-l.

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        # g^i + g^j = g^i (1 + g^(j-i)); zech[j - i] wraps round when j < i
        i = self._log[a]
        z = self._zech[self._log[b] - i]
        return self._exp[i + z] if z >= 0 else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        # -1 = g^((q-1)/2) for odd q
        return self._exp[self._log[a] + (self.q >> 1)]

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[-self._log[a]]

    def div(self, a: int, b: int) -> int:
        if self.m == 1:
            return self.mul(a, self.inv(b))
        if b == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if not a:
            return 0
        log = self._log
        return self._exp[log[a] - log[b]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.m == 1:
            return pow(a, e, self.p)
        if not a:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def frobenius(self, a: int, k: int) -> int:
        """a^(p^k); the identity on prime fields and on 0."""
        if k < 0:
            raise ValueError("frobenius iteration count must be >= 0")
        if a == 0 or self.m == 1:
            return a
        return self.pow(a, pow(self.p, k, self.q - 1))
