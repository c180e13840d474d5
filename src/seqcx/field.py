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

An extension field builds its tables in one walk of g.  Multiplying by g
is F_p-linear, so each step adds two looked-up products, of g with the low
and with the high half of the digits.  For p = 2 the sum is one XOR.  For
odd p the products are written with base-(2p - 1) digits, so an integer sum
keeps the digit sums apart, and two more lookups reduce them mod p.
F_{2^14} and F_{2^16} instead build from their subfield of half the
degree (see _tables_gf2_subfield).

The engines' inner loops go through four bulk kernels: dot, axpy, and
sparse_dot and sparse_axpy on rows held as {index: coefficient} dicts.  On
a prime field, at every p, they multiply and add in integers and reduce
mod p once per result: once per call for the two dots, once per written
entry for the two axpys.  An extension field with q <= TABLE_CAP builds
operation tables add[a][b] and mul[a][b] in __init__, beside exp and log
(products from exp/log, sums by XOR for p = 2 and from zech for odd p),
and its kernels read them; above the cap they call add and mul per
element.  Only the Field knows which.

Every table is built in __init__, so a Field instance is immutable after
construction and all operations are pure: instances can be shared freely
between threads or worker processes.  A pickled Field carries all its
tables, the operation tables included (about 268 KB for F_{2^8}, against
787 KB of log tables for F_{2^16}).
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from itertools import product
from operator import itemgetter, mul as _times

# Largest q supported.  An extension field holds 12 bytes of tables per
# element (16 for odd p): 12 MiB for F_{2^20}.
PRIME_POWER_CAP = 1 << 20

# Largest q of an extension field with operation tables: two q x q lists of
# small ints, about 1 MiB at q = 256.
TABLE_CAP = 256


def is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


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
    if p == 2:
        return _is_irreducible_gf2(_pack_gf2(coeffs), m)
    poly = list(coeffs)
    for deg in range(1, m // 2 + 1):
        for tail in product(range(p), repeat=deg):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(poly, divisor, p)
            if not rem:
                return False
    return True


def _pack_gf2(coeffs) -> int:
    """A polynomial over F_2 as an int, bit i holding the coefficient of x^i."""
    return sum(c << i for i, c in enumerate(coeffs))


def _is_irreducible_gf2(poly: int, m: int) -> bool:
    """_is_irreducible for p = 2 on bit-packed polynomials, by Ben-Or's
    test: poly, of degree m, has a factor of degree i <= m // 2 exactly when
    it shares one with x^(2^i) - x."""
    r = 2  # x^(2^i) mod poly
    for _ in range(m // 2):
        r = _mulmod_gf2(r, r, poly, m)
        a, b = poly, r ^ 2
        while b:  # a, b = b, a mod b
            width = b.bit_length()
            shift = a.bit_length() - width
            while shift >= 0:
                a ^= b << shift
                shift = a.bit_length() - width
            a, b = b, a
        if a != 1:
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


def _reduced(p: int, base: int, scale: int, width: int) -> list[int]:
    """Entry s is scale times the index of the element whose digits are the
    `width` base-`base` digits of s, each taken mod p."""
    table = [0]
    for _ in range(width):
        table = [t + d % p * scale for d in range(base) for t in table]
        scale *= p
    return table


def _span(vectors: list[list[int]], p: int, base: int) -> list[int]:
    """Entry i is the sum of d_k * vectors[k] over the base-p digits d_k of
    i, reduced mod p digit by digit and read as a base-`base` integer."""
    sums = [[0] * len(vectors[0])]
    for v in vectors:
        sums = [
            [(a + d * b) % p for a, b in zip(w, v)] for d in range(p) for w in sums
        ]
    weights = [base**i for i in range(len(vectors[0]))]
    return [sum(c * w for c, w in zip(s, weights)) for s in sums]


def _mulmod_gf2(a: int, b: int, poly: int, m: int) -> int:
    """a * b modulo poly, of degree m, on bit-packed polynomials over F_2."""
    top = 1 << m
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return acc


def _mulmod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """a * b modulo modulus on coefficient lists over F_p, constant first."""
    prod = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _poly_divmod(_trim([c % p for c in prod]), modulus, p)[1]


def _power(a, e: int, mul):
    """a^e for e >= 1 by square-and-multiply under the product mul."""
    out = a
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _primitive_element(p: int, m: int, modulus: tuple[int, ...]) -> int:
    """The least index g >= p with g^((q-1)/r) != 1 for every prime r | q-1.

    Indices below p are F_p, which holds no primitive element when m >= 2.
    """
    q1 = p**m - 1
    exponents = [q1 // r for r in _prime_factors(q1)]
    if p == 2:
        mul = partial(_mulmod_gf2, poly=_pack_gf2(modulus), m=m)
        one = 1
    else:
        mul = partial(_mulmod, modulus=modulus, p=p)
        one = [1]
    g = p
    while True:
        a = g if p == 2 else _trim(_digits(g, p, m))
        if all(_power(a, e, mul) != one for e in exponents):
            return g
        g += 1


def _span_gf2(vectors: list[int]) -> list[int]:
    """Entry i is the XOR of vectors[t] over the bits t of i."""
    out = [0]
    for v in vectors:
        out += [a ^ v for a in out]
    return out


def _invert_gf2(columns: list[int]) -> list[int]:
    """inverse[t], the bits j whose columns[j] XOR to 1 << t, for linearly
    independent bit-packed columns, by Gauss-Jordan elimination."""
    rows = [(c, 1 << j) for j, c in enumerate(columns)]  # (image, preimage)
    for t in range(len(rows)):
        k = next(k for k in range(t, len(rows)) if rows[k][0] >> t & 1)
        rows[t], rows[k] = rows[k], rows[t]
        v, w = rows[t]
        rows = [
            (u ^ v, x ^ w) if r != t and u >> t & 1 else (u, x)
            for r, (u, x) in enumerate(rows)
        ]
    return [w for _, w in rows]


def _native(typecode: str, data) -> array:
    """An array of 4-byte items read from little-endian bytes."""
    out = array(typecode, data)
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _times_gf2(c: int, m: int, poly: int) -> tuple[list[int], list[int]]:
    """lo and hi with c * a = lo[low m // 2 bits of a] ^ hi[the rest] over
    F_2[x]/(poly): multiplying by c is F_2-linear, so these are the
    products of c with every element over those bits."""
    basis = [c]  # x^i * c
    for _ in range(m - 1):
        b = basis[-1] << 1
        basis.append(b ^ poly if b >> m else b)
    return _span_gf2(basis[: m // 2]), _span_gf2(basis[m // 2 :])


def _tables_gf2_subfield(g: int, m: int, poly: int) -> tuple[array, array]:
    """exp and log of F_{2^m}, m = 14 or 16, from its subfield K = F_{2^h},
    h = m / 2, in passes of C over blocks of 2^12 entries.

    K* is generated by c = g^s, s = 2^h + 1, and {1, g} is a basis over K:
    every element is a = a0 + a1 g with a0, a1 in K, and an F_2-linear map
    takes a to the bits of a0 and a1 in the basis c^j, c^j g (j < h).

    exp: g^(s i + j) = c^i g^j.  Over i, the a0 (and the a1) of c^i g^j
    runs through the powers of c from the log_K of that of g^j on, a
    rotation of K's exp table.  The linear map back to positions reads the
    bytes of a0 and a1 by bytes.translate and XORs them in 32-bit lanes.

    log: where a0 and a1 are nonzero, a = a0 (1 + t g) with t = a1 / a0, so
    log a = s log_K a0 + lam[d] with d = log_K a1 - log_K a0 mod 2^h - 1,
    and lam[d] = log(1 + c^d g) is read off g^2 .. g^(s - 1), one element
    per value of d.  The position r * 256 + b has the coordinates of b XOR
    those of r * 256, so log_K a0 and log_K a1 come by bytes.translate 256
    at a time.  The sums mod 2^h - 1 run in 16-bit lanes of one int, and
    lam = s alpha + beta with beta < s keeps the last one below q - 1.  The
    elements of K* and g K*, where a1 or a0 is 0, are set one at a time.

    F_{2^16} builds in about 5 ms this way, its default-modulus search
    included, half the time of its walk, into 0.75 MiB of tables.  Below
    F_{2^14} the walk is as fast, and a half of F_{2^18} or F_{2^20} no
    longer fits a byte.
    """
    h = m // 2
    q = 1 << m
    q1 = q - 1
    s = (1 << h) + 1
    k1 = (1 << h) - 1  # the order of K*
    g_lo, g_hi = _times_gf2(g, m, poly)
    powers = [1]  # g^0 .. g^s
    for _ in range(s):
        a = powers[-1]
        powers.append(g_lo[a & (1 << h) - 1] ^ g_hi[a >> h])
    mul = partial(_mulmod_gf2, poly=poly, m=m)
    basis = [1]  # c^j, then c^j g
    for _ in range(h):
        basis.append(mul(basis[-1], powers[s]))
    c_h = basis.pop()
    basis += [mul(b, g) for b in basis]
    # the coordinates of each position: a0 in the low byte, a1 in the high
    coords = [w & k1 | (w >> h) << 8 for w in _invert_gf2(basis)]
    lo, hi = _span_gf2(coords[:8]), _span_gf2(coords[8:])

    exp_k = bytearray(k1)  # the bits of c^i in the basis c^j
    log_k = bytearray(256)
    top = lo[c_h & 255] ^ hi[c_h >> 8]  # c^h is in K: a1 = 0
    x = 1
    for i in range(k1):
        exp_k[i] = x
        log_k[x] = i
        x <<= 1
        if x >> h:
            x ^= (1 << h) ^ top
    exp_k *= 2
    e0, e1 = bytearray(q1), bytearray(q1)  # a0 and a1 of each g^k
    alpha, beta = bytearray(256), [0] * 256  # lam = s alpha + beta
    for j, a in enumerate(powers[:s]):
        w = lo[a & 255] ^ hi[a >> 8]
        a0, a1 = w & 255, w >> 8
        if a0:
            e0[j::s] = exp_k[log_k[a0] : log_k[a0] + k1]
        if a1:
            e1[j::s] = exp_k[log_k[a1] : log_k[a1] + k1]
        if a0 and a1:
            d = (log_k[a1] - log_k[a0]) % k1
            alpha[d], beta[d] = divmod((j - s * log_k[a0]) % q1, s)
    beta_lo = bytes([b & 255 for b in beta])
    beta_hi = bytes([b >> 8 for b in beta])

    block = 1 << 12
    images = []  # per coordinate: translate tables to the position's bytes
    for vectors in (basis[:h], basis[h:]):
        span = _span_gf2(vectors)
        tables = [bytes([v >> j & 255 for v in span]) for j in (0, 8)]
        images.append([t.ljust(256, b"\0") for t in tables])
    exp = array("I", [0]) * (2 * q1)
    for start in range(0, q1, block):
        acc = 0
        for coordinate, (to_lo, to_hi) in zip((e0, e1), images):
            part = coordinate[start : start + block]
            lanes = bytearray(4 * len(part))
            lanes[::4] = part.translate(to_lo)
            lanes[1::4] = part.translate(to_hi)
            acc ^= int.from_bytes(lanes, "little")
        stop = start + len(part)
        exp[start:stop] = exp[q1 + start : q1 + stop] = _native(
            "I", acc.to_bytes(4 * len(part), "little")
        )
    del e0, e1, coordinate  # freed first, so the peak stays below the walk's

    ramp = bytes(range(256))
    xor = [ramp]  # xor[c][b] = b ^ c
    for t in range(8):
        flip = bytes([b ^ (1 << t) for b in ramp])
        xor += [row.translate(flip) for row in xor]
    logs = [row.translate(log_k) for row in xor]  # log_K(b ^ c)
    del xor
    row0, row1 = bytes([w & 255 for w in lo]), bytes([w >> 8 for w in lo])
    ones = int.from_bytes(b"\1\0" * block, "little")
    mask = k1 * ones
    log = array("i", [0]) * q
    for r in range(0, q >> 8, block >> 8):
        rows = hi[r : r + (block >> 8)]
        n = 256 * len(rows)
        l0, l1 = bytearray(2 * n), bytearray(2 * n)
        l0[::2] = b"".join([row0.translate(logs[w & 255]) for w in rows])
        l1[::2] = b"".join([row1.translate(logs[w >> 8]) for w in rows])
        l0 = int.from_bytes(l0, "little")
        d = int.from_bytes(l1, "little") + mask - l0  # in 1 .. 2 k1 - 1
        d -= k1 * (d + ones >> h & ones)  # mod k1
        d = d.to_bytes(2 * n, "little")[::2]
        u = bytearray(2 * n)
        u[::2] = d.translate(alpha)
        u = l0 + int.from_bytes(u, "little")  # in 0 .. 2 k1 - 2
        u -= k1 * (u + ones >> h & ones)  # mod k1
        lam = bytearray(2 * n)
        lam[::2] = d.translate(beta_lo)
        lam[1::2] = d.translate(beta_hi)
        v = (s * u + int.from_bytes(lam, "little")).to_bytes(2 * n, "little")
        out = bytearray(4 * n)
        out[::4], out[1::4] = v[::2], v[1::2]
        log[r << 8 : (r << 8) + n] = _native("i", out)
    log[0] = -1
    for k in range(0, q1, s):
        log[exp[k]] = k
        log[exp[k + 1]] = k + 1
    return exp, log


def _log_tables(p: int, m: int, modulus: tuple[int, ...]) -> tuple[array, array]:
    """exp (length 2(q-1)) and log (log[0] = -1) over the primitive element g
    with the smallest index.

    F_{2^14} and F_{2^16} build them from their subfields (see
    _tables_gf2_subfield).  Every other extension field builds them in one
    walk of g.  Multiplying by g is F_p-linear, so b * g is the digit-wise
    sum of lo[low h = m // 2 digits of b] and hi[high m - h digits of b],
    the products of g with every element over those digits.
    For p = 2 the sum is an XOR of bit-packed products.  For odd p, lo and
    hi write their products with digits in base 2p - 1, so one integer sum
    keeps each digit sum (at most 2p - 2) apart, and to_lo and to_hi read
    its low and high digits back, each mod p, as an index.
    """
    q = p**m
    q1 = q - 1
    g = _primitive_element(p, m, modulus)
    if p == 2 and m in (14, 16):
        return _tables_gf2_subfield(g, m, _pack_gf2(modulus))
    h = m // 2
    exp = array("I", bytes(8 * q1))
    log = array("i", [-1]) * q
    a = 1
    if p == 2:
        lo, hi = _times_gf2(g, m, _pack_gf2(modulus))
        low = (1 << h) - 1
        for k in range(q1):
            exp[k] = a
            log[a] = k
            a = lo[a & low] ^ hi[a >> h]
    else:
        basis = [_digits(g, p, m)]  # the digits of x^i * g
        for _ in range(m - 1):
            v = basis[-1]
            top = v[-1]
            basis.append([(c - top * r) % p for c, r in zip([0] + v[:-1], modulus)])
        base = 2 * p - 1
        lo = _span(basis[:h], p, base)
        hi = _span(basis[h:], p, base)
        low = p**h
        split = base**h
        to_lo = _reduced(p, base, 1, h)
        to_hi = _reduced(p, base, low, m - h)
        for k in range(q1):
            exp[k] = a
            log[a] = k
            s = lo[a % low] + hi[a // low]
            a = to_lo[s % split] + to_hi[s // split]
    exp[q1:] = exp[:q1]
    return exp, log


def _zech_table(p: int, q: int, exp: array, log: array) -> array:
    """zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0 (odd p)."""
    top = p - 1
    # adding 1 changes only the constant digit
    return array("i", [log[a - top if a % p == top else a + 1] for a in exp[: q - 1]])


def _op_tables(p: int, q: int, exp, log, zech) -> tuple[list, list]:
    """(add, mul) with add[a][b] = a + b and mul[a][b] = a * b in the
    extension field F_q, each row one gather in C."""
    logs = log[1:]  # of the nonzero elements, in order
    at_logs = itemgetter(*logs)
    # row a = g^i: g^(i + j) for b = g^j is exp[i:][j]
    mul = [[0] * q] + [[0, *at_logs(exp[i:i + q - 1])] for i in logs]
    if p == 2:
        # row a is row a - h with every entry XORed with h, h the top bit of a
        rows = [bytes(range(q))]
        while len(rows) < q:
            flip = bytes(x ^ len(rows) for x in range(256))
            rows += [row.translate(flip) for row in rows]
        return [list(row) for row in rows], mul
    # g^i + g^j = g^(i + zech[j - i]), and 0 where zech is -1: that index
    # goes past exp, into zeros; zech0[-i:] + zech0[:-i] holds zech[j - i]
    # at j
    exp0 = list(exp) + [0] * (q - 1)
    zech0 = [z if z >= 0 else 2 * (q - 1) for z in zech]
    add = [list(range(q))] + [
        [a, *itemgetter(*at_logs(zech0[-i:] + zech0[:-i]))(exp0[i:])]
        for a, i in zip(range(1, q), logs)
    ]
    return add, mul


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

    __slots__ = ("p", "m", "modulus", "q", "_exp", "_log", "_zech", "_ops")

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
        self._exp = self._log = self._zech = self._ops = None
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
        if q <= TABLE_CAP:
            self._ops = _op_tables(p, q, self._exp, self._log, self._zech)

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

    # -- bulk kernels --------------------------------------------------------
    #
    # Each reads the operation tables of an extension field with
    # q <= TABLE_CAP, computes in integers on a prime field, and calls add
    # and mul per element on a larger extension field; the three loops give
    # the same values.  The table branch comes first, as the one the
    # exhaustive sweeps over extension fields run.

    def dot(self, xs, ys) -> int:
        """The sum of x * y over the pairs of zip(xs, ys)."""
        ops = self._ops
        if ops is not None:
            add, mul = ops
            acc = 0
            for a, b in zip(xs, ys):
                acc = add[acc][mul[a][b]]
            return acc
        if self.m == 1:
            return sum(map(_times, xs, ys)) % self.p
        add, mul = self.add, self.mul
        acc = 0
        for a, b in zip(xs, ys):
            if a and b:
                acc = add(acc, mul(a, b))
        return acc

    def axpy(self, out: list, start: int, a: int, xs) -> None:
        """out[start + k] += a * xs[k], in place, for every k with
        start + k < len(out); xs is a sequence."""
        ops = self._ops
        stop = start + len(xs)
        if ops is not None:
            add, mul = ops
            row = mul[a]
            out[start:stop] = [add[o][row[x]] for o, x in zip(out[start:stop], xs)]
        elif self.m == 1:
            p = self.p
            out[start:stop] = [(o + a * x) % p for o, x in zip(out[start:stop], xs)]
        elif a:
            add, mul = self.add, self.mul
            for k, x in zip(range(start, len(out)), xs):
                if x:
                    out[k] = add(out[k], mul(a, x))

    def sparse_dot(self, row: dict, dense) -> int:
        """The sum of c * dense[t] over the items t: c of row."""
        ops = self._ops
        if ops is not None:
            add, mul = ops
            acc = 0
            for t, c in row.items():
                acc = add[acc][mul[c][dense[t]]]
            return acc
        if self.m == 1:
            return sum([c * dense[t] for t, c in row.items()]) % self.p
        add, mul = self.add, self.mul
        acc = 0
        for t, c in row.items():
            v = dense[t]
            if v:
                acc = add(acc, mul(c, v))
        return acc

    def sparse_axpy(self, row: dict, a: int, other: dict) -> None:
        """row += a * other, in place, for rows {index: nonzero coefficient}:
        an index whose coefficient becomes 0 is dropped."""
        if not a:
            return
        ops = self._ops
        get = row.get
        if ops is not None:
            add, mul = ops
            times_a = mul[a]
            for t, c in other.items():
                v = add[get(t, 0)][times_a[c]]
                if v:
                    row[t] = v
                else:
                    del row[t]
            return
        # a prime field sums in integers; p = 0 marks an extension field
        # above the cap, which calls add and mul
        p = self.p if self.m == 1 else 0
        add, mul = self.add, self.mul
        for t, c in other.items():
            v = (get(t, 0) + a * c) % p if p else add(get(t, 0), mul(a, c))
            if v:
                row[t] = v
            else:
                del row[t]
