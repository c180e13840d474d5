"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own algorithms: recurrence
lengths come from explicit enumeration, binomial terms from math.comb,
series products from a direct convolution, extension-field arithmetic
from the polynomial basis (sharing only the library's division in F_p[x]),
the expansion-complexity elimination from columns each reduced from
scratch, substitution h(x, G(x)) from powers of G convolved afresh on every
call, and E_n from enumerating every candidate polynomial, so a bug in the
library cannot vanish by checking itself.
"""

import math
from itertools import product

from seqcx.expcomp import ExpansionWitness, monomial_count
from seqcx.field import _is_irreducible, _poly_divmod, _trim
from seqcx.series import BivariatePoly, monomials_up_to

# Enumerating q^{M_d} candidate polynomials is the brute-force oracle's budget.
BRUTE_FORCE_CAP = 1 << 16


def min_recurrence_length_gf2(terms, n):
    """Smallest L such that some length-L recurrence fits the first n bits.

    Enumerates every coefficient vector in F_2^L for L = 0, 1, ...; the
    recurrence s_{i+L} + sum c_l s_{i+l} = 0 must hold for 0 <= i <= n-L-1.
    L = n always fits vacuously.
    """
    bits = 0
    for i, s in enumerate(terms[:n]):
        if s:
            bits |= 1 << i
    for length in range(n + 1):
        for mask in range(1 << length):
            full = mask | (1 << length)
            if all(
                ((bits >> i) & full).bit_count() % 2 == 0
                for i in range(n - length)
            ):
                return length
    return n


def binomial_terms(p, k, length):
    """a_i = C(i+k, k) mod p via exact integer binomials."""
    return [math.comb((i % p) + k, k) % p for i in range(length)]


def convolve_mod(a, b, n, q):
    """First n coefficients of the product of two prime-field series."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def count_low_expansion_gf2_direct(n, b=2):
    """#{n-bit prefixes with a nonzero degree<=b annihilator}, b <= 2 only.

    Works straight from the definition with bit arithmetic: for each prefix,
    try all 63 binary h = a + b x + c x^2 + (d + e x) y + f y^2 against
    G mod x^n.  Completely independent of the package's linear algebra.
    """
    assert b == 2
    mask = (1 << n) - 1

    def clmul(a, c):
        acc = 0
        while a:
            low = a & -a
            acc ^= c << (low.bit_length() - 1)
            a ^= low
        return acc

    count = 0
    for s in range(1 << n):
        g2 = clmul(s, s) & mask
        for code in range(1, 64):
            val = 0
            if code & 1:
                val ^= 1
            if code & 2:
                val ^= 2
            if code & 4:
                val ^= 4
            if code & 8:
                val ^= s
            if code & 16:
                val ^= s << 1
            if code & 32:
                val ^= g2
            if val & mask == 0:
                count += 1
                break
    return count


def geometric_series(q, n):
    return [1] * n


class PolyBasisField:
    """F_{p^m} arithmetic straight from the polynomial basis.

    Elements use the same packed indices as seqcx.field.Field; products are
    schoolbook convolutions folded by the modulus, inverses come from the
    extended Euclidean algorithm in F_p[x].  No tables are involved.
    """

    def __init__(self, field):
        self.p, self.m, self.q = field.p, field.m, field.q
        self.modulus = field.modulus
        # x^m = -(c_0 + c_1 x + ... + c_{m-1} x^{m-1}) mod the modulus
        self.reduction = tuple((-c) % self.p for c in self.modulus[: self.m])

    def to_coeffs(self, a):
        coeffs = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            coeffs.append(r)
        return coeffs

    def from_coeffs(self, coeffs):
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    def add(self, a, b):
        p = self.p
        return self.from_coeffs(
            (x + y) % p for x, y in zip(self.to_coeffs(a), self.to_coeffs(b))
        )

    def neg(self, a):
        return self.from_coeffs((-x) % self.p for x in self.to_coeffs(a))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, m = self.p, self.m
        ac = self.to_coeffs(a)
        bc = self.to_coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(ac):
            if ai:
                for j, bj in enumerate(bc):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # fold x^{m+k} down using x^m = reduction polynomial
        for i in range(len(prod) - 1, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, rj in enumerate(self.reduction):
                    prod[i - m + j] = (prod[i - m + j] + c * rj) % p
        return self.from_coeffs(prod[:m])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, a, k):
        """a^(p^k) by k repeated p-th powers."""
        for _ in range(k):
            a = self.pow(a, self.p)
        return a


def default_modulus_unfiltered(p, m):
    """The lexicographically smallest monic irreducible, trying every
    coefficient tuple (c_0, ..., c_{m-1}) in order, c_0 = 0 included."""
    for tail in product(range(p), repeat=m):
        candidate = tuple(tail) + (1,)
        if _is_irreducible(candidate, p, m):
            return candidate
    raise AssertionError("no irreducible polynomial found")


# -- expansion complexity: every column reduced from scratch ------------------


def canonical_monomials(n):
    """Exponents (i, j) of x^i y^j in the order (i+j, j, i), through the
    least total degree d with (d+1)(d+2)/2 > n."""
    out = []
    d = 0
    while len(out) <= n:
        out.extend((d - j, j) for j in range(d + 1))
        d += 1
    return out


def _columns_gf2(bits, n):
    """The canonical-order columns x^i G^j mod x^n as n-bit masks, with G^j
    from a bit-by-bit carry-less multiply."""
    mask = (1 << n) - 1
    powers = [1]
    d = 0
    while True:
        while len(powers) <= d:
            prev = powers[-1]
            acc = 0
            g = bits
            shift = 0
            while g:
                if g & 1:
                    acc ^= prev << shift
                g >>= 1
                shift += 1
            powers.append(acc & mask)
        for j in range(d + 1):
            yield (powers[j] << (d - j)) & mask
        d += 1


def reduce_gf2_unshifted(bits, n):
    """Yield (birth row, combination bit mask over column indices) for each
    canonical column, each column reduced from its raw bits."""
    pivots = {}
    for index, col in enumerate(_columns_gf2(bits, n)):
        comb = 1 << index
        birth = n
        while col:
            row = (col & -col).bit_length() - 1
            hit = pivots.get(row)
            if hit is None:
                pivots[row] = (col, comb)
                birth = row
                break
            col ^= hit[0]
            comb ^= hit[1]
        yield birth, comb


def _columns_generic(field, terms, n):
    """The canonical-order columns with G^j from a direct convolution."""
    g = list(terms[:n])
    powers = [[1] + [0] * (n - 1)]
    d = 0
    while True:
        while len(powers) <= d:
            prev = powers[-1]
            nxt = [0] * n
            for a, x in enumerate(prev):
                if x:
                    for b in range(n - a):
                        if g[b]:
                            nxt[a + b] = field.add(nxt[a + b], field.mul(x, g[b]))
            powers.append(nxt)
        for j in range(d + 1):
            i = d - j
            yield [0] * i + powers[j][: n - i]
        d += 1


def reduce_generic_unshifted(field, terms, n):
    """Yield (birth row, {column index: coefficient}) for each canonical
    column, each column reduced from its raw entries."""
    pivots = {}
    for index, col in enumerate(_columns_generic(field, terms, n)):
        comb = {index: 1}
        birth = n
        for row in range(n):
            v = col[row]
            if not v:
                continue
            hit = pivots.get(row)
            if hit is None:
                inv = field.inv(v)
                comb = {t: field.mul(inv, x) for t, x in comb.items()}
                pivots[row] = ([field.mul(inv, x) for x in col], comb)
                birth = row
                break
            pcol, pcomb = hit
            for r2 in range(row, n):
                if pcol[r2]:
                    col[r2] = field.sub(col[r2], field.mul(v, pcol[r2]))
            for t, x in pcomb.items():
                comb[t] = field.sub(comb.get(t, 0), field.mul(v, x))
        yield birth, comb


def unshifted_expansion(field, terms, n):
    """(births, per_m) from reducing every canonical column from scratch:
    births of every column through the least total degree with more
    monomials than n rows, and per_m[m - 1] = (E_m, witness terms
    {(i, j): coefficient} scaled to a leading 1, rank, monomial count),
    with witness None for an all-zero prefix."""
    monos = canonical_monomials(n)
    if field.q == 2:
        bits = sum(1 << idx for idx, s in enumerate(terms[:n]) if s)
        reducer = reduce_gf2_unshifted(bits, n)
    else:
        reducer = reduce_generic_unshifted(field, list(terms[:n]), n)
    births, combs = [], []
    for birth, comb in reducer:
        if isinstance(comb, int):
            comb = {t: 1 for t in range(comb.bit_length()) if (comb >> t) & 1}
        births.append(birth)
        combs.append(comb)
        if len(births) == len(monos):
            break
    per_m = []
    for m in range(1, n + 1):
        if not any(terms[:m]):
            per_m.append((0, None, 0, 0))
            continue
        k = next(k for k, birth in enumerate(births) if birth >= m)
        e = sum(monos[k])
        count = (e + 1) * (e + 2) // 2
        rank = sum(1 for birth in births[:count] if birth < m)
        comb = {t: c for t, c in combs[k].items() if c}
        scale = field.inv(comb[min(comb)])
        poly = {monos[t]: field.mul(scale, c) for t, c in comb.items()}
        per_m.append((e, poly, rank, count))
    return births, per_m


# -- substitution and brute-force expansion complexity -----------------------


def naive_substitute(field, h_terms, g, n):
    """Coefficients of h(x, G(x)) mod x^n, h given as {(i, j): coefficient}
    and G by at least its first n coefficients.  Every call rebuilds
    G^0..G^j mod x^n by direct convolution."""
    g = list(g[:n])
    max_j = max((j for _, j in h_terms), default=0)
    powers = [[1] + [0] * (n - 1)] if n else [[]]
    for _ in range(max_j):
        prev = powers[-1]
        nxt = [0] * n
        for a, x in enumerate(prev):
            for b in range(n - a):
                nxt[a + b] = field.add(nxt[a + b], field.mul(x, g[b]))
        powers.append(nxt)
    out = [0] * n
    for (i, j), c in h_terms.items():
        for t in range(n - i):
            out[i + t] = field.add(out[i + t], field.mul(c, powers[j][t]))
    return out


def brute_force_expansion(seq, n, d_max):
    """Enumerate every nonzero h of total degree <= d_max.

    Candidates are checked by naive_substitute in a fixed order, degree
    stage by degree stage; the first hit therefore has total degree exactly
    E_n.  Returns None when no witness of degree <= d_max exists.
    """
    if n < 1 or n > len(seq.terms):
        raise ValueError("invalid prefix length")
    field = seq.field
    q = field.q
    if q ** monomial_count(d_max) > BRUTE_FORCE_CAP:
        raise ValueError(
            f"q^M = {q}^{monomial_count(d_max)} exceeds enumeration cap"
        )
    terms = seq.terms[:n]
    if not any(terms):
        return ExpansionWitness(n, 0, None)
    for stage in range(d_max + 1):
        monos = list(monomials_up_to(stage))
        m = len(monos)
        for code in range(1, q**m):
            coeffs = {}
            c = code
            for t in range(m):
                c, digit = divmod(c, q)
                if digit:
                    coeffs[monos[t]] = digit
            if not any(naive_substitute(field, coeffs, terms, n)):
                h = BivariatePoly(field, coeffs)
                return ExpansionWitness(n, h.total_degree, h)
    return None
