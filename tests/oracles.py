"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own algorithms: recurrence
lengths come from explicit enumeration, binomial terms from math.comb,
series products from a direct convolution, extension-field arithmetic
from the polynomial basis (sharing only the library's division in F_p[x]),
binary exp/log tables from a walk of the cosets of <x>, the
expansion-complexity elimination from columns each reduced from
scratch, substitution h(x, G(x)) from powers of G convolved afresh on every
call, and E_n from enumerating every candidate polynomial, so a bug in the
library cannot vanish by checking itself.  The one exception is the
per-leaf sweep, which runs the library's engines and battery on every
leaf: it is the oracle for how the sweep shares that work between leaves,
not for the work itself.
"""

import math
from collections import Counter
from itertools import product

from seqcx import expcomp, lincomp, series, theorems
from seqcx.experiments import DistributionRecord, EnumerationResult
from seqcx.expcomp import ExpansionWitness, monomial_count
from seqcx.field import Field, _poly_divmod, _trim
from seqcx.lincomp import Sequence
from seqcx.series import (
    BivariatePoly,
    Poly,
    TruncatedSeries,
    _check_same_field,
    poly_pow,
)

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


def binomial_upper_bound_witness(spec):
    """The certificate y^d - (1-x)^(p - d(k+1)) with
    d = min{floor(p/(k+1)), ceil(p/(k+2))}, which annihilates the binomial
    family's generating function mod x^p."""
    p, k = spec.p, spec.k
    d = min(p // (k + 1), -(-p // (k + 2)))
    field = Field(p)
    poly = poly_pow(Poly(field, [1, field.neg(1)]), p - d * (k + 1))
    terms = {(0, d): 1}
    for i, c in enumerate(poly.coeffs):
        if c:
            terms[(i, 0)] = field.neg(c)
    return BivariatePoly(field, terms)


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


def _mulmod_lists(a, b, f, p):
    """a * b mod f in F_p[x], on constant-first coefficient lists."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return _poly_divmod(_trim(prod), f, p)[1]


def is_irreducible_lists(coeffs, p, m):
    """Ben-Or's test on coefficient lists, for every p: a monic f of degree
    m >= 2 is irreducible iff gcd(x^(p^i) - x, f) = 1 for i = 1..m//2.
    A root in F_p, found by Horner evaluation, rejects f at once."""
    f = list(coeffs)
    for a in range(p):
        value = 0
        for c in reversed(f):
            value = (value * a + c) % p
        if not value:
            return False
    power = [0, 1]  # x^(p^i) mod f
    for _ in range(m // 2):
        acc = [1]
        for _ in range(p):
            acc = _mulmod_lists(acc, power, f, p)
        power = acc
        diff = power + [0] * (2 - len(power))
        diff[1] = (diff[1] - 1) % p
        a, b = f, _trim(diff)
        while b:
            a, b = b, _poly_divmod(a, b, p)[1]
        if len(a) > 1:
            return False
    return True


def default_modulus_unfiltered(p, m):
    """The lexicographically smallest monic irreducible, trying every
    coefficient tuple (c_0, ..., c_{m-1}) in order, c_0 = 0 included."""
    for tail in product(range(p), repeat=m):
        candidate = tuple(tail) + (1,)
        if is_irreducible_lists(candidate, p, m):
            return candidate
    raise AssertionError("no irreducible polynomial found")


def log_tables_coset_walk(modulus):
    """exp and log of F_{2^m} over its primitive element with the smallest
    index, built by walking the cosets of <x> with a shift-and-XOR step.

    Each coset y_c <x> (y_c the smallest index not yet seen) is walked in
    turn, so x^j * y_c lands at position c*d + j, d the order of x.  If x
    is not primitive, g is the least index whose powers reach <x> first
    after `cosets` steps, at g^cosets = x^j with gcd(j, d) = 1; a second
    walk then reads the powers of g off the coset positions.
    """
    m = len(modulus) - 1
    q = 1 << m
    q1 = q - 1
    poly = sum(c << i for i, c in enumerate(modulus))

    def step(a):
        a <<= 1
        return a ^ poly if a & q else a

    coset_walk = [0] * q1
    log = [-1] * q
    n = cosets = 0
    rep = 1
    while n < q1:
        while log[rep] >= 0:
            rep += 1
        cosets += 1
        a = rep
        while log[a] < 0:
            log[a] = n
            coset_walk[n] = a
            n += 1
            a = step(a)
    if cosets == 1:
        return coset_walk * 2, log
    d = q1 // cosets

    def times(b, c):
        """b * y_c as (coset, exponent): the sum of b_i * x^i * y_c."""
        acc = 0
        for i in range(m):
            if (b >> i) & 1:
                acc ^= coset_walk[c * d + i]
        return divmod(log[acc], d)

    for g in range(2, q):
        moves = {}
        c = j = 0
        for steps in range(1, cosets + 1):
            if c not in moves:
                moves[c] = times(g, c)
            c, t = moves[c]
            j = (j + t) % d
            if c == 0:
                break
        if steps == cosets and math.gcd(j, d) == 1:
            break
    exp = [0] * q1
    c = j = 0
    for k in range(q1):
        a = coset_walk[c * d + j]
        exp[k] = a
        log[a] = k
        c, t = moves[c]
        j = (j + t) % d
    return exp * 2, log


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


# -- small helpers with no caller in the package -------------------------------


def monomials_up_to(d):
    """All (i, j) with i + j <= d in canonical order."""
    for total in range(d + 1):
        for j in range(total + 1):
            yield (total - j, j)


def poly_to_series(p, n):
    return TruncatedSeries._unchecked(p.field, [p.coeff(i) for i in range(n)])


def series_add(a, b):
    _check_same_field(a, b)
    if a.order != b.order:
        raise ValueError("series orders differ")
    f = a.field
    return TruncatedSeries._unchecked(
        f, [f.add(x, y) for x, y in zip(a.coeffs, b.coeffs)]
    )


def bivariate_add(h1, h2):
    """h1 + h2 for BivariatePoly operands, term by term."""
    _check_same_field(h1, h2)
    f = h1.field
    out = dict(h1.terms)
    for mono, c in h2.terms.items():
        out[mono] = f.add(out.get(mono, 0), c)
    return BivariatePoly(f, out)


def bivariate_mul(h1, h2):
    """h1 * h2 for BivariatePoly operands, every pair of terms."""
    _check_same_field(h1, h2)
    f = h1.field
    out = {}
    for (i1, j1), c1 in h1.terms.items():
        for (i2, j2), c2 in h2.terms.items():
            mono = (i1 + i2, j1 + j2)
            out[mono] = f.add(out.get(mono, 0), f.mul(c1, c2))
    return BivariatePoly(f, out)


def fit_annihilates(seq, fit):
    """Direct re-evaluation of the recurrence against the prefix."""
    f = seq.field
    length = fit.complexity
    for i in range(fit.n - length):
        acc = seq.terms[i + length]
        for l, cl in enumerate(fit.coeffs):
            if cl and seq.terms[i + l]:
                acc = f.add(acc, f.mul(cl, seq.terms[i + l]))
        if acc != 0:
            return False
    return True


def chi_square_consistency(observed, expected_probs, total, *, min_expected=5.0):
    """Chi-square comparison of observed counts against exact probabilities.

    Adjacent values are pooled (ascending) until each bin's expected count
    reaches min_expected; a trailing underfull bin is merged backwards.
    Returns the statistic, degrees of freedom, and p-value.
    """
    values = sorted(set(observed) | set(expected_probs))
    bins = []
    acc_obs = 0.0
    acc_exp = 0.0
    for v in values:
        acc_obs += observed.get(v, 0)
        acc_exp += expected_probs.get(v, 0.0) * total
        if acc_exp >= min_expected:
            bins.append((acc_obs, acc_exp))
            acc_obs = 0.0
            acc_exp = 0.0
    if acc_exp > 0 or acc_obs > 0:
        if bins:
            last_obs, last_exp = bins.pop()
            bins.append((last_obs + acc_obs, last_exp + acc_exp))
        else:
            bins.append((acc_obs, acc_exp))
    if len(bins) < 2:
        raise ValueError("not enough mass to form two chi-square bins")
    stat = sum((obs - exp) ** 2 / exp for obs, exp in bins)
    df = len(bins) - 1
    p_value = chi_square_sf(stat, df)
    return {"statistic": stat, "df": df, "p_value": p_value, "bins": len(bins)}


def chi_square_sf(stat, df):
    """P(X >= stat) for X chi-square distributed with df >= 1 degrees of freedom.

    This is Q(df/2, stat/2), the regularized upper incomplete gamma function,
    summed from Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1), starting at
    Q(1, y) = e^-y for even df and Q(1/2, y) = erfc(sqrt(y)) for odd df.
    """
    if stat <= 0:
        return 1.0
    y = stat / 2.0
    a = 0.5 if df % 2 else 1.0
    total = math.erfc(math.sqrt(y)) if df % 2 else math.exp(-y)
    while a < df / 2:
        total += math.exp(a * math.log(y) - y - math.lgamma(a + 1))
        a += 1
    return total


def per_leaf_sweep(field, n):
    """The checked exhaustive sweep with the whole battery on every leaf.

    Each of the q^n prefixes has every E_m witness (m = 1..n) substituted
    and run_all_checks run over its first n terms, so a length-m prefix is
    graded once per leaf below it.  substitute and the battery are looked
    up at call time, so failures injected into them reach this sweep too.
    Returns what EnumerationResult.to_dict() gives for the same sweep.
    """
    counts, counts_l, counts_t, fails = Counter(), Counter(), Counter(), Counter()
    witness_failures = 0
    for terms in product(range(field.q), repeat=n):
        seq = Sequence(field, list(terms))
        fits = lincomp.linear_fits(seq, n)
        profile = expcomp.expansion_profile(seq, n)
        g = seq.prefix_series(n)
        for m in range(1, n + 1):
            wit = profile.witness(m)
            if wit.poly is not None and not (
                wit.poly.total_degree == wit.complexity
                and series.substitute(wit.poly, g, m).is_zero()
            ):
                witness_failures += 1
        reports = theorems.run_all_checks(seq, n, fits=fits, expansion=profile)
        fails.update(rep.claim_id for rep in reports if rep.failed)
        counts[profile.values[-1]] += 1
        counts_l[fits[-1].complexity] += 1
        counts_t[fits[-1].t] += 1
    record = DistributionRecord(
        field.q, n, "exhaustive", field.q**n, dict(counts),
        dict(counts_l), dict(counts_t),
    )
    violations = sum(fails.values()) + witness_failures
    return EnumerationResult(
        record, violations, dict(fails), witness_failures, True
    ).to_dict()
