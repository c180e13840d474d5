"""Expansion complexity by one column pass, with a brute-force oracle.

The n-th expansion complexity of a sequence prefix is the least total degree
of a nonzero bivariate polynomial h with h(x, G(x)) = 0 mod x^n, where G is
the generating function of the prefix; it is 0 exactly when the prefix is
all zero.

The coefficient vectors (mod x^n) of the monomial substitutions x^i * G(x)^j,
in the fixed order (i+j, j, i), are reduced one at a time against pivots
keyed by their lowest nonzero row, tracking each column's combination.  A
column's birth row is that lowest row after reduction (n if it vanishes).
On the first m rows a column depends on its predecessors exactly when it is
born at row >= m, so one pass serves every m <= n: E_m is the degree d of
the first such column, its combination is the minimal witness (unique up to
scale, as the columns before it are independent), and the decisive system's
rank counts the first M_d = (d+1)(d+2)/2 columns born before row m.

Columns come in one of two row representations, chosen by the field: bit
masks over F_2, lists of field elements elsewhere.  Both follow the same
column order and emit identical witnesses; the tests pin this equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .field import Field
from .lincomp import Sequence
from .series import (
    BivariatePoly,
    TruncatedSeries,
    monomial_key,
    monomials_up_to,
    series_mul,
    substitute,
)

# Enumerating q^{M_d} candidate polynomials is the oracle's budget.
BRUTE_FORCE_CAP = 1 << 16


def monomial_count(d: int) -> int:
    """Number of bivariate monomials of total degree <= d."""
    return (d + 1) * (d + 2) // 2


def kernel_degree_bound(n: int) -> int:
    """Least d with (d+1)(d+2)/2 > n.

    More columns than rows force a dependency, so E_n never exceeds this.
    It is also the total degree of column n in the canonical order.
    """
    # equivalently the largest d with d(d+1)/2 <= n
    return (math.isqrt(8 * n + 1) - 1) // 2


@dataclass(frozen=True)
class ExpansionWitness:
    """E_n together with a minimal-degree certificate.

    poly is None exactly when complexity == 0 (all-zero prefix).
    matrix_rank / monomial_count describe the decisive linear system; they
    are None for witnesses found by brute-force enumeration.
    """

    n: int
    complexity: int
    poly: Optional[BivariatePoly]
    matrix_rank: Optional[int] = None
    monomial_count: Optional[int] = None


@dataclass(frozen=True)
class ExpansionProfile:
    """E_1..E_n of one prefix, read off one column pass.

    births and combs hold each reduced column's birth row and combination,
    so that witness(m) can build the certificate for any m on demand
    (combinations are kept current up to the first column born at row n).
    """

    values: tuple[int, ...]
    field: Field
    births: tuple[int, ...]
    combs: tuple

    def witness(self, m: int) -> ExpansionWitness:
        """E_m with its minimal witness and its decisive system's rank."""
        if not 1 <= m <= len(self.values):
            raise ValueError(
                f"prefix length {m} is outside the profile's 1..{len(self.values)}"
            )
        e = self.values[m - 1]
        if e == 0:
            return ExpansionWitness(m, 0, None, 0, 0)
        decisive = next(k for k, birth in enumerate(self.births) if birth >= m)
        mcount = monomial_count(e)
        rank = sum(1 for birth in self.births[:mcount] if birth < m)
        poly = _witness_from_combo(self.field, self.combs[decisive])
        return ExpansionWitness(m, e, poly, rank, mcount)


def _columns_gf2(bits: int, n: int):
    """Yield the canonical-order columns as n-bit masks."""
    mask = (1 << n) - 1
    powers = [1]  # G^0 = 1
    d = 0
    while True:
        while len(powers) <= d:
            # carry-less multiply: G^{j+1} = G^j * G mod 2, truncated
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


def _reduce_gf2(bits: int, n: int):
    """Yield (birth row, combination bit mask) for each canonical column.

    Values sent in are ignored: tracking a mask costs next to nothing.
    """
    pivots: dict[int, tuple[int, int]] = {}
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


def _columns_generic(field: Field, terms, n: int):
    g = TruncatedSeries(field, terms[:n])
    powers = [TruncatedSeries(field, [1] + [0] * (n - 1))]
    d = 0
    while True:
        while len(powers) <= d:
            powers.append(series_mul(powers[-1], g, n))
        for j in range(d + 1):
            i = d - j
            pj = powers[j].coeffs
            col = [0] * n
            for t in range(n - i):
                col[i + t] = pj[t]
            yield col
        d += 1


def _reduce_generic(field: Field, terms, n: int):
    """Yield (birth row, combination {column index: coefficient}) for each
    canonical column; stored pivots are scaled to 1 at their birth row.

    Once a true value is sent in, later combinations are no longer kept up
    to date; plain iteration keeps all of them.
    """
    pivots: dict[int, tuple[list[int], dict[int, int]]] = {}
    settled = False
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
            if not settled:
                for t, x in pcomb.items():
                    comb[t] = field.sub(comb.get(t, 0), field.mul(v, x))
        settled = yield birth, comb


def _kernel_pass(field: Field, terms, n: int):
    """Birth rows and combinations of the canonical columns over n rows.

    Pulled lazily up to the first column born at row n, whose combination is
    the last one any witness needs, then to the end of its degree block for
    the rank of every decisive system.
    """
    if field.q == 2:
        bits = sum(1 << idx for idx, s in enumerate(terms) if s)
        reducer = _reduce_gf2(bits, n)
    else:
        reducer = _reduce_generic(field, list(terms), n)
    cap = kernel_degree_bound(n)
    births: list[int] = []
    combs: list = []
    stop = None
    birth, comb = next(reducer)
    while True:
        births.append(birth)
        combs.append(comb)
        if stop is None:
            degree = kernel_degree_bound(len(births) - 1)
            if birth >= n:
                stop = monomial_count(degree)
            elif degree > cap:
                raise RuntimeError("kernel search overran its counting bound")
        if len(births) == stop:
            return births, combs
        birth, comb = reducer.send(stop is not None)


def _profile(field: Field, terms, n: int) -> ExpansionProfile:
    """E_m for m = 1..n from one pass over the first n terms."""
    window = terms[:n] if n > 0 else ()
    n = len(window)
    zeros = next((idx for idx, s in enumerate(window) if s), n)
    if zeros == n:
        return ExpansionProfile((0,) * n, field, (), ())
    births, combs = _kernel_pass(field, window, n)
    values = [0] * zeros
    k = 0
    for m in range(zeros + 1, n + 1):
        while births[k] < m:
            k += 1
        values.append(kernel_degree_bound(k))
    return ExpansionProfile(tuple(values), field, tuple(births), tuple(combs))


def _witness_from_combo(field: Field, combo) -> BivariatePoly:
    """Build the certificate polynomial from a column combination (an F_2 bit
    mask, or {column index: coefficient}), scaled so that its first nonzero
    coefficient in the canonical monomial order is 1."""
    if isinstance(combo, int):
        combo = {t: 1 for t in range(combo.bit_length()) if (combo >> t) & 1}
    terms = {}
    for t, c in combo.items():
        if c:
            # column t has total degree d and y-degree t - M_{d-1}
            d = kernel_degree_bound(t)
            j = t - d * (d + 1) // 2
            terms[(d - j, j)] = c
    first = min(terms, key=monomial_key)
    scale = field.inv(terms[first])
    return BivariatePoly(field, {m: field.mul(scale, c) for m, c in terms.items()})


def expansion_complexity(seq: Sequence, n: int) -> ExpansionWitness:
    """E_n of seq's first n terms, with a minimal witness polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > len(seq.terms):
        raise ValueError(f"n={n} exceeds available prefix of {len(seq.terms)}")
    return _profile(seq.field, seq.terms, n).witness(n)


def expansion_value(field: Field, terms, n: int) -> int:
    """E_n without witness construction (hot path for sweeps)."""
    values = _profile(field, terms, n).values
    return values[-1] if values else 0


def expansion_profile(seq: Sequence, n_max: int) -> ExpansionProfile:
    """E_n for n = 1..n_max, all from one pass over the first n_max terms.

    The growth law is enforced before returning: values never decrease and
    rise by at most 1, except that leaving an all-zero prefix may jump from
    0 to 2 (there is no witness to carry over; y itself is only a degree-1
    witness while the prefix is still zero).
    """
    if not 0 <= n_max <= len(seq.terms):
        raise ValueError(f"n_max={n_max} is outside 0..{len(seq.terms)}")
    profile = _profile(seq.field, seq.terms, n_max)
    values = profile.values
    for i in range(len(values) - 1):
        lo, hi = values[i], values[i + 1]
        if not (lo <= hi <= max(lo, 1) + 1):
            raise RuntimeError(
                f"expansion profile growth violated at n={i + 1}: {lo} -> {hi}"
            )
    return profile


def brute_force_expansion(
    seq: Sequence, n: int, d_max: int
) -> Optional[ExpansionWitness]:
    """Independent oracle: enumerate every nonzero h of total degree <= d_max.

    Candidates are checked by direct substitution (series module) in a fixed
    order, degree stage by degree stage; the first hit therefore has total
    degree exactly E_n.  Returns None when no witness of degree <= d_max
    exists.
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
    g = TruncatedSeries(field, terms)
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
            h = BivariatePoly(field, coeffs)
            if substitute(h, g, n).is_zero():
                return ExpansionWitness(n, h.total_degree, h)
    return None
