"""Expansion complexity by one column pass.

The n-th expansion complexity of a sequence prefix is the least total degree
of a nonzero bivariate polynomial h with h(x, G(x)) = 0 mod x^n, where G is
the generating function of the prefix; it is 0 exactly when the prefix is
all zero.

The coefficient vectors (mod x^n) of the monomial substitutions x^i * G(x)^j,
in the fixed order (i+j, j, i) up to total degree D = kernel_degree_bound(n),
are reduced one at a time against pivots keyed by their lowest nonzero row,
tracking each column's combination.  A column's birth row is that lowest row
after reduction (n if it vanishes).  On the first m rows a column depends on
its predecessors exactly when it is born at row >= m, so one pass serves
every m <= n: E_m is the degree d of the first such column, its combination
is the minimal witness (unique up to scale, as the columns before it are
independent), and the decisive system's rank counts the first
M_d = (d+1)(d+2)/2 columns born before row m.

Only the columns x^0 G^j start from their raw coefficients.  Column x^i G^j
with i >= 1 starts from x times the reduced column x^(i-1) G^j of the
previous degree block: that vector is the column plus x times earlier
columns, each of which is itself an earlier column, and it is already zero
up to the earlier column's birth row.  Birth rows depend only on the matrix,
so they, E_m, the witnesses and the ranks are those of reducing every column
from scratch.  A combination is keyed by the monomial layout j * W + i with
W = D + 1, which turns the multiplication by x into adding 1 to every key.

Columns come in one of two row representations, chosen by the field: one
int per column over F_2 (rows in the low n bits, the combination above
them), lists of field elements elsewhere.  Both follow the same column order
and emit identical combinations; the tests pin this equivalence, and check
both against columns reduced from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .field import Field
from .lincomp import Sequence
from .series import BivariatePoly, TruncatedSeries, monomial_key, series_mul


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

    births and combs hold each reduced column's birth row and combination
    (keyed j * W + i for x^i y^j, W = kernel_degree_bound(n) + 1), so that
    witness(m) can build the certificate for any m on demand (combinations
    are kept current up to the first column born at row n).
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
        width = kernel_degree_bound(len(self.values)) + 1
        poly = _witness_from_combo(self.field, self.combs[decisive], width)
        return ExpansionWitness(m, e, poly, rank, mcount)


def _reduce_gf2(bits: int, n: int):
    """Yield (birth row, combination bit mask) for each canonical column of
    total degree <= kernel_degree_bound(n).

    A column and its combination travel as one int: rows in bits 0..n-1,
    combination key k in bit n + k.  Column x^i G^j with i >= 1 starts as
    x times the reduced x^(i-1) G^j, one shift that moves both halves (the
    row pushed past x^(n-1) is dropped).  A reduction step is one lookup of
    the lowest set bit among the pivots and one XOR.  Values sent in are
    ignored: tracking the combination costs next to nothing.
    """
    top = 1 << n
    keep = ~top
    mask = top - 1
    width = kernel_degree_bound(n) + 1
    # G times every 4-bit polynomial, for a windowed carry-less multiply
    times_g = [0] * 16
    for k in range(1, 16):
        low = k & -k
        times_g[k] = times_g[k ^ low] ^ (bits << (low.bit_length() - 1))
    pivots: dict[int, int] = {}
    power = 1  # G^d mod x^n
    reduced: list[int] = []  # the previous degree block, reduced
    for d in range(width):
        if d:
            acc = shift = 0
            rest = power
            while rest:
                acc ^= times_g[rest & 15] << shift
                rest >>= 4
                shift += 4
            power = acc & mask
        block = [(row << 1) & keep for row in reduced]
        block.append(power | top << d * width)
        reduced = []
        for row in block:
            low = row & -row
            while low < top:
                hit = pivots.get(low)
                if hit is None:
                    pivots[low] = row
                    break
                row ^= hit
                low = row & -row
            reduced.append(row)
            yield (low.bit_length() - 1 if low < top else n), row >> n


def _reduce_generic(field: Field, terms, n: int):
    """Yield (birth row, combination {key: coefficient}) for each canonical
    column of total degree <= kernel_degree_bound(n); stored pivots are
    scaled to 1 at their birth row.

    Column x^i G^j with i >= 1 starts as x times the reduced x^(i-1) G^j:
    its rows move down by one, its combination keys up by one, and the
    reduction resumes one row below the earlier column's birth row.

    Once a true value is sent in, later combinations are no longer kept up
    to date; plain iteration keeps all of them.
    """
    mul, sub = field.mul, field.sub
    width = kernel_degree_bound(n) + 1
    g = TruncatedSeries._unchecked(field, terms[:n])
    power = TruncatedSeries._unchecked(field, [1] + [0] * (n - 1))
    pivots: dict[int, tuple[list[int], dict[int, int]]] = {}
    settled = False
    reduced: list = []  # (column, combination, birth row) of the previous block
    for d in range(width):
        if d:
            power = series_mul(power, g, n)
        block = []
        for col, comb, birth in reduced:
            if not settled:
                comb = {t + 1: c for t, c in comb.items()}
            block.append(([0] + col[:-1], comb, birth + 1))
        block.append((list(power.coeffs), {d * width: 1}, 0))
        reduced = []
        for col, comb, start in block:
            birth = n
            for row in range(start, n):
                v = col[row]
                if not v:
                    continue
                hit = pivots.get(row)
                if hit is None:
                    inv = field.inv(v)
                    col = [mul(inv, x) for x in col]
                    if not settled:
                        comb = {t: mul(inv, x) for t, x in comb.items()}
                    pivots[row] = (col, comb)
                    birth = row
                    break
                pcol, pcomb = hit
                for r2 in range(row, n):
                    if pcol[r2]:
                        col[r2] = sub(col[r2], mul(v, pcol[r2]))
                if not settled:
                    for t, x in pcomb.items():
                        comb[t] = sub(comb.get(t, 0), mul(v, x))
            reduced.append((col, comb, birth))
            settled = yield birth, comb


def _kernel_pass(field: Field, terms, n: int):
    """Birth rows and combinations of the canonical columns over n rows.

    Pulled up to the first column born at row n, whose combination is the
    last one any witness needs, then to the end of its degree block for the
    rank of every decisive system.  A reducer that runs out before any
    column is born at row n has overrun the counting bound.
    """
    if field.q == 2:
        bits = sum(1 << idx for idx, s in enumerate(terms) if s)
        reducer = _reduce_gf2(bits, n)
    else:
        reducer = _reduce_generic(field, list(terms), n)
    columns = []
    for column in reducer:
        columns.append(column)
        if column[0] >= n:
            break
    else:
        raise RuntimeError("kernel search overran its counting bound")
    block_end = monomial_count(kernel_degree_bound(len(columns) - 1))
    while len(columns) < block_end:
        columns.append(reducer.send(True))
    births, combs = zip(*columns)
    return births, combs


def _profile(field: Field, terms, n: int) -> ExpansionProfile:
    """E_m for m = 1..n from one pass over the first n terms."""
    window = terms[:n] if n > 0 else ()
    n = len(window)
    zeros = next((idx for idx, s in enumerate(window) if s), n)
    if zeros == n:
        return ExpansionProfile((0,) * n, field, (), ())
    births, combs = _kernel_pass(field, window, n)
    values = [0] * zeros
    k, degree, block_end = 0, 0, 1  # column k has total degree `degree`
    for m in range(zeros + 1, n + 1):
        while births[k] < m:
            k += 1
            if k == block_end:
                degree += 1
                block_end += degree + 1
        values.append(degree)
    return ExpansionProfile(tuple(values), field, births, combs)


def _witness_from_combo(field: Field, combo, width: int) -> BivariatePoly:
    """Build the certificate polynomial from a column combination (an F_2 bit
    mask, or {key: coefficient}, key j * width + i for x^i y^j), scaled so
    that its first nonzero coefficient in the canonical monomial order is 1."""
    if isinstance(combo, int):
        combo = {t: 1 for t in range(combo.bit_length()) if (combo >> t) & 1}
    terms = {}
    for t, c in combo.items():
        if c:
            j, i = divmod(t, width)
            terms[(i, j)] = c
    first = min(terms, key=monomial_key)
    scale = field.inv(terms[first])
    return BivariatePoly._unchecked(
        field, {m: field.mul(scale, c) for m, c in terms.items()}
    )


def expansion_complexity(seq: Sequence, n: int) -> ExpansionWitness:
    """E_n of seq's first n terms, with a minimal witness polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > len(seq.terms):
        raise ValueError(f"n={n} exceeds available prefix of {len(seq.terms)}")
    return _profile(seq.field, seq.terms, n).witness(n)


def expansion_value(field: Field, terms, n: int) -> int:
    """E_n without witness construction (hot path for sweeps).

    terms are raw element indices, so the first n are validated here: the
    kernel pass trusts its input (over F_2 it reads any nonzero as 1).
    """
    for s in terms[:n]:
        field.validate(s)
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
    for i, (lo, hi) in enumerate(zip(values, values[1:]), start=1):
        if not (lo <= hi <= lo + 1 or (lo, hi) == (0, 2)):
            raise RuntimeError(
                f"expansion profile growth violated at n={i}: {lo} -> {hi}"
            )
    return profile

