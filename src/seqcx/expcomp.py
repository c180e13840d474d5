"""Expansion complexity by one column pass, or one row at a time.

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

The pass returns the birth rows through the end of the degree block that
holds the first column born at row n, which completes every decisive rank,
and the combinations through that column, the last one a witness needs.

Columns come in one of two row representations, chosen by the field: one
int per column over F_2 (rows in the low n bits, the combination above
them), lists of field elements elsewhere.  Both follow the same column order
and return identical births and combinations; the tests pin this
equivalence, and check both against columns reduced from scratch.

The exhaustive sweep cannot extend this pass by a term, since it reduces
whole columns top-down.  It uses online_kernel instead: the same columns
in row echelon form, one row per term, with pivot rows keyed by their
leading column, a term appended or dropped at a time.  E_m is the degree of
the first column that leads no pivot row, and back-substitution through the
pivots of the columns before it gives the same witness as the column pass.
It too packs F_2 in ints and uses lists elsewhere, and gives the sweep E_m
and the witness, never a rank; both engines scale a witness alike.  The
column pass, twice as fast on one sequence at n=128, still serves single
sequences, verify and Monte Carlo.
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
    matrix_rank / monomial_count describe the decisive linear system.
    """

    n: int
    complexity: int
    poly: Optional[BivariatePoly]
    matrix_rank: int
    monomial_count: int


@dataclass(frozen=True)
class ExpansionProfile:
    """E_1..E_n of one prefix, read off one column pass.

    births holds the birth rows through the end of the degree block that
    holds the first column born at row n, and combs the combinations (keyed
    j * W + i for x^i y^j, W = kernel_degree_bound(n) + 1) through that
    column, so that witness(m) can build the certificate for any m on
    demand; both are empty for an all-zero prefix.
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
    """(births, combs): the birth row and combination bit mask of each
    canonical column, through the end of the first degree block that holds
    a column born at row n, or of degree kernel_degree_bound(n).

    A column and its combination travel as one int: rows in bits 0..n-1,
    combination key k in bit n + k.  Column x^i G^j with i >= 1 starts as
    x times the reduced x^(i-1) G^j, one shift that moves both halves (the
    row pushed past x^(n-1) is dropped).  A reduction step is one lookup of
    the lowest set bit among the pivots and one XOR.  Tracking every
    combination costs next to nothing here.
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
    births, combs = [], []
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
            births.append(low.bit_length() - 1 if low < top else n)
            combs.append(row >> n)
        if n in births[-len(block):]:
            break
    return births, combs


def _reduce_generic(field: Field, terms, n: int):
    """(births, combs) as _reduce_gf2 returns them, with combinations as
    {key: coefficient}; stored pivots are scaled to 1 at their birth row.

    Column x^i G^j with i >= 1 starts as x times the reduced x^(i-1) G^j:
    its rows move down by one, its combination keys up by one, and the
    reduction resumes one row below the earlier column's birth row.

    No witness needs a combination after the first column born at row n,
    so the rest of its block leaves them stale (settled).
    """
    mul, sub = field.mul, field.sub
    width = kernel_degree_bound(n) + 1
    g = TruncatedSeries._unchecked(field, terms[:n])
    power = TruncatedSeries._unchecked(field, [1] + [0] * (n - 1))
    pivots: dict[int, tuple[list[int], dict[int, int]]] = {}
    births, combs = [], []
    settled = False
    reduced: list = []  # (column, combination, birth row) of the previous block
    for d in range(width):
        if d:
            power = series_mul(power, g, n)
        block = [
            ([0] + col[:-1], {t + 1: c for t, c in comb.items()}, birth + 1)
            for col, comb, birth in reduced
        ]
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
            births.append(birth)
            combs.append(comb)
            settled = settled or birth == n
        if settled:
            break
    return births, combs


def _kernel_pass(field: Field, terms, n: int):
    """(births, combs) as tuples: births through the end of the degree block
    holding the first column born at row n, combs through that column.  A
    pass with no column born at row n has overrun the counting bound."""
    if field.q == 2:
        bits = sum(1 << idx for idx, s in enumerate(terms) if s)
        births, combs = _reduce_gf2(bits, n)
    else:
        births, combs = _reduce_generic(field, list(terms), n)
    if n not in births:
        raise RuntimeError("kernel search overran its counting bound")
    return tuple(births), tuple(combs[: births.index(n) + 1])


def _profile(field: Field, terms, n: int) -> ExpansionProfile:
    """E_m for m = 1..n from one pass over the first n terms: the one range
    check of every public entry, and its growth-law guard."""
    if not 0 <= n <= len(terms):
        raise ValueError(f"n={n} is outside 0..{len(terms)}")
    window = terms[:n]
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
    for i, (lo, hi) in enumerate(zip(values, values[1:]), start=1):
        if not (lo <= hi <= lo + 1 or (lo, hi) == (0, 2)):
            raise RuntimeError(
                f"expansion profile growth violated at n={i}: {lo} -> {hi}"
            )
    return ExpansionProfile(tuple(values), field, births, combs)


def _normalized_witness(field: Field, terms: dict) -> BivariatePoly:
    """The witness {(i, j): coefficient} scaled to 1 at its first monomial
    in the canonical order, as every witness and JSON record is."""
    scale = field.inv(terms[min(terms, key=monomial_key)])
    return BivariatePoly._unchecked(
        field, {mono: field.mul(scale, c) for mono, c in terms.items()}
    )


def _witness_from_combo(field: Field, combo, width: int) -> BivariatePoly:
    """Build the certificate polynomial from a column combination (an F_2 bit
    mask, or {key: coefficient}, key j * width + i for x^i y^j)."""
    if isinstance(combo, int):
        combo = {t: 1 for t in range(combo.bit_length()) if (combo >> t) & 1}
    terms = {}
    for t, c in combo.items():
        if c:
            j, i = divmod(t, width)
            terms[(i, j)] = c
    return _normalized_witness(field, terms)


def _growth_guard(values, m: int, e: int) -> None:
    """Raise unless E_m = e keeps both invariants of the kernel search: the
    growth law from E_{m-1} (values[-1], 0 for m = 1), and the counting
    bound kernel_degree_bound(m)."""
    if e > kernel_degree_bound(m):
        raise RuntimeError("kernel search overran its counting bound")
    lo = values[-1] if values else 0
    if not (lo <= e <= lo + 1 or (lo, e) == (0, 2)):
        raise RuntimeError(
            f"expansion profile growth violated at n={m - 1}: {lo} -> {e}"
        )


class _OnlineKernel:
    """The monomial columns of _reduce_generic in row echelon form, one row
    per term of a prefix that grows and shrinks at its end.

    The columns are x^i G^j with i + j <= D = kernel_degree_bound(n), in
    the canonical order (i+j, j, i).  push(s) appends a term s_r: it extends
    [x^r] G^j for every j <= D from the coefficients of the powers already
    held, forms row r of every column, and reduces it against pivot rows
    keyed by their leading (lowest) column, each scaled to 1 there; pop()
    undoes the last push.  On the first m rows, a column depends on the
    columns before it exactly when no pivot row leads with it, so E_m is
    the degree of the first such column, as in the column pass, and the
    pivots of the columns before it give its combination by
    back-substitution.

    terms and values hold the prefix and E_1..E_m; push raises RuntimeError
    when E_m breaks the growth law or the counting bound, as _profile does.
    """

    def __init__(self, field: Field, n: int):
        degree = kernel_degree_bound(n)
        self.field = field
        self.width = degree + 1
        self.columns = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
        self.degrees = [i + j for i, j in self.columns]
        self.pivots: list = [None] * len(self.columns)
        self.powers = [[] for _ in range(degree + 1)]  # coefficients of G^j
        self.terms: list[int] = []
        self.values: list[int] = []
        self.nonzero = 0  # nonzero terms in the prefix
        self.first = 0  # the first column that leads no pivot row
        self._undo: list = []  # (column of the new pivot or -1, first) per push

    def push(self, s: int) -> int:
        """Append term s; return E of the longer prefix."""
        field, terms, powers = self.field, self.terms, self.powers
        add, mul, sub = field.add, field.mul, field.sub
        r = len(terms)
        terms.append(s)
        powers[0].append(0 if r else 1)
        for prev, power in zip(powers, powers[1:]):
            acc = 0
            for a in range(r + 1):
                if prev[a] and terms[r - a]:
                    acc = add(acc, mul(prev[a], terms[r - a]))
            power.append(acc)
        row = [powers[j][r - i] if r >= i else 0 for i, j in self.columns]
        pivots = self.pivots
        lead = -1
        for k, v in enumerate(row):
            if not v:
                continue
            pivot = pivots[k]
            if pivot is None:
                inv = field.inv(v)
                pivots[k] = [0] * k + [mul(inv, x) for x in row[k:]]
                lead = k
                break
            for col in range(k + 1, len(row)):
                if pivot[col]:
                    row[col] = sub(row[col], mul(v, pivot[col]))
        self._undo.append((lead, self.first))
        if lead == self.first:
            while pivots[self.first] is not None:
                self.first += 1
        return self._record(r + 1, s)

    def _record(self, m: int, s: int) -> int:
        if s:
            self.nonzero += 1
        e = self.degrees[self.first] if self.nonzero else 0
        _growth_guard(self.values, m, e)
        self.values.append(e)
        return e

    def pop(self) -> None:
        """Drop the last term."""
        lead, self.first = self._undo.pop()
        if lead >= 0:
            self.pivots[lead] = None
        if self.terms.pop():
            self.nonzero -= 1
        self.values.pop()
        for power in self.powers:
            power.pop()

    def _combination(self) -> dict:
        """{column: coefficient} of the first column that leads no pivot
        row, as a combination of the columns before it, with coefficient 1
        at that column."""
        field, pivots = self.field, self.pivots
        add, mul = field.add, field.mul
        last = self.first
        combo = {last: 1}
        for k in range(last - 1, -1, -1):
            pivot = pivots[k]
            acc = 0
            for col, x in combo.items():
                if pivot[col]:
                    acc = add(acc, mul(pivot[col], x))
            if acc:
                combo[k] = field.neg(acc)
        return combo

    def witness_poly(self) -> Optional[BivariatePoly]:
        """The minimal witness of the current prefix (None while it is all
        zero), as ExpansionProfile.witness(m).poly gives it."""
        if not self.values[-1]:
            return None
        columns = self.columns
        terms = {columns[k]: c for k, c in self._combination().items()}
        return _normalized_witness(self.field, terms)


class _OnlineKernelGF2(_OnlineKernel):
    """_OnlineKernel over F_2 with bits for elements, as in _reduce_gf2.

    Bit a of powers[j] is [x^a] G^j, a row holds column k in bit k, and
    pivot rows are keyed by their lowest bit.  [x^r] G^j is the parity of
    G^(j-1) & R, where bit a of R is s_{r-a}.  Row r takes the bits
    [x^(r-i)] G^j of the columns x^i G^j with i <= D - j, one window of
    powers[j] each, spread to their columns by one table lookup.
    """

    def __init__(self, field: Field, n: int):
        super().__init__(field, n)
        degree = self.width - 1
        index = {mono: k for k, mono in enumerate(self.columns)}
        self.pivots = {}
        self.powers = [1] + [0] * degree
        self.reversed = 0
        self.windows = []  # (shift, mask, table) of each power G^j
        for j in range(degree + 1):
            span = degree - j + 1  # window bit b holds [x^(r-i)] G^j, i = span-1-b
            table = [0] * (1 << span)
            for w in range(1, 1 << span):
                low = w & -w
                b = low.bit_length() - 1
                table[w] = table[w ^ low] | 1 << index[(span - 1 - b, j)]
            self.windows.append((span - 1, (1 << span) - 1, table))

    def push(self, s: int) -> int:
        r = len(self.terms)
        self.terms.append(s)
        rev = self.reversed = self.reversed << 1 | s
        powers = self.powers
        row = 0
        for j, (shift, mask, table) in enumerate(self.windows):
            if j and (powers[j - 1] & rev).bit_count() & 1:
                powers[j] |= 1 << r
            row |= table[(powers[j] << shift) >> r & mask]
        pivots = self.pivots
        low = row & -row
        while row:
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = row
                break
            row ^= hit
            low = row & -row
        self._undo.append((low, self.first))
        first_bit = 1 << self.first
        if low == first_bit:
            while first_bit in pivots:
                first_bit <<= 1
                self.first += 1
        return self._record(r + 1, s)

    def pop(self) -> None:
        low, self.first = self._undo.pop()
        self.pivots.pop(low, None)
        if self.terms.pop():
            self.nonzero -= 1
        self.values.pop()
        self.reversed >>= 1
        keep = (1 << len(self.terms)) - 1
        self.powers = [1] + [power & keep for power in self.powers[1:]]

    def _combination(self) -> dict:
        pivots = self.pivots
        last = self.first
        combo = 1 << last
        for k in range(last - 1, -1, -1):
            if (pivots[1 << k] & combo).bit_count() & 1:
                combo |= 1 << k
        return {k: 1 for k in range(last + 1) if combo >> k & 1}


def online_kernel(field: Field, n: int) -> _OnlineKernel:
    """An empty online kernel for prefixes of up to n terms: packed over
    F_2, generic over every other field."""
    return (_OnlineKernelGF2 if field.q == 2 else _OnlineKernel)(field, n)


def expansion_complexity(seq: Sequence, n: int) -> ExpansionWitness:
    """E_n of seq's first n terms (1 <= n <= len), with a minimal witness
    polynomial."""
    return _profile(seq.field, seq.terms, n).witness(n)


def expansion_value(field: Field, terms, n: int) -> int:
    """E_n of the first n terms (0 <= n <= len), without building a witness.

    terms are raw element indices, so the first n are validated here: the
    kernel pass trusts its input (over F_2 it reads any nonzero as 1).
    """
    for s in terms[:n]:
        field.validate(s)
    values = _profile(field, terms, n).values
    return values[-1] if values else 0


def expansion_profile(seq: Sequence, n_max: int) -> ExpansionProfile:
    """E_n for n = 1..n_max (0 <= n_max <= len), all from one pass over the
    first n_max terms.

    The growth law is enforced before returning: values never decrease and
    rise by at most 1, except that leaving an all-zero prefix may jump from
    0 to 2 (there is no witness to carry over; y itself is only a degree-1
    witness while the prefix is still zero).
    """
    return _profile(seq.field, seq.terms, n_max)
