"""Expansion complexity by an online sigma-basis, over F_2 by packed columns.

The n-th expansion complexity of a sequence prefix is the least total degree
of a nonzero bivariate polynomial h with h(x, G(x)) = 0 mod x^n, where G is
the generating function of the prefix; it is 0 exactly when the prefix is
all zero.

Order the monomials x^i y^j by (i+j, j, i) up to total degree
D = kernel_degree_bound(n), and call the coefficients (mod x^n) of x^i G^j
the column of x^i y^j.  A column's birth row is the row from which on it is
independent of the columns before it (n if it never is).  On the first m
rows a column depends on its predecessors exactly when it is born at row
>= m, so one set of birth rows serves every m <= n: E_m is the degree d of
the first such column, its combination is the minimal witness (unique up to
scale, as the columns before it are independent), and the decisive system's
rank counts the first M_d = (d+1)(d+2)/2 columns born before row m.

Over every field but F_2, _SigmaBasis finds these a term at a time: the
minimal approximant basis of (1, G, ..., G^D) with shift (0, 1, ..., D)
(Beckermann and Labahn, 1994).  It holds one row per j <= D, a polynomial h
with h(x, G) = 0 mod x^m and leading monomial x^lead y^j, keyed by that
monomial's total degree.  Appending s_r takes each row's residual
[x^r] h(x, G); the row of least (key, j) with a nonzero residual is the
pivot, every other such row subtracts a multiple of it, and the pivot is
multiplied by x: its column x^lead y^j is born at row r.  So x^i y^j
depends on its predecessors on the first m rows exactly when i >= lead of
row j, E_m is the least key, and the row that has it is the witness.  The
exhaustive sweep pushes and pops a term per node (online_kernel); single
sequences, verify and Monte Carlo run _sigma_pass, which pushes every term.

Over F_2, _reduce_gf2 reduces whole columns packed in ints for single
sequences, verify and Monte Carlo, and _OnlineKernelGF2 holds them in row
echelon form, one packed row per term, for the sweep.  The tests check all
three engines against the generic column pass and row echelon that the
sigma-basis replaced (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .field import Field
from .lincomp import Sequence
from .series import BivariatePoly


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
    demand; both are empty for an all-zero prefix.  Only the decisive
    entries of combs are defined, those of the first column born at row
    >= m for each m with E_m > 0: witness reads no other, and the others
    may be None or stale.
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
    combination key k in bit n + k.  Only the columns G^j start from their
    raw bits.  Column x^i G^j with i >= 1 starts as x times the reduced
    x^(i-1) G^j, one shift that moves both halves (the row pushed past
    x^(n-1) is dropped): that is the column plus x times earlier columns,
    each itself an earlier column, so the birth rows are those of reducing
    every column from scratch.  A reduction step is one lookup of the
    lowest set bit among the pivots and one XOR.  Tracking every
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


def _sigma_pass(field: Field, terms, n: int):
    """(births, combs) from pushing every term into one _SigmaBasis: the
    birth row of every column of degree <= D, and the combination of each
    decisive column, keyed as _reduce_gf2 keys them, None at every other.

    The decisive column at m is the one the least row leads after m
    pushes, and that row is its combination.  It is recorded the first time:
    the columns before it are independent there, so it is unique up to
    scale at every m at which that column is decisive.
    """
    basis = _SigmaBasis(field, n)
    births = [n] * monomial_count(basis.width - 1)
    combs: list = [None] * len(births)
    keys = basis.keys
    for r, s in enumerate(terms):
        pivot = basis._extend(s)
        if pivot >= 0:
            key = keys[pivot] - 1
            births[key * (key + 1) // 2 + pivot] = r
        best = basis.best
        key = keys[best]
        k = key * (key + 1) // 2 + best
        if combs[k] is None:
            combs[k] = basis.rows[best]
    return births, combs


def _kernel_pass(field: Field, terms, n: int):
    """(births, combs) as tuples: births through the end of the degree block
    holding the first column born at row n, combs through that column.  A
    pass with no column born at row n has overrun the counting bound."""
    if field.q == 2:
        bits = sum(1 << idx for idx, s in enumerate(terms) if s)
        births, combs = _reduce_gf2(bits, n)
    else:
        births, combs = _sigma_pass(field, terms, n)
    if n not in births:
        raise RuntimeError("kernel search overran its counting bound")
    first = births.index(n)
    end = monomial_count(kernel_degree_bound(first))
    return tuple(births[:end]), tuple(combs[: first + 1])


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
    in the canonical order (i+j, j, i), as every witness and JSON record
    is; terms is a dict of the caller's own, taken as it is when already
    scaled."""
    _, j, i = min((i + j, j, i) for i, j in terms)
    scale = field.inv(terms[(i, j)])
    if scale != 1:
        terms = {mono: field.mul(scale, c) for mono, c in terms.items()}
    return BivariatePoly._unchecked(field, terms)


def _witness_from_combo(field: Field, combo, width: int) -> BivariatePoly:
    """Build the certificate polynomial from a column combination (an F_2 bit
    mask, or {key: coefficient}, key j * width + i for x^i y^j)."""
    if isinstance(combo, int):
        combo = {t: 1 for t in range(combo.bit_length()) if (combo >> t) & 1}
    terms = {(t % width, t // width): c for t, c in combo.items() if c}
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


class _SigmaBasis:
    """An online sigma-basis: E_m and its witness for a prefix that grows
    and shrinks at its end, over any field.

    rows[j] is a polynomial {j' * width + i: coefficient} of x^i y^j' with
    h(x, G) = 0 mod x^m and leading monomial x^lead y^j in the canonical
    order (i+j, j, i); keys[j] = lead + j, and best is the row of least
    (key, j).  Row j starts as y^j, for j <= D = kernel_degree_bound(n).
    Rows are replaced, never changed, so a copy of the row list taken
    before a push is all pop() needs.  terms and values hold the prefix and
    E_1..E_m; push raises RuntimeError when E_m breaks the growth law or
    the counting bound, as _profile does.
    """

    def __init__(self, field: Field, n: int):
        degree = kernel_degree_bound(n)
        self.field = field
        self.width = width = degree + 1
        self.length = n  # the longest prefix
        self.rows = [{j * width: 1} for j in range(width)]
        self.keys = list(range(width))
        self.best = 0
        # powers[j][a] = [x^a] G^j; a pop leaves them as they are, since a
        # coefficient past the prefix is rewritten before it is read
        self.powers = [[1] + [0] * n] + [[0] * n for _ in range(degree)]
        self.terms: list[int] = []
        self.values: list[int] = []
        self.nonzero = 0  # nonzero terms in the prefix
        self._carry = (-1, 0)  # the last pivot and its residual
        self._undo: list = []  # (rows, keys, best, carry) before each push

    def _extend(self, s: int) -> int:
        """Append term s_r and bring every row of key <= D to order r + 1:
        the row of least (key, j) whose residual [x^r] h(x, G) is nonzero
        is the pivot, every other such row subtracts a multiple of it, and
        the pivot is multiplied by x.  Returns the pivot, or -1 when every
        residual is zero.  After the longest prefix's last term, only the
        least row is brought to order r + 1, as no other is read before a
        pop.

        Elimination only uses a row of smaller key, so a row of key > D
        can never change a row of key <= D, and no E_m reaches it: it is
        never read again (and its x^width may alias y).
        """
        field, terms, powers = self.field, self.terms, self.powers
        dot, sparse_dot = field.dot, field.sparse_dot
        r = len(terms)
        terms.append(s)
        if len(powers) > 1:
            powers[1][r] = s
        for prev, power in zip(powers[1:], powers[2:]):
            power[r] = dot(prev, reversed(terms))
        # window[j * width + i] = [x^(r-i)] G^j, so a residual is one sum
        width = self.width
        window: list[int] = []
        if r < width:
            pad = [0] * (width - r - 1)
            for power in powers:
                window += power[r::-1]
                window += pad
        else:
            for power in powers:
                window += power[r:r - width:-1]
        rows, keys, degree = self.rows, self.keys, width - 1
        # the last pivot's residual is the one it had before x times it
        carried, carried_rho = self._carry
        hits = []
        pivot, low, rho = -1, degree + 1, 0
        for j, row in enumerate(rows):
            key = keys[j]
            if key > degree:
                continue
            acc = carried_rho if j == carried else sparse_dot(row, window)
            if acc:
                hits.append((j, acc))
                if key < low:
                    pivot, low, rho = j, key, acc
        self._carry = (pivot, rho)
        if pivot < 0:
            return -1
        keys[pivot] = low + 1
        if pivot == self.best:
            self.best = keys.index(min(keys))
        last = r + 1 == self.length
        prow = rows[pivot]
        scale = field.neg(field.inv(rho))
        for j, acc in hits:
            if j == pivot or last and j != self.best:
                continue
            new = rows[j].copy()
            field.sparse_axpy(new, field.mul(acc, scale), prow)
            rows[j] = new
        rows[pivot] = {t + 1: c for t, c in prow.items()}
        return pivot

    def push(self, s: int) -> int:
        """Append term s; return E of the longer prefix."""
        self._undo.append((self.rows[:], self.keys[:], self.best, self._carry))
        self._extend(s)
        if s:
            self.nonzero += 1
        e = self.keys[self.best] if self.nonzero else 0
        _growth_guard(self.values, len(self.terms), e)
        self.values.append(e)
        return e

    def pop(self) -> None:
        """Drop the last term."""
        rows, keys, self.best, self._carry = self._undo.pop()
        self.rows[:] = rows
        self.keys[:] = keys
        if self.terms.pop():
            self.nonzero -= 1
        self.values.pop()

    def witness_poly(self) -> Optional[BivariatePoly]:
        """The minimal witness of the current prefix (None while it is all
        zero), as ExpansionProfile.witness(m).poly gives it."""
        if not self.values[-1]:
            return None
        return _witness_from_combo(self.field, self.rows[self.best], self.width)


class _OnlineKernelGF2:
    """The columns of _reduce_gf2 in row echelon form, one packed row per
    term of a prefix that grows and shrinks at its end, as in _SigmaBasis.

    Row r holds column k in bit k and is reduced against pivot rows keyed
    by their lowest bit, the column they lead.  E_m is the degree of the
    first column that leads no pivot row, and back-substitution through the
    pivots before it gives its combination.  Bit a of powers[j] is
    [x^a] G^j, and [x^r] G^j is the parity of G^(j-1) & R, where bit a of R
    is s_{r-a}.  Row r takes the bits [x^(r-i)] G^j of the columns x^i G^j
    with i <= D - j, one window of powers[j] each, spread to their columns
    by one table lookup.
    """

    def __init__(self, field: Field, n: int):
        degree = kernel_degree_bound(n)
        self.field = field
        self.columns = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
        self.degrees = [i + j for i, j in self.columns]
        index = {mono: k for k, mono in enumerate(self.columns)}
        self.pivots: dict[int, int] = {}
        self.powers = [1] + [0] * degree
        self.reversed = 0
        self.terms: list[int] = []
        self.values: list[int] = []
        self.nonzero = 0  # nonzero terms in the prefix
        self.first = 0  # the first column that leads no pivot row
        self._undo: list = []  # (lowest bit of the new pivot, first) per push
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
        """Append term s; return E of the longer prefix."""
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
        if s:
            self.nonzero += 1
        e = self.degrees[self.first] if self.nonzero else 0
        _growth_guard(self.values, r + 1, e)
        self.values.append(e)
        return e

    def pop(self) -> None:
        """Drop the last term."""
        low, self.first = self._undo.pop()
        self.pivots.pop(low, None)
        if self.terms.pop():
            self.nonzero -= 1
        self.values.pop()
        self.reversed >>= 1
        keep = (1 << len(self.terms)) - 1
        self.powers = [1] + [power & keep for power in self.powers[1:]]

    def witness_poly(self) -> Optional[BivariatePoly]:
        """The minimal witness of the current prefix (None while it is all
        zero), as ExpansionProfile.witness(m).poly gives it."""
        if not self.values[-1]:
            return None
        pivots, last = self.pivots, self.first
        combo = 1 << last
        for k in range(last - 1, -1, -1):
            if (pivots[1 << k] & combo).bit_count() & 1:
                combo |= 1 << k
        columns = self.columns
        terms = {columns[k]: 1 for k in range(last + 1) if combo >> k & 1}
        return _normalized_witness(self.field, terms)


def online_kernel(field: Field, n: int):
    """An empty online kernel for prefixes of up to n terms: packed over
    F_2, a sigma-basis over every other field."""
    return (_OnlineKernelGF2 if field.q == 2 else _SigmaBasis)(field, n)


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
