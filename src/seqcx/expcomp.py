"""Expansion complexity by an online sigma-basis.

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

_SigmaBasis finds these a term at a time: the minimal approximant basis
of (1, G, ..., G^D) with shift (0, 1, ..., D) (Beckermann and Labahn,
1994).  It holds one row per j <= D, a polynomial h with h(x, G) = 0 mod
x^m and leading monomial x^lead y^j, keyed by that monomial's total
degree.  Appending s_r takes each row's residual
[x^r] h(x, G); the row of least (key, j) with a nonzero residual is the
pivot, every other such row subtracts a multiple of it, and the pivot is
multiplied by x: its column x^lead y^j is born at row r.  So x^i y^j
depends on its predecessors on the first m rows exactly when i >= lead of
row j, E_m is the least key, and the row that has it is the witness.  The
exhaustive sweep pushes and pops a term per node (online_kernel).  Rows
have two representations: {key: coefficient} dicts, and over F_2
_SigmaBasisGF2's ints, one bit per monomial, with the same pivots, keys
and carry.

Single sequences, verify and Monte Carlo run _sigma_pass, which pushes
every term into the same sigma-basis, except over F_2: there _reduce_gf2
reduces whole columns packed in ints, which is faster for one sequence.
F_2 Monte Carlo runs blocks of samples through lane_profiles, the same
step rule bit-sliced across samples, which yields E_m only; schedules past
experiments.LANE_LENGTH_BOUND, and blocks with fewer samples than terms,
take _reduce_gf2 per sample.  The tests check the engines against the
generic column pass and row echelon that the sigma-basis replaced
(tests/oracles.py), and the lanes against _profile.
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
    j * W + i for x^i y^j, W = kernel_degree_bound(n) + 1: {key:
    coefficient} dicts, over F_2 int bit masks, bit key set) through that
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
    """(births, combs) from pushing every term into one online_kernel: the
    birth row of every column of degree <= D, and the combination of each
    decisive column, keyed as _reduce_gf2 keys them, None at every other.

    The decisive column at m is the one the least row leads after m
    pushes, and that row is its combination.  It is recorded the first time:
    the columns before it are independent there, so it is unique up to
    scale at every m at which that column is decisive.
    """
    basis = online_kernel(field, n)
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
    if e * (e + 1) // 2 > m:  # e > kernel_degree_bound(m)
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
    before a push, with the keys, best, carry and series, is all pop()
    needs.  series is what the residuals read of G: here the lists
    powers[j][a] = [x^a] G^j, changed in place, which a pop may leave as
    they are, since a coefficient past the prefix is rewritten before it
    is read.  terms and values hold the prefix and E_1..E_m; push raises
    RuntimeError when E_m breaks the growth law or the counting bound, as
    _profile does.

    A subclass changes only the row representation and its arithmetic:
    _start, _window, _residual and _eliminate.
    """

    def __init__(self, field: Field, n: int):
        self.field = field
        self.width = width = kernel_degree_bound(n) + 1
        self.length = n  # the longest prefix
        self.rows, self.series = self._start()
        self.keys = list(range(width))
        self.best = 0
        self.terms: list[int] = []
        self.values: list[int] = []
        self.nonzero = 0  # nonzero terms in the prefix
        self._carry = (-1, 0)  # the last pivot and its residual
        self._undo: list = []  # (rows, keys, best, carry, series) before each push

    def _start(self):
        """The rows y^j and the series before the first term."""
        n, width = self.length, self.width
        rows = [{j * width: 1} for j in range(width)]
        return rows, [[1] + [0] * n] + [[0] * n for _ in range(width - 1)]

    def _window(self, r: int):
        """Advance the series by term s_r; return the window that _residual
        reads: window[j * width + i] = [x^(r-i)] G^j."""
        terms, powers, dot = self.terms, self.series, self.field.dot
        if len(powers) > 1:
            powers[1][r] = terms[r]
        for prev, power in zip(powers[1:], powers[2:]):
            power[r] = dot(prev, reversed(terms))
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
        return window

    # [x^r] h(x, G) of the row h: _residual(field, h, window)
    _residual = staticmethod(Field.sparse_dot)

    def _eliminate(self, pivot: int, rho: int, hits) -> None:
        """Clear the residual acc of each row j of hits, a list of (j, acc),
        with the pivot row, of residual rho, then multiply the pivot by x
        (hits may hold the pivot itself)."""
        field, rows = self.field, self.rows
        prow = rows[pivot]
        scale = field.neg(field.inv(rho))
        for j, acc in hits:
            if j == pivot:
                continue
            new = rows[j].copy()
            field.sparse_axpy(new, field.mul(acc, scale), prow)
            rows[j] = new
        rows[pivot] = {t + 1: c for t, c in prow.items()}

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
        r = len(self.terms)
        self.terms.append(s)
        window = self._window(r)
        field, residual = self.field, self._residual
        rows, keys, degree = self.rows, self.keys, self.width - 1
        # the last pivot's residual is the one it had before x times it
        carried, carried_rho = self._carry
        hits = []
        pivot, low, rho = -1, degree + 1, 0
        for j, row in enumerate(rows):
            key = keys[j]
            if key > degree:
                continue
            acc = carried_rho if j == carried else residual(field, row, window)
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
        if r + 1 == self.length:
            hits = [hit for hit in hits if hit[0] == self.best]
        self._eliminate(pivot, rho, hits)
        return pivot

    def push(self, s: int) -> int:
        """Append term s; return E of the longer prefix."""
        self._undo.append(
            (self.rows[:], self.keys[:], self.best, self._carry, self.series)
        )
        self._extend(s)
        if s:
            self.nonzero += 1
        e = self.keys[self.best] if self.nonzero else 0
        _growth_guard(self.values, len(self.terms), e)
        self.values.append(e)
        return e

    def pop(self) -> None:
        """Drop the last term."""
        self.rows, self.keys, self.best, self._carry, self.series = self._undo.pop()
        if self.terms.pop():
            self.nonzero -= 1
        self.values.pop()

    def witness_poly(self) -> Optional[BivariatePoly]:
        """The minimal witness of the current prefix (None while it is all
        zero), as ExpansionProfile.witness(m).poly gives it."""
        if not self.values[-1]:
            return None
        return _witness_from_combo(self.field, self.rows[self.best], self.width)


class _SigmaBasisGF2(_SigmaBasis):
    """The sigma-basis over F_2 with packed rows: bit j * width + i of a row
    is the coefficient of x^i y^j, a residual is the parity of the row AND a
    packed window, elimination is XOR and x times a row is one shift.

    series is (window, reversed prefix, powers), replaced at every push:
    bit j * width + i of the window is [x^(r-i)] G^j, bit a of the
    reversed prefix is s_(r-a), and bit a of powers[j] is [x^a] G^j, so
    [x^r] G^j is the parity of powers[j-1] AND the reversed prefix.  A push
    moves the window one term on: a shift left by 1, the bits of i = 0
    cleared (the shift spilled block j-1's last bit there), and the new
    bits [x^r] G^j put in their place.
    """

    def _start(self):
        width = self.width
        # the window's bits of i = 1..D in every block j <= D; this also
        # drops what the shift pushes past block D
        block = (1 << width) - 2
        self._keep = sum(block << j * width for j in range(width))
        rows = [1 << j * width for j in range(width)]
        return rows, (0, 0, [1] + [0] * (width - 1))

    def _window(self, r: int):
        window, rev, powers = self.series
        rev = rev << 1 | self.terms[r]
        width = self.width
        # the bits of i = 0: [x^r] G^j for each j, [x^r] 1 = 1 only at r = 0
        new = 0 if r else 1
        powers = powers[:]
        bit = 1 << r
        # G^(2k) = G^k(x^2) over F_2, so an even power gains no term at odd r
        for j in range(1, width, 1 + (r & 1)):
            if (powers[j - 1] & rev).bit_count() & 1:
                powers[j] |= bit
                new |= 1 << j * width
        window = (window << 1) & self._keep | new
        self.series = (window, rev, powers)
        return window

    @staticmethod
    def _residual(field: Field, row: int, window: int) -> int:
        return (row & window).bit_count() & 1

    def _eliminate(self, pivot: int, rho: int, hits) -> None:
        rows = self.rows
        prow = rows[pivot]
        for j, _ in hits:
            rows[j] ^= prow
        rows[pivot] = prow << 1  # over the zero that XOR left if it was a hit


def lane_profiles(columns, lanes: int):
    """Yield E_m of many F_2 prefixes at once, for m = 1..n, n = len(columns).

    The prefixes are bit-sliced: bit l of columns[i] is term s_i of lane l,
    for lanes 0..lanes-1.  Each yield is a list onehot of D + 1 masks, D =
    kernel_degree_bound(n): bit l of onehot[e] is set when lane l has E_m = e.

    This is _SigmaBasisGF2's step rule run on every lane through masks, so
    no lane branches, with a row held as its series h_j(x, G) mod x^n: the
    residual at step r is coefficient r, and x times a row is a shift.
    series[j][t] is coefficient t of row j in every lane, starting from G^j,
    and keys[j][k] the lanes where row j has key k (a row whose key passes
    D leaves keys[j] and is never read again).  The pivot is the row of
    least (key, j) with a nonzero residual; it is XORed into every other
    such row and then multiplied by x, and its key rises by one.  E_m is
    the least key, or 0 while the prefix is all zero.  Rows carry no
    coefficients, so no witness can be read off; each step checks both
    guards of _SigmaBasis.push on every lane, and the first offending lane
    raises through _growth_guard.
    """
    n = len(columns)
    width = kernel_degree_bound(n) + 1
    series, keys = _lane_start(columns, lanes, width)
    full = (1 << lanes) - 1
    nonzero = 0  # lanes with a nonzero term so far
    previous = [full]  # E_0 = 0 in every lane
    for r in range(n):
        nonzero |= columns[r]
        # pivots[j]: lanes whose pivot is row j; hits[j]: lanes where row j
        # (of key <= D) has a nonzero residual
        pivots, hits = [0] * width, [0] * width
        taken = 0
        for k in range(width):
            for j in range(k + 1):
                hit = keys[j][k] & series[j][r]
                if hit:
                    hits[j] |= hit
                    hit &= ~taken
                    if hit:
                        # the pivot's key rises now: at key k + 1 its lanes
                        # are taken, and already hits
                        pivots[j] |= hit
                        taken |= hit
                        keys[j][k] ^= hit
                        if k < width - 1:
                            keys[j][k + 1] |= hit
        if r + 1 < n and taken:
            _lane_eliminate(series, pivots, hits, r)
        onehot = [full & ~nonzero]
        found = 0
        for k in range(1, width):
            level = 0
            for j in range(k + 1):
                level |= keys[j][k]
            onehot.append(level & nonzero & ~found)
            found |= level
        _lane_guard(previous, onehot, nonzero & ~found, r + 1)
        previous = onehot
        yield onehot


def _lane_start(columns, lanes: int, width: int):
    """(series, keys) before the first term: row j is y^j, of key j in
    every lane, and its series is G^j mod x^n, bit-sliced as columns is.
    G^(2k) is G^k with x -> x^2, and G^(2k+1) is G^(2k) times G."""
    n = len(columns)
    full = (1 << lanes) - 1
    keys = [[0] * width for _ in range(width)]
    for j in range(width):
        keys[j][j] = full
    powers = [[full] + [0] * (n - 1)]
    for j in range(1, width):
        if j % 2 == 0:
            power = [0] * n
            power[::2] = powers[j // 2][: (n + 1) // 2]
        else:
            even = powers[j - 1]
            power = [0] * n
            for a in range(0, n, 2):
                coeff = even[a]
                if coeff:
                    power[a:] = [c ^ (coeff & g) for c, g in zip(power[a:], columns)]
        powers.append(power)
    return powers, keys


def _lane_eliminate(series, pivots, hits, r: int) -> None:
    """Step r's elimination on coefficients r+1.. of every row: XOR the
    lane's pivot row into each other hit row, then x times the pivot."""
    pivot_tail = [0] * (len(series[0]) - r - 1)  # each lane's pivot row
    for row, mask in zip(series, pivots):
        if mask:
            pivot_tail = [a ^ (c & mask) for a, c in zip(pivot_tail, row[r + 1:])]
    for row, shift, hit in zip(series, pivots, hits):
        add = hit & ~shift
        if add and shift:
            row[r + 1:] = [
                a ^ (p & add) ^ ((a ^ b) & shift)
                for a, b, p in zip(row[r + 1:], row[r:], pivot_tail)
            ]
        elif shift:
            row[r + 1:] = [a ^ ((a ^ b) & shift) for a, b in zip(row[r + 1:], row[r:])]
        elif add:
            row[r + 1:] = [a ^ (p & add) for a, p in zip(row[r + 1:], pivot_tail)]


def _lane_guard(previous, onehot, overrun: int, m: int) -> None:
    """Raise through _growth_guard for the first lane whose E_m (onehot,
    or past D in the lanes of overrun) breaks the counting bound or the
    growth law from E_(m-1) (previous)."""
    bad = overrun
    for e, mask in enumerate(onehot):
        if e * (e + 1) // 2 > m:
            bad |= mask
            continue
        allowed = previous[e] if e < len(previous) else 0
        if 0 < e <= len(previous):
            allowed |= previous[e - 1]
        if e == 2:
            allowed |= previous[0]
        bad |= mask & ~allowed
    if bad:
        lane = (bad & -bad).bit_length() - 1
        lo = next(e for e, mask in enumerate(previous) if mask >> lane & 1)
        hi = next((e for e, mask in enumerate(onehot) if mask >> lane & 1), len(onehot))
        _growth_guard([lo], m, hi)


def online_kernel(field: Field, n: int) -> _SigmaBasis:
    """An empty online sigma-basis for prefixes of up to n terms: one
    engine with two row representations, ints over F_2 and {key:
    coefficient} dicts over every other field.  Single F_2 sequences take
    _reduce_gf2 instead (_kernel_pass), and F_2 Monte Carlo blocks
    lane_profiles."""
    return (_SigmaBasisGF2 if field.q == 2 else _SigmaBasis)(field, n)


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
