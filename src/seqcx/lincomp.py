"""Shortest linear recurrences, linear complexity profiles, and rational
generating functions.

The central conventions, used everywhere in this package:

*   A length-L recurrence for the first N terms means
        s_{i+L} + sum_{l=0}^{L-1} c_l * s_{i+l} = 0   for 0 <= i <= N-L-1.
    L_N = 0 for an all-zero prefix, and L_N = N when only the last term of
    the prefix is nonzero (the constraint range is then empty).
*   The connection polynomial C(x) returned by Berlekamp-Massey has
    C(0) = 1 and encodes the recurrence via c_l = C[L-l].  The parameter
    t_N, the least l with c_l != 0, equals L - deg(C); when every listed
    coefficient is zero (deg C = 0) this gives t_N = L.
*   In the degenerate case L = N the recurrence is vacuous; the fit is
    reported with all-zero coefficients and t_N = L, and extension by such
    a fit is refused.

Over F_2, berlekamp_massey and linear_fits run _bm_gf2, a bit-packed pass
whose fits are read straight off the connection polynomial as an int.  The
generic field-method pass _bm_core runs for every other field and is the
packed pass's oracle in the tests: both give equal fits at every length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .field import Field
from .series import (
    Poly,
    TruncatedSeries,
    _unpack_gf2,
    poly_gcd,
    rational_expand,
    series_mul,
)


class Periodicity(NamedTuple):
    preperiod: int
    period: int


@dataclass(frozen=True)
class Sequence:
    """A known prefix of a sequence over a finite field.

    meta, when present, declares the sequence ultimately periodic:
    terms[i + t + T] == terms[i + t] for the preperiod t and period T,
    checked on construction over the available prefix.
    """

    field: Field
    terms: tuple[int, ...]
    meta: Optional[Periodicity] = None

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple(self.field.validate(c) for c in self.terms)
        )
        if self.meta is not None:
            t, period = self.meta
            if t < 0 or period < 1:
                raise ValueError(f"invalid periodicity meta (t={t}, T={period})")
            object.__setattr__(self, "meta", Periodicity(t, period))
            for i in range(t, len(self.terms) - period):
                if self.terms[i] != self.terms[i + period]:
                    raise ValueError(
                        f"terms contradict declared periodicity at index {i}"
                    )

    @classmethod
    def _unchecked(cls, field: Field, terms) -> "Sequence":
        """A sequence without periodicity meta over element indices that
        were drawn or decoded in range."""
        seq = cls.__new__(cls)
        object.__setattr__(seq, "field", field)
        object.__setattr__(seq, "terms", tuple(terms))
        object.__setattr__(seq, "meta", None)
        return seq

    def __len__(self):
        return len(self.terms)

    def prefix_series(self, n: int) -> TruncatedSeries:
        if n > len(self.terms):
            raise ValueError(f"prefix of length {n} exceeds known terms")
        return TruncatedSeries._unchecked(self.field, self.terms[:n])


@dataclass(frozen=True)
class LinearFit:
    """A shortest linear recurrence for the first n terms.

    coeffs lists c_0..c_{L-1}; c_L = 1 is implicit.  t is the least index
    with a nonzero coefficient (t = L when all listed coefficients vanish).
    """

    n: int
    complexity: int
    coeffs: tuple[int, ...]
    t: int

    @property
    def degenerate(self) -> bool:
        """True when the recurrence constrains nothing (L = n)."""
        return self.complexity == self.n and self.complexity > 0


@dataclass(frozen=True)
class RationalForm:
    """Generating function f/g of an ultimately periodic sequence.

    Normalized so that g(0) = 1, deg(f) < L, deg(g) = L - t, gcd(f, g) = 1,
    where L is the linear complexity and t the preperiod.
    """

    f: Poly
    g: Poly
    t: int

    @property
    def complexity(self) -> int:
        return self.g.degree + self.t

    def expand(self, n: int) -> TruncatedSeries:
        return rational_expand(self.f, self.g, n)


def _bm_core(field: Field, terms) -> list[tuple[int, list[int]]]:
    """Berlekamp-Massey over an arbitrary field, as one online pass.

    Entry k of the result is (L, C) for the first k terms (entry 0 is the
    empty prefix): C is the trimmed connection polynomial coefficient list,
    C[0] = 1, deg C <= L, and sum_i C[i] * s_{n-i} = 0 for L <= n < k.
    """
    c = [1]
    b = [1]
    length = 0
    m = -1
    b_disc = 1
    cores = [(0, [1])]
    for n, s_n in enumerate(terms):
        delta = s_n
        for i in range(1, min(length, len(c) - 1) + 1):
            if c[i] and terms[n - i]:
                delta = field.add(delta, field.mul(c[i], terms[n - i]))
        if delta:
            factor = field.mul(delta, field.inv(b_disc))
            shift = n - m
            old_c = list(c)
            if len(c) < len(b) + shift:
                c.extend([0] * (len(b) + shift - len(c)))
            for i, bi in enumerate(b):
                if bi:
                    c[i + shift] = field.sub(c[i + shift], field.mul(factor, bi))
            if 2 * length <= n:
                length = n + 1 - length
                b = old_c
                b_disc = delta
                m = n
        top = len(c)
        while c[top - 1] == 0:
            top -= 1
        cores.append((length, c[:top]))
    return cores


def _fit_from_core(n: int, length: int, conn: list[int]) -> LinearFit:
    if length == n and length > 0:
        # vacuous recurrence: every coefficient vector fits, report zeros
        return LinearFit(n, length, (0,) * length, length)
    deg_c = len(conn) - 1
    coeffs = tuple(conn[length - l] if length - l <= deg_c else 0 for l in range(length))
    return LinearFit(n, length, coeffs, length - deg_c)


def _bm_gf2(terms) -> list[tuple[int, int]]:
    """_bm_core over F_2 with the connection polynomial packed in an int.

    Entry k of the result is (L, C) for the first k terms, where bit i of C
    is C[i].  With R the reversed prefix (bit i = s_{n-i}), the discrepancy
    at step n is the parity of C & R, and the update C -= (d/b) x^(n-m) B
    is one shift and XOR.
    """
    c = b = 1
    length = 0
    m = -1
    r = 0
    cores = [(0, 1)]
    for n, s_n in enumerate(terms):
        r = r << 1 | s_n
        if (c & r).bit_count() & 1:
            old_c = c
            c ^= b << (n - m)
            if 2 * length <= n:
                length = n + 1 - length
                b = old_c
                m = n
        cores.append((length, c))
    return cores


def _fit_from_gf2(n: int, length: int, conn: int) -> LinearFit:
    """_fit_from_core for a connection polynomial packed by _bm_gf2."""
    if length == n and length > 0:
        return LinearFit(n, length, (0,) * length, length)
    if not length:
        return LinearFit(n, 0, (), 0)
    # c_l = C[L - l] for l = 0..L-1: the L low bits of C >> 1, most
    # significant first; deg C <= L keeps C >> 1 below 2^L
    coeffs = _unpack_gf2(conn >> 1, length)[::-1]
    return LinearFit(n, length, coeffs, length + 1 - conn.bit_length())


def _bm_pass(seq: Sequence, n: int):
    """The pass entries for the first n terms, and the fit built from one:
    packed over F_2, generic over every other field."""
    if seq.field.q == 2:
        return _bm_gf2(seq.terms[:n]), _fit_from_gf2
    return _bm_core(seq.field, seq.terms[:n]), _fit_from_core


def berlekamp_massey(seq: Sequence, n: int) -> LinearFit:
    """Shortest linear recurrence for the first n terms of seq."""
    if not 0 <= n <= len(seq.terms):
        raise ValueError(f"n={n} is outside 0..{len(seq.terms)}")
    cores, fit = _bm_pass(seq, n)
    return fit(n, *cores[n])


def linear_fits(seq: Sequence, n_max: int) -> list[LinearFit]:
    """The shortest recurrence for every prefix length n = 1..n_max."""
    if not 0 <= n_max <= len(seq.terms):
        raise ValueError(f"n_max={n_max} is outside 0..{len(seq.terms)}")
    cores, fit = _bm_pass(seq, n_max)
    return [fit(n, *cores[n]) for n in range(1, n_max + 1)]


def linear_profile(seq: Sequence, n_max: int) -> list[int]:
    """L_n for n = 1..n_max; nondecreasing by construction."""
    return [fit.complexity for fit in linear_fits(seq, n_max)]


def rational_form(fit: LinearFit, seq: Sequence) -> RationalForm:
    """Reconstruct G = f/g from a fit that is valid for the whole sequence.

    The denominator is built directly from the recurrence (g_j = c_{L-j},
    with c_L = 1), the numerator as the polynomial part of g*G.  Raises if
    the fit does not actually generate the sequence (the product g*G has a
    nonzero coefficient at or beyond index L) or is not minimal (gcd != 1).
    """
    if seq.meta is None:
        raise ValueError("rational_form requires a declared (preperiod, period)")
    t_decl, period = seq.meta
    if fit.n < t_decl + 2 * period:
        raise ValueError("fit must be computed on at least t + 2T terms")
    f = seq.field
    length = fit.complexity
    g = Poly(f, [1] + [fit.coeffs[length - j] for j in range(1, length - fit.t + 1)])
    # numerator = g * G, which must be a polynomial of degree < L
    avail = len(seq.terms)
    g_series = TruncatedSeries._unchecked(f, (g.coeffs + (0,) * avail)[:avail])
    prod = series_mul(g_series, seq.prefix_series(avail), avail).coeffs
    for idx in range(length, avail):
        if prod[idx]:
            raise ValueError(
                "fit is not consistent with the declared periodic sequence"
            )
    numer = Poly(f, prod[:length])
    if poly_gcd(numer, g) != Poly(f, [1]) and not numer.is_zero():
        raise ValueError("fit is not minimal for this sequence (gcd(f, g) != 1)")
    t = length - g.degree
    return RationalForm(numer, g, t)


def preperiod_from_rational(rf: RationalForm) -> int:
    """max(0, deg f - deg g + 1); agrees with rf.t for normalized forms."""
    if rf.f.is_zero():
        return 0
    return max(0, rf.f.degree - rf.g.degree + 1)


def extend_by_recurrence(seq: Sequence, fit: LinearFit, target_len: int) -> Sequence:
    """Continue seq with u_{i+L} = -sum_{l=t}^{L-1} c_l u_{i+l}.

    The first fit.n terms are kept as-is; the result is ultimately periodic
    with preperiod at most fit.t.  Degenerate fits are refused.
    """
    if target_len < fit.n:
        raise ValueError("target length is shorter than the fitted prefix")
    if fit.degenerate:
        raise ValueError("degenerate fit (L = n) constrains nothing; refusing to extend")
    f = seq.field
    length = fit.complexity
    out = list(seq.terms[: fit.n])
    if length == 0:
        out.extend([0] * (target_len - len(out)))
        return Sequence(f, out, meta=Periodicity(0, 1))
    while len(out) < target_len:
        i = len(out) - length
        acc = 0
        for l in range(fit.t, length):
            cl = fit.coeffs[l]
            if cl and out[i + l]:
                acc = f.add(acc, f.mul(cl, out[i + l]))
        out.append(f.neg(acc))
    return Sequence(f, out)
