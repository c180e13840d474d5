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

Berlekamp-Massey is one update step whose states are never mutated:
_bm_gf2_step over F_2, with the polynomials packed in ints and the fits
read straight off the connection polynomial, and the field-method _bm_step
over every other field; over F_2 the tests check the two give equal fits at
every length.  online_bm is the one place that picks the field's step.
berlekamp_massey and linear_fits run _bm_core, one loop over that step,
and the exhaustive sweep calls the step once per node of its prefix tree,
so an extension shares its prefix's state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .field import Field
from .series import (
    Poly,
    TruncatedSeries,
    _unpack_gf2,
    poly_gcd,
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


_BM_START = ([1], [1], 0, -1, 1)


def _bm_step(field: Field, state, terms, n: int):
    """One Berlekamp-Massey step: the state after term n, from the state
    after terms 0..n-1.

    A state (C, B, L, m, b) holds the trimmed connection polynomial C (a
    list, C[0] = 1, deg C <= L), the polynomial B it had before the last
    length change at step m, and that step's discrepancy b; _BM_START is the
    state of the empty prefix.  States are never mutated, so one can be
    shared by every extension of its prefix.
    """
    c, b, length, m, b_disc = state
    # c_i pairs with s_{n-i} for i = 1..L (L <= n)
    recent = reversed(terms[n - length : n])
    delta = field.add(terms[n], field.dot(c[1 : length + 1], recent))
    if not delta:
        return state
    factor = field.mul(delta, field.inv(b_disc))
    shift = n - m
    new_c = c + [0] * (len(b) + shift - len(c))
    field.axpy(new_c, shift, field.neg(factor), b)
    top = len(new_c)
    while new_c[top - 1] == 0:
        top -= 1
    del new_c[top:]
    if 2 * length <= n:
        return new_c, c, n + 1 - length, n, delta
    return new_c, b, length, m, b_disc


def _fit_from_core(n: int, length: int, conn: list[int]) -> LinearFit:
    if length == n and length > 0:
        # vacuous recurrence: every coefficient vector fits, report zeros
        return LinearFit(n, length, (0,) * length, length)
    deg_c = len(conn) - 1
    coeffs = tuple(conn[length - l] if length - l <= deg_c else 0 for l in range(length))
    return LinearFit(n, length, coeffs, length - deg_c)


_BM_GF2_START = (1, 1, 0, -1, 0)


def _bm_gf2_step(state, terms, n: int):
    """_bm_step over F_2 with the polynomials packed in ints: the state
    (C, B, L, m, R) after term n, where bit i of C is C[i] and R is
    the reversed prefix (bit i = s_{n-i}).  The discrepancy at step n is
    the parity of C & R, and the update C -= (d/b) x^(n-m) B is one shift
    and XOR.  _BM_GF2_START is the state of the empty prefix.
    """
    c, b, length, m, r = state
    r = r << 1 | terms[n]
    if (c & r).bit_count() & 1:
        if 2 * length <= n:
            return c ^ b << (n - m), c, n + 1 - length, n, r
        return c ^ b << (n - m), b, length, m, r
    return c, b, length, m, r


def _fit_from_gf2(n: int, length: int, conn: int) -> LinearFit:
    """_fit_from_core for a connection polynomial packed by _bm_gf2_step."""
    if length == n and length > 0:
        return LinearFit(n, length, (0,) * length, length)
    if not length:
        return LinearFit(n, 0, (), 0)
    # c_l = C[L - l] for l = 0..L-1: the L low bits of C >> 1, most
    # significant first; deg C <= L keeps C >> 1 below 2^L
    coeffs = _unpack_gf2(conn >> 1, length)[::-1]
    return LinearFit(n, length, coeffs, length + 1 - conn.bit_length())


def online_bm(field: Field):
    """Berlekamp-Massey a term at a time: (start, step, fit), where start is
    the empty prefix's state, step(state, terms, n) the state after term n
    and fit(n, state) its LinearFit.  Packed over F_2, generic elsewhere."""
    if field.q == 2:
        start, step, fit = _BM_GF2_START, _bm_gf2_step, _fit_from_gf2
    else:
        start, step, fit = _BM_START, functools.partial(_bm_step, field), _fit_from_core
    return start, step, lambda n, state: fit(n, state[2], state[0])


def _bm_core(field: Field, terms):
    """Berlekamp-Massey as one online pass of the field's step: (states,
    fit), where states[k] is the state after the first k terms (states[0]
    that of the empty prefix) and fit(k, states[k]) its LinearFit."""
    state, step, fit = online_bm(field)
    states = [state]
    for n in range(len(terms)):
        state = step(state, terms, n)
        states.append(state)
    return states, fit


def berlekamp_massey(seq: Sequence, n: int) -> LinearFit:
    """Shortest linear recurrence for the first n terms of seq."""
    if not 0 <= n <= len(seq.terms):
        raise ValueError(f"n={n} is outside 0..{len(seq.terms)}")
    states, fit = _bm_core(seq.field, seq.terms[:n])
    return fit(n, states[n])


def linear_fits(seq: Sequence, n_max: int) -> list[LinearFit]:
    """The shortest recurrence for every prefix length n = 1..n_max."""
    if not 0 <= n_max <= len(seq.terms):
        raise ValueError(f"n_max={n_max} is outside 0..{len(seq.terms)}")
    states, fit = _bm_core(seq.field, seq.terms[:n_max])
    return [fit(n, states[n]) for n in range(1, n_max + 1)]


def linear_profile(seq: Sequence, n_max: int) -> list[int]:
    """L_n for n = 1..n_max; nondecreasing by construction."""
    return [fit.complexity for fit in linear_fits(seq, n_max)]


def rational_form(fit: LinearFit, seq: Sequence) -> RationalForm:
    """Reconstruct G = f/g from a fit that is valid for the whole sequence.

    The denominator is built directly from the recurrence (g_j = c_{L-j},
    with c_L = 1), the numerator as the polynomial part of g*G.  Raises if
    the fit does not actually generate the sequence (the product g*G has a
    nonzero coefficient at or beyond index L) or is not minimal (gcd != 1).
    The fit must span 2(t + T) >= 2L terms of the declared (t, T): on fewer,
    a fit that passes both checks can still give the wrong (L, t).
    """
    if seq.meta is None:
        raise ValueError("rational_form requires a declared (preperiod, period)")
    t_decl, period = seq.meta
    if fit.n < 2 * (t_decl + period):
        raise ValueError("fit must be computed on at least 2(t + T) terms")
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
    # c_t..c_{L-1} pair with the last L - t terms
    tail = fit.coeffs[fit.t :]
    while len(out) < target_len:
        out.append(f.neg(f.dot(tail, out[len(out) - len(tail) :])))
    return Sequence(f, out)
