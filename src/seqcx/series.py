"""Univariate polynomials, truncated power series, and bivariate polynomials.

All coefficient data is stored as field element indices (see field.Field),
constant term first.  Polynomials are normalized (no trailing zeros); a
truncated series keeps exactly its truncation order of coefficients, trailing
zeros included, because the order itself is data.

The degree of the zero polynomial is reported as None rather than -1 so that
accidental arithmetic on it fails loudly instead of producing nonsense.

The public constructors validate every coefficient; results computed here
from values already validated are built with ``_unchecked`` instead.

Over F_2, series_mul is a carry-less product of packed ints, which
series_pow and substitute inherit; the tests check it against a schoolbook
convolution, and substitute against a naive one.  It shares no code with the
bit-packed kernel of expcomp, so a witness check does not rest on the
arithmetic that found the witness.
"""

from __future__ import annotations

from .field import Field


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError("operands belong to different fields")


class Poly:
    """Dense univariate polynomial over a Field, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = [field.validate(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __add__(self, other):
        _check_same_field(self, other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [f.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __mul__(self, other):
        _check_same_field(self, other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly(f, out)

    def __divmod__(self, other):
        _check_same_field(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        if len(rem) <= db:
            return Poly(f), Poly(f, rem)
        quo = [0] * (len(rem) - db)
        inv_lead = f.inv(other.coeffs[-1])
        for i in range(len(rem) - db - 1, -1, -1):
            factor = f.mul(rem[i + db], inv_lead)
            if factor:
                quo[i] = factor
                for j, bj in enumerate(other.coeffs):
                    rem[i + j] = f.sub(rem[i + j], f.mul(factor, bj))
        return Poly(f, quo), Poly(f, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly(f, [f.mul(c, a) for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    _check_same_field(a, b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_pow(a: Poly, e: int) -> Poly:
    """a^e by square-and-multiply; e = 0 gives the polynomial 1.

    Takes no product for e = 1 and k products for e = 2^k.
    """
    if e < 0:
        raise ValueError("polynomial exponent must be >= 0")
    out = None if e else Poly(a.field, [1])
    base = a
    while e:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if e:
            base = base * base
    return out


class TruncatedSeries:
    """The first N coefficients of a formal power series (mod x^N)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = tuple(field.validate(c) for c in coeffs)

    @classmethod
    def _unchecked(cls, field: Field, coeffs) -> "TruncatedSeries":
        """A series over element indices the library computed itself."""
        series = cls.__new__(cls)
        series.field = field
        series.coeffs = tuple(coeffs)
        return series

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, n: int) -> "TruncatedSeries":
        if n > self.order:
            raise ValueError(f"series of order {self.order} cannot extend to {n}")
        return TruncatedSeries._unchecked(self.field, self.coeffs[:n])

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)})"


# element indices 0 and 1 to ASCII binary digits, and back
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _unpack_gf2(x: int, k: int) -> tuple[int, ...]:
    """The k low bits of x as F_2 element indices, least significant first."""
    digits = format(x & ((1 << k) - 1), f"0{k}b")[::-1]
    return tuple(digits.encode().translate(_FROM_DIGITS))


def _mul_gf2(ac, bc, n: int) -> tuple[int, ...]:
    """The first n >= 1 coefficients of a*b over F_2: b packed in an int
    (bit j = b_j), shifted by i and XORed in for every a_i = 1."""
    b = int(bytes(bc[n - 1 :: -1]).translate(_TO_DIGITS), 2)
    acc = 0
    for i, ai in enumerate(ac[:n]):
        if ai:
            acc ^= b << i
    return _unpack_gf2(acc, n)


def series_mul(a: TruncatedSeries, b: TruncatedSeries, n: int) -> TruncatedSeries:
    """Product modulo x^n: a carry-less product of packed ints over F_2,
    schoolbook convolution over every other field."""
    _check_same_field(a, b)
    if a.order < n or b.order < n:
        raise ValueError(f"operands must be defined to order {n}")
    f = a.field
    if f.q == 2 and n:
        return TruncatedSeries._unchecked(f, _mul_gf2(a.coeffs, b.coeffs, n))
    add, mul = f.add, f.mul
    bc = b.coeffs
    out = [0] * n
    for i, ai in enumerate(a.coeffs[:n]):
        if ai:
            for j in range(n - i):
                bj = bc[j]
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return TruncatedSeries._unchecked(f, out)


def series_pow(a: TruncatedSeries, e: int, n: int) -> TruncatedSeries:
    """a^e modulo x^n by square-and-multiply; e = 0 gives the series 1.

    Takes no product for e = 1 and k products for e = 2^k.
    """
    if e < 0:
        raise ValueError("series exponent must be >= 0")
    out = None if e else TruncatedSeries._unchecked(a.field, ([1] + [0] * (n - 1))[:n])
    base = a if a.order == n else a.truncate(n)
    while e:
        if e & 1:
            out = base if out is None else series_mul(out, base, n)
        e >>= 1
        if e:
            base = series_mul(base, base, n)
    return out


def rational_expand(f: Poly, g: Poly, n: int) -> TruncatedSeries:
    """The unique series S with g*S = f mod x^n, by forward substitution.

    Requires g(0) != 0.
    """
    _check_same_field(f, g)
    fl = f.field
    if g.coeff(0) == 0:
        raise ValueError("denominator must have a nonzero constant term")
    inv_g0 = fl.inv(g.coeff(0))
    out = [0] * n
    gdeg = len(g.coeffs) - 1
    for i in range(n):
        acc = f.coeff(i)
        for t in range(1, min(i, gdeg) + 1):
            gt = g.coeffs[t]
            if gt and out[i - t]:
                acc = fl.sub(acc, fl.mul(gt, out[i - t]))
        out[i] = fl.mul(acc, inv_g0)
    return TruncatedSeries._unchecked(fl, out)


def monomial_key(mono: tuple[int, int]) -> tuple[int, int, int]:
    """Canonical ordering of bivariate monomials x^i y^j: by (i+j, j, i)."""
    i, j = mono
    return (i + j, j, i)


class BivariatePoly:
    """Sparse bivariate polynomial: {(i, j): coeff} for x^i y^j terms."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            c = field.validate(c)
            if c:
                if i < 0 or j < 0:
                    raise ValueError("monomial exponents must be >= 0")
                clean[(i, j)] = c
        self.field = field
        self.terms = clean

    @classmethod
    def _unchecked(cls, field: Field, terms: dict) -> "BivariatePoly":
        """A polynomial over nonzero element indices the library computed
        itself, keyed by exponent pairs (i, j) with i, j >= 0."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.terms = terms
        return poly

    @property
    def total_degree(self):
        """Max i + j over stored terms, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(i + j for i, j in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, BivariatePoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in self.items_sorted():
            part = [] if c == 1 and (i or j) else [str(c)]
            if i:
                part.append("x" if i == 1 else f"x^{i}")
            if j:
                part.append("y" if j == 1 else f"y^{j}")
            bits.append("*".join(part))
        return " + ".join(bits)

    def __repr__(self):
        return f"BivariatePoly({self})"


def substitute(h: BivariatePoly, g: TruncatedSeries, n: int) -> TruncatedSeries:
    """Evaluate h(x, G(x)) modulo x^n, for any g of order at least n.

    This is the reference checker used to validate expansion-complexity
    witnesses, independent of how they were produced.  It works on G mod x^n
    and builds the powers of G that h needs in increasing order, each from
    the one before it by series_mul (over F_2, its packed product).
    """
    if h.field != g.field:
        raise ValueError("operands belong to different fields")
    if n > g.order:
        raise ValueError(f"series of order {g.order} cannot extend to {n}")
    f = h.field
    add, mul = f.add, f.mul
    base = g if g.order == n else g.truncate(n)
    power, have = None, 0  # power is G^have, for have >= 1
    out = [0] * n
    for (i, j), c in sorted(h.terms.items(), key=lambda term: term[0][1]):
        if i >= n:
            continue
        if j != have:
            step = base if j - have == 1 else series_pow(base, j - have, n)
            power, have = step if have == 0 else series_mul(power, step, n), j
        if not have:
            out[i] = add(out[i], c)
            continue
        pj = power.coeffs
        for t in range(n - i):
            if pj[t]:
                out[i + t] = add(out[i + t], mul(c, pj[t]))
    return TruncatedSeries._unchecked(f, out)
