"""Univariate polynomials, truncated power series, and bivariate polynomials.

All coefficient data is stored as field element indices (see field.Field),
constant term first.  Polynomials are normalized (no trailing zeros); a
truncated series keeps exactly its truncation order of coefficients, trailing
zeros included, because the order itself is data.

The degree of the zero polynomial is reported as None rather than -1 so that
accidental arithmetic on it fails loudly instead of producing nonsense.

The public constructors validate every coefficient; results computed here
from values already validated are built with ``_unchecked`` instead.
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

    def __sub__(self, other):
        _check_same_field(self, other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [f.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self):
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

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
    if e < 0:
        raise ValueError("polynomial exponent must be >= 0")
    out = Poly(a.field, [1])
    base = a
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


class TruncatedSeries:
    """The first N coefficients of a formal power series (mod x^N).

    _powers memoises G^0..G^j mod x^N for substitute.  It is only ever
    replaced by a longer tuple, never changed in place, so a reader holding
    the old tuple never sees a wrong index.
    """

    __slots__ = ("field", "coeffs", "_powers")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = tuple(field.validate(c) for c in coeffs)
        self._powers = ()

    @classmethod
    def _unchecked(cls, field: Field, coeffs) -> "TruncatedSeries":
        """A series over element indices the library computed itself."""
        series = cls.__new__(cls)
        series.field = field
        series.coeffs = tuple(coeffs)
        series._powers = ()
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


def poly_to_series(p: Poly, n: int) -> TruncatedSeries:
    return TruncatedSeries._unchecked(p.field, [p.coeff(i) for i in range(n)])


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    _check_same_field(a, b)
    if a.order != b.order:
        raise ValueError("series orders differ")
    f = a.field
    return TruncatedSeries._unchecked(
        f, [f.add(x, y) for x, y in zip(a.coeffs, b.coeffs)]
    )


def series_mul(a: TruncatedSeries, b: TruncatedSeries, n: int) -> TruncatedSeries:
    """Product modulo x^n by schoolbook convolution."""
    _check_same_field(a, b)
    if a.order < n or b.order < n:
        raise ValueError(f"operands must be defined to order {n}")
    f = a.field
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
    """a^e modulo x^n by square-and-multiply; e = 0 gives the series 1."""
    if e < 0:
        raise ValueError("series exponent must be >= 0")
    f = a.field
    out = TruncatedSeries(f, [1] + [0] * (n - 1))
    base = a.truncate(n)
    while e:
        if e & 1:
            out = series_mul(out, base, n)
        base = series_mul(base, base, n)
        e >>= 1
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


def monomials_up_to(d: int):
    """All (i, j) with i + j <= d in canonical order."""
    for total in range(d + 1):
        for j in range(total + 1):
            yield (total - j, j)


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

    def __add__(self, other):
        _check_same_field(self, other)
        f = self.field
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = f.add(out.get(mono, 0), c)
        return BivariatePoly(f, out)

    def __sub__(self, other):
        _check_same_field(self, other)
        f = self.field
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = f.sub(out.get(mono, 0), c)
        return BivariatePoly(f, out)

    def __mul__(self, other):
        _check_same_field(self, other)
        f = self.field
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                mono = (i1 + i2, j1 + j2)
                out[mono] = f.add(out.get(mono, 0), f.mul(c1, c2))
        return BivariatePoly(f, out)

    def scale(self, c: int) -> "BivariatePoly":
        f = self.field
        return BivariatePoly(f, {m: f.mul(c, v) for m, v in self.terms.items()})


def _power_table(g: TruncatedSeries, j: int) -> tuple:
    """G^0..G^j mod x^N for N = g.order, built on demand by series_mul and
    kept on g for later calls."""
    powers = g._powers
    if len(powers) <= j:
        one = ((1,) + (0,) * (g.order - 1))[: g.order]
        grown = list(powers) or [TruncatedSeries._unchecked(g.field, one)]
        while len(grown) <= j:
            grown.append(series_mul(grown[-1], g, g.order))
        g._powers = powers = tuple(grown)
    return powers


def substitute(h: BivariatePoly, g: TruncatedSeries, n: int) -> TruncatedSeries:
    """Evaluate h(x, G(x)) modulo x^n, for any g of order at least n.

    This is the reference checker used to validate expansion-complexity
    witnesses, independent of how they were produced.  G^j mod x^n is read
    as the first n coefficients of G^j mod x^N (N = g.order; truncation is a
    ring homomorphism), from one table of powers kept on g, so every check
    against the same g shares it.
    """
    if h.field != g.field:
        raise ValueError("operands belong to different fields")
    if n > g.order:
        raise ValueError(f"series of order {g.order} cannot extend to {n}")
    f = h.field
    add, mul = f.add, f.mul
    max_j = max((j for _, j in h.terms), default=0)
    powers = _power_table(g, max_j)
    out = [0] * n
    for (i, j), c in h.terms.items():
        if i >= n:
            continue
        pj = powers[j].coeffs
        for t in range(n - i):
            if pj[t]:
                out[i + t] = add(out[i + t], mul(c, pj[t]))
    return TruncatedSeries._unchecked(f, out)
