import random

import pytest

from seqcx.expcomp import expansion_profile
from seqcx.field import Field
from seqcx.lincomp import Sequence
from seqcx.series import (
    BivariatePoly,
    Poly,
    TruncatedSeries,
    poly_gcd,
    poly_pow,
    rational_expand,
    series_mul,
    series_pow,
    substitute,
)

from seqcx.theorems import frobenius_parameters, frobenius_witness

from oracles import (
    PolyBasisField,
    bivariate_add,
    bivariate_mul,
    convolve_mod,
    monomials_up_to,
    naive_substitute,
    poly_to_series,
    schoolbook_poly_divmod,
    schoolbook_poly_gcd,
    schoolbook_poly_mul,
    schoolbook_rational_expand,
    series_add,
)

# the Field kernels' three paths: F_2, F_101 and F_257 compute in integers,
# F_9 reads operation tables, and F_2^16 (above TABLE_CAP) calls add and mul
# per element
KERNEL_PATHS = [(2, 1), (3, 2), (101, 1), (257, 1), (2, 16)]
KERNEL_PATH_IDS = [f"q{p}^{m}" for p, m in KERNEL_PATHS]


def random_coeffs(rng, field, length):
    """length random elements, a third of them zero."""
    return [rng.randrange(1, field.q) if rng.randrange(3) else 0 for _ in range(length)]


def test_poly_normalization(f7):
    p = Poly(f7, [1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly(f7).degree is None
    assert Poly(f7).is_zero()


def test_zero_degree_marker_resists_arithmetic(f7):
    degree = Poly(f7).degree
    with pytest.raises(TypeError):
        degree + 1  # noqa: B018


def test_poly_gcd_example(f2):
    # x^2 + 1 = (x+1)^2 over F_2
    assert poly_gcd(Poly(f2, [1, 0, 1]), Poly(f2, [1, 1])) == Poly(f2, [1, 1])


def test_poly_mul_example(f7):
    one_minus_x = Poly(f7, [1, 6])
    one_plus_x = Poly(f7, [1, 1])
    assert one_minus_x * one_plus_x == Poly(f7, [1, 0, 6])  # 1 - x^2


def test_poly_divmod_example(f3):
    quo, rem = divmod(Poly(f3, [0, 0, 0, 1]), Poly(f3, [2, 1]))  # x^3 / (x - 1)
    assert quo == Poly(f3, [1, 1, 1])
    assert rem == Poly(f3, [1])


def test_poly_divmod_property(f5):
    rng = random.Random(11)
    for _ in range(50):
        a = Poly(f5, [rng.randrange(5) for _ in range(rng.randrange(8))])
        b = Poly(f5, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        if b.is_zero():
            continue
        quo, rem = divmod(a, b)
        prod = quo * b
        # n covers every nonzero coefficient of each side, so all are compared
        n = max(len(a.coeffs), len(prod.coeffs), len(rem.coeffs), 1)
        assert series_add(poly_to_series(prod, n), poly_to_series(rem, n)) == (
            poly_to_series(a, n)
        )
        assert rem.is_zero() or rem.degree < b.degree


def test_poly_division_by_zero(f5):
    with pytest.raises(ZeroDivisionError):
        divmod(Poly(f5, [1]), Poly(f5))


def test_field_mismatch_raises(f2, f3):
    with pytest.raises(ValueError):
        Poly(f2, [1]) * Poly(f3, [1])


def test_series_mul_examples(f2, f7, f3):
    one_plus_x = TruncatedSeries(f2, [1, 1, 0])
    assert series_mul(one_plus_x, one_plus_x, 3).coeffs == (1, 0, 1)

    ones = TruncatedSeries(f7, [1] * 5)
    one_minus_x = TruncatedSeries(f7, [1, 6, 0, 0, 0])
    assert series_mul(ones, one_minus_x, 5).coeffs == (1, 0, 0, 0, 0)

    ones3 = TruncatedSeries(f3, [1, 1, 1, 1])
    assert series_mul(ones3, ones3, 4).coeffs == (1, 2, 0, 1)


def test_series_mul_requires_order(f2):
    short = TruncatedSeries(f2, [1, 1])
    with pytest.raises(ValueError):
        series_mul(short, short, 3)


def test_series_pow_examples(f7, f2):
    ones = TruncatedSeries(f7, [1, 1, 1, 1])
    assert series_pow(ones, 0, 4).coeffs == (1, 0, 0, 0)
    assert series_pow(ones, 2, 4).coeffs == (1, 2, 3, 4 % 7)
    valuation = TruncatedSeries(f2, [0, 1, 1, 1])
    assert series_pow(valuation, 4, 4).coeffs == (0, 0, 0, 0)


@pytest.mark.parametrize("q_spec", [(2, 1), (3, 1), (3, 2)])
def test_series_pow_products_and_values(q_spec, monkeypatch):
    # e costs one squaring per bit below the top one and one product per
    # further set bit: 0 products for e = 0 and 1, k for e = 2^k
    from seqcx import series

    field = Field(*q_spec)
    rng = random.Random(field.q)
    a = TruncatedSeries(field, [rng.randrange(field.q) for _ in range(8)])
    n = 6
    real_mul = series.series_mul
    calls = []

    def counting_mul(x, y, order):
        calls.append(order)
        return real_mul(x, y, order)

    monkeypatch.setattr(series, "series_mul", counting_mul)
    repeated = TruncatedSeries(field, [1] + [0] * (n - 1))
    for e in range(18):
        calls.clear()
        got = series_pow(a, e, n)
        expected_products = 0 if e < 2 else e.bit_length() - 2 + bin(e).count("1")
        assert len(calls) == expected_products, e
        assert got == repeated, e
        repeated = real_mul(repeated, a.truncate(n), n)


@pytest.mark.parametrize("q_spec", [(2, 1), (7, 1), (3, 2)])
def test_poly_pow_products_and_values(q_spec, monkeypatch):
    # the same product count as series_pow: 0 for e = 0 and 1, k for e = 2^k
    field = Field(*q_spec)
    rng = random.Random(field.q)
    a = Poly(field, [rng.randrange(field.q) for _ in range(3)] + [1])
    real_mul = Poly.__mul__
    calls = []

    def counting_mul(x, y):
        calls.append(1)
        return real_mul(x, y)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    repeated = Poly(field, [1])
    for e in range(18):
        calls.clear()
        got = poly_pow(a, e)
        expected_products = 0 if e < 2 else e.bit_length() - 2 + bin(e).count("1")
        assert len(calls) == expected_products, e
        assert got == repeated, e
        repeated = real_mul(repeated, a)


@pytest.mark.parametrize("q_spec", KERNEL_PATHS, ids=KERNEL_PATH_IDS)
def test_poly_loops_match_schoolbook_on_both_kernel_paths(q_spec):
    # products, division, gcd and rational expansion against per-element
    # loops over polynomial-basis arithmetic, which uses no Field kernel
    field = Field(*q_spec)
    assert (field._ops is None) == (field.m == 1 or field.q > 256)
    ref = PolyBasisField(field)
    rng = random.Random(field.q)
    for _ in range(40):
        a = random_coeffs(rng, field, rng.randrange(10))
        b = random_coeffs(rng, field, rng.randrange(8)) + [rng.randrange(1, field.q)]
        common = random_coeffs(rng, field, rng.randrange(4)) + [1]
        pa, pb = Poly(field, a), Poly(field, b)
        assert (pa * pb).coeffs == tuple(schoolbook_poly_mul(ref, a, b))
        quo, rem = divmod(pa, pb)
        want_quo, want_rem = schoolbook_poly_divmod(ref, a, b)
        assert (quo.coeffs, rem.coeffs) == (tuple(want_quo), tuple(want_rem))
        ca = schoolbook_poly_mul(ref, common, a)
        cb = schoolbook_poly_mul(ref, common, b)
        got = poly_gcd(Poly(field, ca), Poly(field, cb))
        assert got.coeffs == tuple(schoolbook_poly_gcd(ref, ca, cb))
        g = [rng.randrange(1, field.q)] + random_coeffs(rng, field, rng.randrange(6))
        n = rng.randrange(1, 20)
        got = rational_expand(pa, Poly(field, g), n)
        assert got.coeffs == tuple(schoolbook_rational_expand(ref, a, g, n))


def test_series_pow_additive_exponents(f5):
    rng = random.Random(3)
    for _ in range(20):
        a = TruncatedSeries(f5, [rng.randrange(5) for _ in range(6)])
        e1, e2 = rng.randrange(4), rng.randrange(4)
        lhs = series_pow(a, e1 + e2, 6)
        rhs = series_mul(series_pow(a, e1, 6), series_pow(a, e2, 6), 6)
        assert lhs == rhs


def test_rational_expand_examples(f2, f7):
    geo = rational_expand(Poly(f2, [1]), Poly(f2, [1, 1]), 5)
    assert geo.coeffs == (1, 1, 1, 1, 1)

    cubes = rational_expand(Poly(f7, [1]), poly_pow(Poly(f7, [1, 6]), 3), 7)
    assert cubes.coeffs == (1, 3, 6, 3, 1, 0, 0)

    zero = rational_expand(Poly(f7), Poly(f7, [1]), 3)
    assert zero.coeffs == (0, 0, 0)


def test_rational_expand_matches_binomial_oracle(f7):
    import math

    expanded = rational_expand(Poly(f7, [1]), poly_pow(Poly(f7, [1, 6]), 3), 7)
    assert list(expanded.coeffs) == [math.comb(i + 2, 2) % 7 for i in range(7)]


def test_rational_expand_rejects_zero_constant(f7):
    with pytest.raises(ValueError):
        rational_expand(Poly(f7, [1]), Poly(f7, [0, 1]), 4)


def test_rational_expand_roundtrip_random(f7):
    rng = random.Random(19)
    for _ in range(40):
        f = Poly(f7, [rng.randrange(7) for _ in range(rng.randrange(6))])
        g = Poly(f7, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(4)])
        n = 12
        s = rational_expand(f, g, n)
        back = series_mul(s, poly_to_series(g, n), n)
        assert back.coeffs == poly_to_series(f, n).coeffs


def test_substitute_examples(f2, f3):
    ones2 = TruncatedSeries(f2, [1, 1])
    h = BivariatePoly(f2, {(0, 1): 1, (0, 0): 1, (1, 0): 1})  # y - 1 - x
    assert substitute(h, ones2, 2).coeffs == (0, 0)

    any_series = TruncatedSeries(f3, [2, 1, 0, 2])
    xn = BivariatePoly(f3, {(4, 0): 1})
    assert substitute(xn, any_series, 4).coeffs == (0, 0, 0, 0)

    ones3 = TruncatedSeries(f3, [1] * 5)
    h2 = BivariatePoly(f3, {(0, 1): 1, (1, 1): 2, (0, 0): 2})  # (1-x)y - 1
    assert substitute(h2, ones3, 5).coeffs == (0, 0, 0, 0, 0)


def _random_bivariate(field, rng, max_deg=3):
    terms = {}
    for i, j in monomials_up_to(max_deg):
        c = rng.randrange(field.q)
        if c:
            terms[(i, j)] = c
    return BivariatePoly(field, terms)


@pytest.mark.parametrize("q_spec", [(2, 1), (7, 1), (3, 2)])
def test_substitute_is_linear_and_multiplicative(q_spec):
    field = Field(*q_spec)
    rng = random.Random(7)
    n = 8
    for _ in range(15):
        g = TruncatedSeries(field, [rng.randrange(field.q) for _ in range(n)])
        h1 = _random_bivariate(field, rng)
        h2 = _random_bivariate(field, rng)
        assert substitute(bivariate_add(h1, h2), g, n) == series_add(
            substitute(h1, g, n), substitute(h2, g, n)
        )
        assert substitute(bivariate_mul(h1, h2), g, n) == series_mul(
            substitute(h1, g, n), substitute(h2, g, n), n
        )


def test_series_mul_matches_convolution_oracle(f5):
    rng = random.Random(23)
    for _ in range(25):
        a = [rng.randrange(5) for _ in range(7)]
        b = [rng.randrange(5) for _ in range(7)]
        got = series_mul(TruncatedSeries(f5, a), TruncatedSeries(f5, b), 7)
        assert list(got.coeffs) == convolve_mod(a, b, 7, 5)


def test_gf2_series_mul_matches_schoolbook(f2):
    # over F_2 series_mul is a carry-less product of packed ints; operands
    # may be longer than n and must be cut to their first n terms
    rng = random.Random(31)
    for n in (0, 1, 2, 3, 7, 63, 64, 65, 300):
        operands = [[0] * n, [1] * n, [0] * (n - 1) + [1] if n else []]
        operands += [[rng.randrange(2) for _ in range(n)] for _ in range(4)]
        for a in operands:
            b = rng.choice(operands)
            a_long = a + [rng.randrange(2) for _ in range(rng.randrange(3))]
            got = series_mul(TruncatedSeries(f2, a_long), TruncatedSeries(f2, b), n)
            assert list(got.coeffs) == convolve_mod(a, b, n, 2), (a, b)
            assert all(type(c) is int for c in got.coeffs)


def test_gf2_substitute_matches_naive_substitution(f2):
    # powers of G come from the packed product, Frobenius certificates
    # (y^(2^k) terms) included
    rng = random.Random(37)
    n = 160
    terms = [rng.randrange(2) for _ in range(n)]
    seq = Sequence(f2, terms)
    g = seq.prefix_series(n)
    checks = [(frobenius_witness(seq, m), m) for m in (2, 3, 9, 64, 65, n)]
    for _ in range(8):
        h = BivariatePoly(
            f2, {(rng.randrange(n), rng.randrange(12)): 1 for _ in range(5)}
        )
        checks.append((h, rng.randrange(n + 1)))
    for h, m in checks:
        got = substitute(h, g, m)
        assert list(got.coeffs) == naive_substitute(f2, h.terms, terms, m)


def test_bivariate_total_degree_and_normalization(f5):
    h = BivariatePoly(f5, {(2, 1): 3, (0, 0): 0})
    assert h.total_degree == 3
    assert (0, 0) not in h.terms
    assert BivariatePoly(f5).total_degree is None


def test_monomial_order():
    order = list(monomials_up_to(2))
    assert order == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


SUBSTITUTION_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (101, 1)]


@pytest.mark.parametrize("q_spec", SUBSTITUTION_FIELDS)
def test_shared_power_table_matches_naive_substitution(q_spec):
    """Every check of one prefix against one series, in a random order, and
    random polynomials whose y-degrees leave gaps; the oracle convolves
    G^j afresh."""
    field = Field(*q_spec)
    rng = random.Random(1000 * field.q + 5)
    n = 10
    for _ in range(4):
        terms = [rng.randrange(field.q) for _ in range(n)]
        seq = Sequence(field, terms)
        g = seq.prefix_series(n)
        assert g == TruncatedSeries(field, terms)
        checks = []  # (h, m, must vanish)
        profile = expansion_profile(seq, n)
        for m in range(1, n + 1):
            poly = profile.witness(m).poly
            if poly is not None:
                assert poly == BivariatePoly(field, poly.terms)
                checks.append((poly, m, True))
        top_pk = 0
        for m in range(2, n + 1):
            certificate = frobenius_witness(seq, m)
            assert certificate == BivariatePoly(field, certificate.terms)
            top_pk = max(top_pk, max(j for _, j in certificate.terms))
            checks.append((certificate, m, True))
        k, _ = frobenius_parameters(field.p, n)
        assert top_pk == field.p**k  # the largest p^k <= n - 1
        for _ in range(12):
            h = BivariatePoly(
                field,
                {
                    (rng.randrange(n + 2), rng.randrange(7)): rng.randrange(field.q)
                    for _ in range(rng.randrange(1, 6))
                },
            )
            checks.append((h, rng.randrange(n + 1), False))
        rng.shuffle(checks)
        for h, m, vanishes in checks:
            got = substitute(h, g, m)
            assert list(got.coeffs) == naive_substitute(field, h.terms, terms, m)
            if vanishes:
                assert got.is_zero()
        with pytest.raises(ValueError):  # g holds only n terms
            substitute(checks[0][0], g, n + 1)


@pytest.mark.parametrize("q_spec", [(2, 1), (3, 2), (101, 1)])
def test_public_constructors_reject_bad_coefficients(q_spec):
    field = Field(*q_spec)
    for bad in (field.q, -1, 1.0, "1", None):
        with pytest.raises(ValueError):
            TruncatedSeries(field, [0, bad])
        with pytest.raises(ValueError):
            Poly(field, [bad, 1])
        with pytest.raises(ValueError):
            BivariatePoly(field, {(0, 1): bad})
        with pytest.raises(ValueError):
            Sequence(field, [1, bad])
