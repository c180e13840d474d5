import pytest

from seqcx.binomial import (
    BinomialSpec,
    ExpansionPrediction,
    analyze,
    generate,
    predicted_expansion,
    predicted_linear_complexity,
)
from seqcx.expcomp import expansion_value
from seqcx.field import is_prime
from seqcx.series import rational_expand, series_mul, substitute

from oracles import binomial_terms, binomial_upper_bound_witness, gf, poly_to_series

PRIMES_TO_31 = [p for p in range(2, 32) if is_prime(p)]


def all_specs(p_max=31):
    return [
        BinomialSpec(p, k)
        for p in PRIMES_TO_31
        if p <= p_max
        for k in range(1, p)
    ]


def test_generate_examples():
    assert generate(BinomialSpec(7, 2), 7).terms == (1, 3, 6, 3, 1, 0, 0)
    assert generate(BinomialSpec(5, 4), 5).terms == (1, 0, 0, 0, 0)
    assert generate(BinomialSpec(5, 1), 5).terms == (1, 2, 3, 4, 0)


def test_generate_matches_comb_oracle():
    for spec in all_specs(13):
        got = generate(spec, 2 * spec.p).terms
        assert list(got) == binomial_terms(spec.p, spec.k, 2 * spec.p)


def test_generate_tail_vanishes():
    for spec in all_specs(13):
        period = generate(spec, spec.p).terms
        assert all(period[i] == 0 for i in range(spec.p - spec.k, spec.p))
        assert all(period[i] != 0 for i in range(spec.p - spec.k))


def test_generate_is_purely_periodic():
    for spec in all_specs(13):
        seq = generate(spec, 2 * spec.p)
        assert seq.meta == (0, spec.p)
        assert seq.terms[: spec.p] == seq.terms[spec.p :]


def test_spec_validation():
    with pytest.raises(ValueError):
        BinomialSpec(4, 1)
    with pytest.raises(ValueError):
        BinomialSpec(7, 0)
    with pytest.raises(ValueError):
        BinomialSpec(7, 7)


def test_gf_examples():
    rf = gf(BinomialSpec(7, 2))
    assert rf.f.coeffs == (1,)
    assert rf.g.degree == 3 and rf.t == 0
    assert rational_expand(rf.f, rf.g, 7).coeffs == (1, 3, 6, 3, 1, 0, 0)

    rf = gf(BinomialSpec(5, 1))
    assert rational_expand(rf.f, rf.g, 5).coeffs == (1, 2, 3, 4, 0)

    # k = p-1: 1/(1-x)^p = 1/(1-x^p), impulse train of period p
    rf = gf(BinomialSpec(5, 4))
    assert rational_expand(rf.f, rf.g, 10).coeffs == (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)


def test_denominator_identity_spot():
    # (1-x)^(k+1) * G = 1 mod x^p
    for spec in all_specs(13):
        seq = generate(spec, spec.p)
        g_series = seq.prefix_series(spec.p)
        denom = poly_to_series(gf(spec).g, spec.p)
        product = series_mul(denom, g_series, spec.p)
        assert product.coeffs == (1,) + (0,) * (spec.p - 1)


def test_predicted_linear_complexity_values():
    l, bound = predicted_linear_complexity(BinomialSpec(7, 2))
    assert l == 3
    l, bound = predicted_linear_complexity(BinomialSpec(13, 6))
    assert bound(8) == 4  # ceil(8/2)
    l, bound = predicted_linear_complexity(BinomialSpec(5, 4))
    assert bound(10) == 1  # p - k


def test_predicted_expansion_values():
    assert predicted_expansion(BinomialSpec(13, 2)) == ExpansionPrediction("exact", 4, 4)
    assert predicted_expansion(BinomialSpec(7, 2)) == ExpansionPrediction("interval", 2, 2)
    assert predicted_expansion(BinomialSpec(11, 2)) == ExpansionPrediction("interval", 3, 3)
    assert predicted_expansion(BinomialSpec(5, 4)) == ExpansionPrediction("interval", 1, 1)


def test_upper_bound_witness_annihilates():
    for spec in all_specs():
        witness = binomial_upper_bound_witness(spec)
        seq = generate(spec, spec.p)
        assert substitute(witness, seq.prefix_series(spec.p), spec.p).is_zero()
        # the construction realizes the interval's upper endpoint; in the
        # exact case the sharper bound comes from the g*y - f certificate
        prediction = predicted_expansion(spec)
        if prediction.kind == "interval":
            assert witness.total_degree <= prediction.hi


def test_analyze_examples():
    for p, k in ((7, 2), (13, 2), (5, 4), (2, 1)):
        reports = analyze(BinomialSpec(p, k))
        assert all(r.passed for r in reports), [(r.claim_id, r.outcome) for r in reports]


def test_interval_case_observed_value():
    # where the interval endpoints coincide, the value is pinned
    for p, k, expected in ((7, 2, 2), (11, 2, 3)):
        seq = generate(BinomialSpec(p, k), p)
        assert expansion_value(seq.field, seq.terms, p) == expected
