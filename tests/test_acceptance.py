"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is also part of the default `pytest` run.
"""

import itertools
import json
from pathlib import Path

import pytest

from seqcx import binomial
from seqcx.expcomp import (
    expansion_complexity,
    expansion_value,
    kernel_degree_bound,
)
from seqcx.field import Field, is_prime
from seqcx.lincomp import Periodicity, Sequence, berlekamp_massey, linear_profile
from seqcx.seqfile import dump_json
from seqcx.series import substitute
from seqcx.experiments import (
    ExhaustiveConfig,
    MonteCarloConfig,
    count_low_expansion,
    enumerate_all,
    monte_carlo,
)

from oracles import (
    brute_force_expansion,
    chi_square_consistency,
    gf,
    min_recurrence_length_gf2,
    poly_to_series,
)

PRIMES_TO_31 = [p for p in range(2, 32) if is_prime(p)]
FIXTURE = Path(__file__).parent / "fixtures" / "e16_q2_distribution.json"

F2 = Field(2)


def binomial_cases():
    return [(p, k) for p in PRIMES_TO_31 for k in range(1, p)]


def e_at_full_period(p, k):
    seq = binomial.generate(binomial.BinomialSpec(p, k), p)
    return expansion_value(seq.field, seq.terms, p)


@pytest.fixture(scope="module")
def mc_result():
    cfg = MonteCarloConfig(F2, samples=4096, seed=7, schedule=(16, 25, 36, 49, 64))
    return monte_carlo(cfg)


def test_criterion_1_binomial_exact_case():
    cases = [(p, k) for p, k in binomial_cases() if (k + 1) * (k + 2) < p]
    assert cases, "threshold cases exist below 31"
    for p, k in cases:
        assert e_at_full_period(p, k) == k + 2, (p, k)
    print(f"PASS criterion-1: E_p = k+2 on all {len(cases)} exact cases (p <= 31)")


def test_criterion_2_binomial_interval_case():
    cases = [(p, k) for p, k in binomial_cases() if (k + 1) * (k + 2) >= p]
    for p, k in cases:
        prediction = binomial.predicted_expansion(binomial.BinomialSpec(p, k))
        observed = e_at_full_period(p, k)
        assert prediction.kind == "interval"
        assert prediction.lo <= observed <= prediction.hi, (p, k, prediction, observed)
    assert e_at_full_period(7, 2) == 2
    assert e_at_full_period(11, 2) == 3
    print(
        f"PASS criterion-2: E_p inside the predicted interval on all "
        f"{len(cases)} cases; E_7=2 and E_11=3 at k=2"
    )


def test_criterion_3_linear_complexity_predictions():
    for p, k in binomial_cases():
        seq = binomial.generate(binomial.BinomialSpec(p, k), 2 * p)
        fit = berlekamp_massey(seq, 2 * p)
        assert fit.complexity == k + 1, (p, k, fit.complexity)
        _, bound = binomial.predicted_linear_complexity(binomial.BinomialSpec(p, k))
        profile = linear_profile(seq, 2 * p)
        for n in range(1, 2 * p + 1):
            assert profile[n - 1] >= bound(n), (p, k, n)
    print(
        f"PASS criterion-3: L = k+1 and the profile lower bound hold on all "
        f"{len(binomial_cases())} (p, k) pairs, p <= 31"
    )


def test_criterion_4_generating_function_identity():
    from seqcx.series import series_mul

    for p, k in binomial_cases():
        spec = binomial.BinomialSpec(p, k)
        seq = binomial.generate(spec, p)
        denominator = poly_to_series(gf(spec).g, p)
        product = series_mul(denominator, seq.prefix_series(p), p)
        assert product.coeffs == (1,) + (0,) * (p - 1), (p, k)
    print(
        "PASS criterion-4: (1-x)^(k+1) * G = 1 mod x^p for all (p, k), p <= 31"
    )


def test_criterion_5_all_ones_exact_values():
    for q in (2, 3, 5):
        field = Field(q)
        seq = Sequence(field, [1] * 50, meta=Periodicity(0, 1))
        values = [expansion_value(field, seq.terms, n) for n in range(1, 51)]
        assert values[0] == 1 and values[1] == 1
        assert all(v == 2 for v in values[2:]), q
    print(
        "PASS criterion-5: all-ones over F_2/F_3/F_5 has E_1=E_2=1 and "
        "E_n=2 for 3 <= n <= 50"
    )


def test_criterion_6_exhaustive_zero_violation_sweep():
    res2 = enumerate_all(ExhaustiveConfig(F2, 8))
    assert res2.record.total == 256
    assert res2.violations == 0, res2.failures_by_claim
    res3 = enumerate_all(ExhaustiveConfig(Field(3), 5))
    assert res3.record.total == 243
    assert res3.violations == 0, res3.failures_by_claim
    print(
        "PASS criterion-6: zero violations across 256 (q=2, n=8) and "
        "243 (q=3, n=5) prefixes for P2, L3, T4, R.simple, R.subadd, "
        "R.frobenius, R.kernel"
    )


def test_criterion_7_oracle_equivalence():
    checked_e = 0
    for n in range(1, 7):
        for bits in itertools.product((0, 1), repeat=n):
            seq = Sequence(F2, list(bits))
            wit = expansion_complexity(seq, n)
            oracle = brute_force_expansion(seq, n, 3)
            assert oracle is not None and wit.complexity == oracle.complexity
            checked_e += 1
    checked_l = 0
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            fit = berlekamp_massey(Sequence(F2, list(bits)), n)
            assert fit.complexity == min_recurrence_length_gf2(bits, n), (bits, n)
            checked_l += 1
    print(
        f"PASS criterion-7: kernel E_n == brute force on {checked_e} prefixes "
        f"(n <= 6); BM L_n == exhaustive minimum on {checked_l} prefixes (n <= 12)"
    )


def test_criterion_8_witness_validity():
    total = 0

    def validate(seq, wit):
        nonlocal total
        if wit.complexity == 0:
            assert wit.poly is None
            return
        assert wit.poly.total_degree == wit.complexity
        assert substitute(wit.poly, seq.prefix_series(wit.n), wit.n).is_zero()
        total += 1

    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            seq = Sequence(F2, list(bits))
            validate(seq, expansion_complexity(seq, n))
    for digits in itertools.product((0, 1, 2), repeat=5):
        seq = Sequence(Field(3), list(digits))
        validate(seq, expansion_complexity(seq, 5))
    for p, k in binomial_cases():
        seq = binomial.generate(binomial.BinomialSpec(p, k), p)
        validate(seq, expansion_complexity(seq, p))
    for q in (2, 3, 5):
        seq = Sequence(Field(q), [1] * 50)
        for n in (1, 2, 25, 50):
            validate(seq, expansion_complexity(seq, n))
    print(f"PASS criterion-8: {total} emitted witnesses all pass independent substitution")


def test_criterion_9a_exact_e16_distribution_matches_fixture():
    fixture = json.loads(FIXTURE.read_text())
    res = enumerate_all(ExhaustiveConfig(F2, 16, checks=False))
    counts = [[v, res.record.counts[v]] for v in sorted(res.record.counts)]
    assert res.record.total == fixture["total"] == 65536
    assert counts == fixture["counts"]
    print(f"PASS criterion-9a: enumerated E_16 distribution equals fixture {counts}")


def test_criterion_9b_monte_carlo_chi_square(mc_result):
    fixture = json.loads(FIXTURE.read_text())
    probs = {v: c / fixture["total"] for v, c in fixture["counts"]}
    outcome = chi_square_consistency(mc_result.records[16].counts, probs, 4096)
    assert outcome["p_value"] >= 0.01, outcome
    print(
        f"PASS criterion-9b: chi-square p={outcome['p_value']:.3f} >= 0.01 "
        f"(4096 samples, seed 7, df={outcome['df']})"
    )


def test_criterion_9c_schedule_report(mc_result):
    assert max(mc_result.records[64].counts) <= 10
    assert kernel_degree_bound(64) == 10
    for eps in ("0.25", "0.5"):
        fractions = mc_result.low_fractions[eps]
        assert set(fractions) == {16, 25, 36, 49, 64}
        for n in fractions:
            assert 0.0 <= fractions[n] <= 1.0
    lines = [
        f"  eps={eps}: "
        + " ".join(
            f"n={n}:{mc_result.low_fractions[eps][n]:.4f}"
            for n in sorted(mc_result.low_fractions[eps])
        )
        for eps in ("0.25", "0.5")
    ]
    print(
        "PASS criterion-9c: every sampled E_64 <= 10; fraction below "
        "sqrt((1-eps) n), reported unthresholded:\n" + "\n".join(lines)
    )


def test_criterion_10_low_expansion_probe():
    record = enumerate_all(ExhaustiveConfig(F2, 4)).record
    probe = count_low_expansion(record, 1)
    assert (probe.count, probe.reference) == (4, 2)
    assert probe.exploratory and probe.to_dict()["exploratory"] is True
    again_record = enumerate_all(ExhaustiveConfig(F2, 4)).record
    again = count_low_expansion(again_record, 1)
    assert probe.to_dict() == again.to_dict()
    print(
        "PASS criterion-10: #{E_4 <= 1} = 4 vs q^(b^2) = 2, deterministic and "
        "labeled exploratory"
    )


def test_criterion_11_experiment_determinism():
    runs = [
        enumerate_all(ExhaustiveConfig(F2, 7, workers=w)).to_dict()
        for w in (1, 1, 3)
    ]
    assert dump_json(runs[0]) == dump_json(runs[1]) == dump_json(runs[2])
    mc_runs = [
        monte_carlo(
            MonteCarloConfig(F2, samples=64, seed=42, schedule=(9, 16), workers=w)
        ).to_dict()
        for w in (1, 2)
    ]
    assert dump_json(mc_runs[0]) == dump_json(mc_runs[1])
    probes = [
        count_low_expansion(
            enumerate_all(ExhaustiveConfig(F2, 6)).record, 2
        ).to_dict()
        for _ in range(2)
    ]
    assert dump_json(probes[0]) == dump_json(probes[1])
    print(
        "PASS criterion-11: byte-identical JSON for repeated configs, "
        "including varied worker counts"
    )
