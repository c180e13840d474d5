import json
import multiprocessing
from pathlib import Path

import pytest

from seqcx import experiments, series, theorems
from seqcx.experiments import (
    DEFAULT_SCHEDULE,
    EXHAUSTIVE_CAP,
    ExperimentConfig,
    _attainable_t_values,
    count_low_expansion,
    draw_element,
    enumerate_all,
    monte_carlo,
    sample_terms,
    tn_ambiguity_scan,
)
from seqcx.field import Field

from oracles import chi_square_consistency, chi_square_sf, per_leaf_sweep

MC_DISTRIBUTIONS = Path(__file__).parent / "fixtures" / "mc_distributions.json"


def exhaustive(field, n, **kw):
    return ExperimentConfig(field, n, "exhaustive", **kw)


def test_enumerate_n1_distribution(f2):
    res = enumerate_all(exhaustive(f2, 1))
    assert res.record.counts == {0: 1, 1: 1}
    assert res.violations == 0


def test_enumerate_n4_kernel_bound(f2):
    res = enumerate_all(exhaustive(f2, 4))
    assert res.record.total == 16
    assert sum(c for v, c in res.record.counts.items() if v <= 2) == 16
    assert res.violations == 0


def test_enumerate_counts_l_and_t(f2):
    res = enumerate_all(exhaustive(f2, 4))
    assert sum(res.record.counts_l.values()) == 16
    # L=0 only for the zero prefix; L=4 only for [0,0,0,1]
    assert res.record.counts_l[0] == 1
    assert res.record.counts_l[4] == 1


def test_enumerate_cap():
    from seqcx.field import Field

    with pytest.raises(ValueError):
        exhaustive(Field(2), 40)
    assert 2**40 > EXHAUSTIVE_CAP


def test_enumerate_deterministic_across_workers(f2):
    one = enumerate_all(exhaustive(f2, 6))
    two = enumerate_all(exhaustive(f2, 6, workers=3))
    assert one.to_dict() == two.to_dict()


def test_mode_mismatch(f2):
    with pytest.raises(ValueError):
        enumerate_all(ExperimentConfig(f2, 0, "montecarlo", samples=4))
    with pytest.raises(ValueError):
        monte_carlo(exhaustive(f2, 4))
    with pytest.raises(ValueError):
        ExperimentConfig(f2, 4, "nonsense")
    with pytest.raises(ValueError):
        ExperimentConfig(f2, 0, "montecarlo", samples=0)


@pytest.mark.parametrize(
    "fields",
    [
        {"samples": 5},
        {"seed": 3},
        {"samples": -1},
        {"schedule": (2,)},
        {"schedule": ()},
    ],
)
def test_exhaustive_config_rejects_monte_carlo_fields(f2, fields):
    with pytest.raises(ValueError):
        exhaustive(f2, 3, **fields)


@pytest.mark.parametrize(
    "n, fields",
    [
        (0, {"low_b": 1}),
        (0, {"low_b": 0}),
        (4, {"checks": False}),
        (3, {"schedule": (2, 4)}),
    ],
)
def test_montecarlo_config_rejects_unread_fields(f2, n, fields):
    with pytest.raises(ValueError):
        ExperimentConfig(f2, n, "montecarlo", samples=2, **fields)


def test_configs_accept_the_fields_their_mode_reads(f2):
    # the unset values of the other mode's fields are accepted
    assert exhaustive(f2, 3, samples=0, seed=0, low_b=1, checks=False).n == 3
    cfg = ExperimentConfig(f2, 0, "montecarlo", samples=2, seed=4, schedule=(3,))
    assert cfg.resolved_schedule() == (3,)
    assert ExperimentConfig(f2, 5, "montecarlo", samples=2).resolved_schedule() == (5,)


def test_count_low_expansion_examples(f2):
    record = enumerate_all(exhaustive(f2, 4)).record
    probe = count_low_expansion(record, 1)
    assert (probe.count, probe.reference) == (4, 2)
    assert probe.ratio == 2.0
    assert probe.exploratory
    assert probe.to_dict()["exploratory"] is True

    assert count_low_expansion(record, 0).count == 1

    wide_record = enumerate_all(exhaustive(f2, 10, checks=False)).record
    wide = count_low_expansion(wide_record, 2)
    assert wide.reference == 16
    again = enumerate_all(exhaustive(f2, 10, checks=False)).record
    assert wide.count == count_low_expansion(again, 2).count

    with pytest.raises(ValueError):
        count_low_expansion(monte_carlo(
            ExperimentConfig(f2, 0, "montecarlo", samples=1, schedule=(4,))
        ).records[4], 1)


def test_draw_element_deterministic_and_in_range(f3):
    values = [draw_element(7, 3, i, 3) for i in range(50)]
    assert values == [draw_element(7, 3, i, 3) for i in range(50)]
    assert all(0 <= v < 3 for v in values)
    assert sample_terms(7, 3, 50, 3) == values
    # different stream, different values
    assert sample_terms(7, 4, 50, 3) != values
    # sample_terms draws exactly what draw_element defines; at q = 2^63 + 1
    # about half the first attempts are rejected and redrawn
    for q in (2, 3, 9, 101, (1 << 63) + 1):
        for seed, stream in ((0, 0), (7, 3), (5, 1 << 40), (-1, 12345)):
            terms = sample_terms(seed, stream, 40, q)
            assert terms == [draw_element(seed, stream, i, q) for i in range(40)]
            assert all(0 <= v < q for v in terms)


def test_monte_carlo_reproducible(f2):
    cfg = ExperimentConfig(f2, 0, "montecarlo", samples=1, seed=123, schedule=(8,))
    first = monte_carlo(cfg).to_dict()
    second = monte_carlo(cfg).to_dict()
    assert first == second


def test_monte_carlo_matches_recorded_distributions():
    # whole MonteCarloResult records, recorded with an engine that reduced
    # every column from scratch and a sampler that drew term by term
    for case in json.loads(MC_DISTRIBUTIONS.read_text()):
        cfg = ExperimentConfig(
            Field(case["p"], case["m"]), 0, "montecarlo", samples=case["samples"],
            seed=case["seed"], schedule=tuple(case["schedule"]),
        )
        assert monte_carlo(cfg).to_dict() == case["result"]


def test_monte_carlo_workers_invariant(f2):
    base = ExperimentConfig(f2, 0, "montecarlo", samples=40, seed=5, schedule=(8, 9))
    split = ExperimentConfig(
        f2, 0, "montecarlo", samples=40, seed=5, schedule=(8, 9), workers=3
    )
    assert monte_carlo(base).to_dict() == monte_carlo(split).to_dict()


# fields whose modulus is not the default one: F_9 with x^2 + x + 2, and
# F_16 with 1 + x + x^2 + x^3 + x^4, where x is not primitive
GIVEN_MODULUS_FIELDS = [(3, 2, (2, 1, 1)), (2, 4, (1, 1, 1, 1, 1))]


@pytest.mark.parametrize("p, m, modulus", GIVEN_MODULUS_FIELDS)
def test_given_modulus_field_same_records_across_workers(p, m, modulus):
    field = Field(p, m, modulus)
    assert field.modulus != Field(p, m).modulus
    one = enumerate_all(exhaustive(field, 3))
    two = enumerate_all(exhaustive(field, 3, workers=2))
    assert one.violations == 0
    assert one.to_dict() == two.to_dict()
    cfg = dict(samples=24, seed=7, schedule=(6, 9))
    one = monte_carlo(ExperimentConfig(field, 0, "montecarlo", **cfg))
    two = monte_carlo(ExperimentConfig(field, 0, "montecarlo", workers=2, **cfg))
    assert one.to_dict() == two.to_dict()


def test_chunks_use_the_callers_field(f9, monkeypatch):
    # the field and its tables travel with the chunk; none is built again
    built = []
    real_init = Field.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counting_init)
    enumerate_all(exhaustive(f9, 2))
    monte_carlo(ExperimentConfig(f9, 0, "montecarlo", samples=4, schedule=(5,)))
    assert built == []


def test_monte_carlo_extension_field(f4):
    cfg = ExperimentConfig(f4, 0, "montecarlo", samples=16, seed=3, schedule=(6,))
    result = monte_carlo(cfg)
    record = result.records[6]
    assert record.total == 16
    assert all(0 <= v <= 3 for v in record.counts)  # kernel bound at n=6
    assert result.to_dict() == monte_carlo(cfg).to_dict()


def test_monte_carlo_default_schedule(f2):
    cfg = ExperimentConfig(f2, 0, "montecarlo", samples=1, seed=1)
    assert cfg.resolved_schedule() == DEFAULT_SCHEDULE


def test_monte_carlo_matches_exhaustive_at_small_n(f2):
    # sampled distribution at n=8 vs the exact one over all 256 prefixes
    exact = enumerate_all(exhaustive(f2, 8, checks=False))
    probs = {v: c / exact.record.total for v, c in exact.record.counts.items()}
    mc = monte_carlo(
        ExperimentConfig(f2, 0, "montecarlo", samples=2048, seed=11, schedule=(8,))
    )
    result = chi_square_consistency(mc.records[8].counts, probs, 2048)
    assert result["p_value"] >= 0.01


def test_chi_square_rejects_shifted_distribution():
    observed = {3: 900, 4: 100}
    probs = {3: 0.1, 4: 0.9}
    result = chi_square_consistency(observed, probs, 1000)
    assert result["p_value"] < 1e-6


def test_chi_square_sf_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for df in range(1, 80):
        for stat in [0.0, 1e-3, 0.5] + [float(x) for x in range(1, 301, 7)]:
            expected = special.gammaincc(df / 2.0, stat / 2.0)
            got = chi_square_sf(stat, df)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_chi_square_needs_two_bins():
    with pytest.raises(ValueError):
        chi_square_consistency({1: 5}, {1: 1.0}, 5)


def test_attainable_t_examples():
    # [1,1]: L=1, unique recurrence s_{i+1} = s_i, so t = {0}
    assert _attainable_t_values(0b11, 2, 1) == {0}
    # [0,1]: degenerate L=2, any coefficients fit: t in {0,1,2}
    assert _attainable_t_values(0b10, 2, 2) == {0, 1, 2}
    # [1,0]: L=1, forces c_0 = 0, so t = L = 1
    assert _attainable_t_values(0b01, 2, 1) == {1}


def test_tn_scan(f2):
    report = tn_ambiguity_scan(exhaustive(f2, 6))
    d = report.to_dict()
    assert d["zero_skipped"] == 1
    assert d["singleton_t"] + d["ambiguous_t"] + 1 == 64
    # the canonical choice never violates the prefix bounds on this sweep
    assert d["canonical_choice_failures"] == 0
    assert d["bounds_hold_for_all_choices"] + d["bounds_fail_for_some_choice"] == 63


def test_tn_scan_guards(f2, f3):
    with pytest.raises(ValueError):
        tn_ambiguity_scan(exhaustive(f3, 4))
    with pytest.raises(ValueError):
        tn_ambiguity_scan(exhaustive(f2, 12))


def test_records_serialize_canonically(f2):
    res = enumerate_all(exhaustive(f2, 5))
    d = res.record.to_dict()
    assert d["counts"] == sorted(d["counts"])
    assert sum(c for _, c in d["counts"]) == d["total"]
    assert set(d["stats"]) == {"mean_ratio", "median_ratio", "min_ratio"}


def test_e16_fixture_low_bins_against_direct_oracle(f2):
    # the frozen E_16 distribution's bins {0, 1, 2} recounted straight from
    # the definition, with no shared linear algebra
    import json
    from pathlib import Path

    from oracles import count_low_expansion_gf2_direct

    fixture = json.loads(
        (Path(__file__).parent / "fixtures" / "e16_q2_distribution.json").read_text()
    )
    low = sum(c for v, c in fixture["counts"] if v <= 2)
    assert count_low_expansion_gf2_direct(16) == low == 1040


def test_tn_scan_full_cap(f2):
    # within the scan's whole admissible range, the prefix bounds hold for
    # every attainable shortest-recurrence choice, not just the canonical one
    report = tn_ambiguity_scan(exhaustive(f2, 8))
    d = report.to_dict()
    assert d["canonical_choice_failures"] == 0
    assert d["bounds_fail_for_some_choice"] == 0
    assert d["bounds_hold_for_all_choices"] == 255


@pytest.mark.parametrize(
    "q_spec, n", [((2, 1), 8), ((3, 1), 5), ((2, 2), 4), ((3, 2), 3)]
)
def test_checked_and_unchecked_sweeps_tally_alike(q_spec, n):
    # the checked sweep reads L_n, t_n and E_n off whole profiles, the
    # unchecked one off a single fit and the last profile value
    field = Field(*q_spec)
    checked = enumerate_all(exhaustive(field, n))
    unchecked = enumerate_all(exhaustive(field, n, checks=False))
    assert checked.violations == 0
    assert checked.record.to_dict() == unchecked.record.to_dict()


# -- each distinct prefix graded once, weighted by the leaves below it -------

WEIGHTING_CASES = [((2, 1), 9), ((3, 1), 5), ((2, 2), 4), ((3, 2), 3)]
INJECTED_CLAIMS = {"L3", "R.simple", "R.frobenius.witness", "T4.lower"}


def inject_failures(monkeypatch):
    """Make the battery fail on some prefixes, each time as a function of
    the first m terms alone, as every real check is."""
    real_simple = theorems.simple_upper_bound
    real_lower = theorems.periodic_lower_bound
    real_substitute = series.substitute
    real_report = theorems._report

    def simple(n):
        return real_simple(n) - n % 2

    def lower(l, t, n):
        return real_lower(l, t, n) + ((l + t + n) % 3 == 0)

    def substitute(h, g, n):
        # a Frobenius certificate is substituted once, at the longest length
        # of its k, and its terms past a shorter length m can differ between
        # leaves that share the first m terms; its y-degree p^k and constant
        # term -s_0^(p^k) cannot, nor can anything of an E_m witness
        residual = real_substitute(h, g, n)
        y_degree = max(j for _, j in h.terms)
        if (n + y_degree + h.terms.get((0, 0), 0)) % 3 == 0:
            return series.TruncatedSeries._unchecked(g.field, [1] + [0] * (n - 1))
        return residual

    def report(claim_id, inputs, relation, expected, observed):
        rep = real_report(claim_id, inputs, relation, expected, observed)
        if claim_id == "L3" and inputs["l_n"] % 2 and inputs["n"] % 3 == 2:
            return theorems.BoundReport(
                claim_id, inputs, relation, expected, observed, theorems.FAIL
            )
        return rep

    monkeypatch.setattr(theorems, "simple_upper_bound", simple)
    monkeypatch.setattr(theorems, "periodic_lower_bound", lower)
    for module in (series, theorems, experiments):
        monkeypatch.setattr(module, "substitute", substitute)
    monkeypatch.setattr(theorems, "_report", report)


_ORACLE = {}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("injected", [False, True], ids=["clean", "injected"])
@pytest.mark.parametrize(
    "q_spec, n", WEIGHTING_CASES, ids=[f"q{p}^{m}-n{n}" for (p, m), n in WEIGHTING_CASES]
)
def test_weighted_sweep_equals_per_leaf_battery(q_spec, n, injected, workers,
                                                monkeypatch):
    # the sweep grades each length-m prefix on one leaf and weights it by
    # q^(n-m); the oracle grades it on every leaf below it
    if injected and workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("injected failures reach pool workers only when forked")
    field = Field(*q_spec)
    if injected:
        inject_failures(monkeypatch)
    key = (q_spec, n, injected)
    if key not in _ORACLE:
        _ORACLE[key] = per_leaf_sweep(field, n)
    expected = _ORACLE[key]
    got = enumerate_all(exhaustive(field, n, workers=workers)).to_dict()
    assert got == expected
    if injected:
        assert expected["witness_failures"] > 0
        assert INJECTED_CLAIMS <= set(expected["failures_by_claim"])
    else:
        assert expected["violations"] == 0
