import functools
import itertools
import json
import math
import multiprocessing
from pathlib import Path

import pytest

from seqcx import experiments, theorems
from seqcx.experiments import (
    DEFAULT_SCHEDULE,
    EXHAUSTIVE_CAP,
    MC_LENGTH_CAP,
    ExhaustiveConfig,
    MonteCarloConfig,
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
TN_SCANS = Path(__file__).parent / "fixtures" / "tn_scan_q2.json"


def test_enumerate_n1_distribution(f2):
    res = enumerate_all(ExhaustiveConfig(f2, 1))
    assert res.record.counts == {0: 1, 1: 1}
    assert res.violations == 0


def test_enumerate_n4_kernel_bound(f2):
    res = enumerate_all(ExhaustiveConfig(f2, 4))
    assert res.record.total == 16
    assert sum(c for v, c in res.record.counts.items() if v <= 2) == 16
    assert res.violations == 0


def test_enumerate_counts_l_and_t(f2):
    res = enumerate_all(ExhaustiveConfig(f2, 4))
    assert sum(res.record.counts_l.values()) == 16
    # L=0 only for the zero prefix; L=4 only for [0,0,0,1]
    assert res.record.counts_l[0] == 1
    assert res.record.counts_l[4] == 1


def test_enumerate_cap():
    from seqcx.field import Field

    with pytest.raises(ValueError):
        ExhaustiveConfig(Field(2), 40)
    assert 2**40 > EXHAUSTIVE_CAP


def test_a_huge_exhaustive_n_exits_at_once(capsys, tmp_path):
    # 2^n over the cap rejects n before q^n, a number of 2 * 10^9 digits
    # here, is computed
    import time

    began = time.perf_counter()
    code, err = _experiment_exit(
        capsys, tmp_path, "--mode", "exhaustive", "--q", "101", "--n", "1000000000"
    )
    assert time.perf_counter() - began < 1.0
    assert (code, err) == (3, "error: q^n = 101^1000000000 exceeds exhaustive cap\n")
    # 2^20 is the cap itself, and 1021^2 is below it
    assert ExhaustiveConfig(Field(2), 20, checks=False).n == 20
    assert ExhaustiveConfig(Field(1021), 2).n == 2
    for q, n in [(2, 21), (2, 10**9), (3, 13), (1021, 3)]:
        with pytest.raises(ValueError, match="exceeds exhaustive cap"):
            ExhaustiveConfig(Field(q), n)


def test_a_long_monte_carlo_prefix_exits_at_once(capsys, tmp_path):
    # every sample holds max(schedule) terms, so a longest entry above the
    # cap is rejected before any sample is drawn
    import time

    for flags, entry in [(("--n", "1000000000"), 1000000000),
                         (("--schedule", "16,5000"), 5000)]:
        began = time.perf_counter()
        code, err = _experiment_exit(
            capsys, tmp_path, "--mode", "mc", "--q", "2", *flags
        )
        assert time.perf_counter() - began < 1.0
        assert (code, err) == (
            3,
            f"error: schedule entry {entry} exceeds the Monte Carlo length cap 4096\n",
        )
    # the cap itself is accepted; no sample is run here
    cfg = MonteCarloConfig(Field(2), 1, schedule=(16, MC_LENGTH_CAP))
    assert cfg.schedule == (16, 4096)
    with pytest.raises(ValueError, match="length cap"):
        MonteCarloConfig(Field(2), 1, schedule=(MC_LENGTH_CAP + 1,))


@pytest.mark.parametrize("checks", [True, False], ids=["checked", "unchecked"])
def test_a_sweep_leaves_no_garbage_cycle(f9, checks):
    # a chunk's walk state (its Field, kernel, residual and battery cache),
    # and the counts that place the chunks' cuts, are freed when the sweep
    # returns, not at the next cycle collection
    import gc

    gc.collect()
    gc.disable()
    try:
        enumerate_all(ExhaustiveConfig(f9, 3, checks=checks))
        experiments._orbit_cuts(f9, 3, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_deterministic_across_workers(f2):
    one = enumerate_all(ExhaustiveConfig(f2, 6))
    two = enumerate_all(ExhaustiveConfig(f2, 6, workers=3))
    assert one.to_dict() == two.to_dict()


def _experiment_exit(capsys, tmp_path, *flags):
    """Exit code and stderr of an experiment run that should stop before
    creating its --out directory."""
    from seqcx import cli

    out = tmp_path / "out"
    code = cli.main(["experiment", *flags, "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


def test_mode_mismatch(f2, capsys, tmp_path):
    # each flag that only one mode reads is rejected in the other mode, an
    # explicit default value included
    for mode, flags in [
        ("exhaustive", ["--samples", "0"]),
        ("exhaustive", ["--seed", "0"]),
        ("exhaustive", ["--schedule", "5"]),
        ("mc", ["--no-checks"]),
        ("mc", ["--low-b", "0"]),
        ("mc", ["--tn-scan"]),
    ]:
        code, err = _experiment_exit(
            capsys, tmp_path, "--mode", mode, "--q", "2", "--n", "4", *flags
        )
        assert code == 3
        assert err == f"error: {flags[0]} does not apply to --mode {mode}\n"
    with pytest.raises(ValueError):
        MonteCarloConfig(f2, samples=0)


def test_mc_seed_outside_64_bits_is_rejected(f2):
    # the sampler masks to 64 bits, so 2^64 + 1 would draw what 1 draws
    for seed in (-1, 1 << 64, (1 << 64) + 1):
        with pytest.raises(ValueError, match="seed must be in 0 .. 2\\^64 - 1"):
            MonteCarloConfig(f2, samples=4, seed=seed)
    for seed in (0, (1 << 64) - 1):
        assert MonteCarloConfig(f2, samples=4, seed=seed).seed == seed


def test_low_b_is_capped_at_the_kernel_degree_bound(capsys, tmp_path):
    # E_n <= kernel_degree_bound(n), which is 2 at n = 3 and n = 4
    from seqcx import cli

    for n in (3, 4):
        code, err = _experiment_exit(
            capsys, tmp_path, "--mode", "exhaustive", "--q", "2", "--n", str(n),
            "--low-b", "3",
        )
        assert (code, err) == (3, f"error: --low-b must be <= 2 at --n {n}, got 3\n")
    out = tmp_path / "out"
    argv = ["experiment", "--mode", "exhaustive", "--q", "2", "--n", "3",
            "--low-b", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    probe = json.loads((out / "exhaustive_q2_n3.json").read_text())["low_expansion_probe"]
    assert (probe["count"], probe["reference_q_b_squared"]) == (8, 16)


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
def test_exhaustive_config_rejects_monte_carlo_fields(f2, fields, capsys, tmp_path):
    # the exhaustive config has no field for them, and the command line
    # rejects the flags that would set them
    with pytest.raises(TypeError):
        ExhaustiveConfig(f2, 3, **fields)
    (name, value), = fields.items()
    if name == "schedule":
        value = ",".join(map(str, value))
    code, err = _experiment_exit(
        capsys, tmp_path, "--mode", "exhaustive", "--q", "2", "--n", "3",
        f"--{name}", str(value),
    )
    assert (code, err) == (3, f"error: --{name} does not apply to --mode exhaustive\n")


@pytest.mark.parametrize(
    "n, fields",
    [
        (0, {"low_b": 1}),
        (0, {"low_b": 0}),
        (4, {"checks": False}),
        (3, {"schedule": (2, 4)}),
    ],
)
def test_montecarlo_config_rejects_unread_fields(f2, n, fields, capsys, tmp_path):
    # the Monte Carlo config has no n, low_b or checks field: the command
    # line turns --n into a one-entry schedule, so it rejects --n alongside
    # --schedule, and it rejects --low-b and --no-checks
    with pytest.raises(TypeError):
        MonteCarloConfig(f2, samples=2, n=n)
    (name, value), = fields.items()
    flags, message = {
        "low_b": (["--low-b", str(value)], "--low-b does not apply to --mode mc"),
        "checks": (["--no-checks"], "--no-checks does not apply to --mode mc"),
        "schedule": (["--schedule", "2,4"], "--mode mc takes --n or --schedule, not both"),
    }[name]
    code, err = _experiment_exit(
        capsys, tmp_path, "--mode", "mc", "--q", "2", "--samples", "2",
        "--n", str(n), *flags,
    )
    assert (code, err) == (3, f"error: {message}\n")


def test_configs_accept_the_fields_their_mode_reads(f2):
    from seqcx import cli

    assert ExhaustiveConfig(f2, 3, checks=False).n == 3
    cfg = MonteCarloConfig(f2, samples=2, seed=4, schedule=(3,))
    assert cfg.schedule == (3,)

    def config(*flags):
        args = cli.build_parser().parse_args(["experiment", "--q", "2", *flags])
        return cli._experiment_config(args)

    cfg = config("--mode", "exhaustive", "--n", "3", "--low-b", "1", "--no-checks")
    assert (cfg.n, cfg.checks) == (3, False)
    # --n, --schedule or neither becomes the schedule
    assert config("--mode", "mc", "--n", "5").schedule == (5,)
    assert config("--mode", "mc", "--schedule", "9,4").schedule == (4, 9)
    cfg = config("--mode", "mc")
    assert (cfg.samples, cfg.seed, cfg.schedule) == (1024, 0, DEFAULT_SCHEDULE)


def test_count_low_expansion_examples(f2):
    record = enumerate_all(ExhaustiveConfig(f2, 4)).record
    probe = count_low_expansion(record, 1)
    assert (probe.count, probe.reference) == (4, 2)
    assert probe.ratio == 2.0
    assert probe.exploratory
    assert probe.to_dict()["exploratory"] is True

    assert count_low_expansion(record, 0).count == 1

    wide_record = enumerate_all(ExhaustiveConfig(f2, 10, checks=False)).record
    wide = count_low_expansion(wide_record, 2)
    assert wide.reference == 16
    again = enumerate_all(ExhaustiveConfig(f2, 10, checks=False)).record
    assert wide.count == count_low_expansion(again, 2).count

    with pytest.raises(ValueError):
        count_low_expansion(monte_carlo(
            MonteCarloConfig(f2, samples=1, schedule=(4,))
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
    cfg = MonteCarloConfig(f2, samples=1, seed=123, schedule=(8,))
    first = monte_carlo(cfg).to_dict()
    second = monte_carlo(cfg).to_dict()
    assert first == second


def test_monte_carlo_matches_recorded_distributions():
    # whole MonteCarloResult records, recorded with an engine that reduced
    # every column from scratch and a sampler that drew term by term
    for case in json.loads(MC_DISTRIBUTIONS.read_text()):
        cfg = MonteCarloConfig(
            Field(case["p"], case["m"]), samples=case["samples"],
            seed=case["seed"], schedule=tuple(case["schedule"]),
        )
        assert monte_carlo(cfg).to_dict() == case["result"]


def test_monte_carlo_workers_invariant(f2):
    # 200 samples at n <= 64 make chunks of at least 64 lanes at every
    # worker count; past the lane bound every sample runs alone
    past = experiments.LANE_LENGTH_BOUND + 1
    for samples, schedule in [(40, (8, 9)), (200, (16, 64)), (6, (5, past))]:
        results = [
            monte_carlo(MonteCarloConfig(
                f2, samples=samples, seed=5, schedule=schedule, workers=workers,
            )).to_dict()
            for workers in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2], schedule


def lane_spy(monkeypatch):
    """Record the width of every block that runs as lanes."""
    from seqcx import expcomp

    widths = []
    real = expcomp.lane_profiles

    def spy(columns, lanes):
        widths.append(lanes)
        return real(columns, lanes)

    monkeypatch.setattr(expcomp, "lane_profiles", spy)
    return widths


@pytest.mark.parametrize(
    "samples, block, widths",
    [
        (16, None, [16]),  # no block narrower than its 16 terms runs as lanes
        (63, None, [63]),
        (64, None, [64]),
        (65, None, [65]),
        (21, 20, [20]),  # one past the block; the last sample runs alone
        (37, 20, [20, 17]),
        (41, 20, [20, 20]),
    ],
)
def test_lane_blocks_equal_the_per_sample_loop(f2, monkeypatch, samples, block, widths):
    cfg = MonteCarloConfig(f2, samples=samples, seed=9, schedule=(5, 16))
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "LANE_LENGTH_BOUND", 0)
        want = monte_carlo(cfg).to_dict()
    if block is not None:
        monkeypatch.setattr(experiments, "LANE_BLOCK", block)
    seen = lane_spy(monkeypatch)
    assert monte_carlo(cfg).to_dict() == want
    assert seen == widths


@pytest.mark.parametrize("q, length, lanes", [
    (2, experiments.LANE_LENGTH_BOUND, True),
    (2, experiments.LANE_LENGTH_BOUND + 1, False),
    (3, 16, False),
])
def test_only_f2_schedules_within_the_bound_run_as_lanes(monkeypatch, q, length, lanes):
    # stand-ins for the sampler and both kernels: only the path is checked
    from types import SimpleNamespace

    from seqcx import expcomp

    widths = []

    def fake_lanes(columns, count):
        widths.append(count)
        for _ in columns:
            yield [(1 << count) - 1]

    monkeypatch.setattr(experiments, "sample_terms", lambda seed, j, n, q: [0] * n)
    monkeypatch.setattr(expcomp, "lane_profiles", fake_lanes)
    monkeypatch.setattr(
        expcomp, "expansion_profile", lambda seq, n: SimpleNamespace(values=[0] * n)
    )
    monte_carlo(MonteCarloConfig(Field(q), samples=length, seed=4, schedule=(length,)))
    assert widths == ([length] if lanes else [])


class InProcessPool:
    """A stand-in for ProcessPoolExecutor that runs every chunk in this
    process, so that injected failures reach each chunk however processes
    would start."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        import concurrent.futures

        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "mode, size, workers, cores, processes",
    [
        ("exhaustive", 4, 1, 8, None),  # one chunk runs in-process
        ("exhaustive", 1, 6, 8, 2),  # q^n = 2 prefixes make 2 chunks
        ("exhaustive", 4, 3, 8, 3),
        ("exhaustive", 4, 3, 1, 1),  # a pool all the same, so the Field pickles
        ("montecarlo", 12, 4, 2, 2),
        ("montecarlo", 12, 5, None, 1),  # os.cpu_count() may not know
    ],
)
def test_pool_never_exceeds_chunks_or_cores(f2, monkeypatch, mode, size, workers,
                                             cores, processes):
    # size is n for a sweep over F_2, the sample count for Monte Carlo
    import concurrent.futures
    import os

    started = []

    class RecordingPool(InProcessPool):
        # records the pool size asked for
        def __init__(self, max_workers):
            started.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    if mode == "exhaustive":
        got = enumerate_all(ExhaustiveConfig(f2, size, workers=workers)).to_dict()
        assert got == enumerate_all(ExhaustiveConfig(f2, size)).to_dict()
    else:
        cfg = dict(samples=size, seed=2, schedule=(5,))
        got = monte_carlo(MonteCarloConfig(f2, workers=workers, **cfg)).to_dict()
        assert got == monte_carlo(MonteCarloConfig(f2, **cfg)).to_dict()
    assert started == ([] if processes is None else [processes])


# fields whose modulus is not the default one: F_9 with x^2 + x + 2, and
# F_16 with 1 + x + x^2 + x^3 + x^4, where x is not primitive
GIVEN_MODULUS_FIELDS = [(3, 2, (2, 1, 1)), (2, 4, (1, 1, 1, 1, 1))]


@pytest.mark.parametrize("p, m, modulus", GIVEN_MODULUS_FIELDS)
def test_given_modulus_field_same_records_across_workers(p, m, modulus):
    field = Field(p, m, modulus)
    assert field.modulus != Field(p, m).modulus
    one = enumerate_all(ExhaustiveConfig(field, 3))
    two = enumerate_all(ExhaustiveConfig(field, 3, workers=2))
    assert one.violations == 0
    assert one.to_dict() == two.to_dict()
    cfg = dict(samples=24, seed=7, schedule=(6, 9))
    one = monte_carlo(MonteCarloConfig(field, **cfg))
    two = monte_carlo(MonteCarloConfig(field, workers=2, **cfg))
    assert one.to_dict() == two.to_dict()


def test_chunks_use_the_callers_field(f9, monkeypatch):
    # the field and its tables travel with the chunk; none is built again
    built = []
    real_init = Field.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counting_init)
    enumerate_all(ExhaustiveConfig(f9, 2))
    monte_carlo(MonteCarloConfig(f9, samples=4, schedule=(5,)))
    assert built == []


def test_monte_carlo_extension_field(f4):
    cfg = MonteCarloConfig(f4, samples=16, seed=3, schedule=(6,))
    result = monte_carlo(cfg)
    record = result.records[6]
    assert record.total == 16
    assert all(0 <= v <= 3 for v in record.counts)  # kernel bound at n=6
    assert result.to_dict() == monte_carlo(cfg).to_dict()


def test_monte_carlo_default_schedule(f2):
    cfg = MonteCarloConfig(f2, samples=1, seed=1)
    assert cfg.schedule == DEFAULT_SCHEDULE


def test_monte_carlo_matches_exhaustive_at_small_n(f2):
    # sampled distribution at n=8 vs the exact one over all 256 prefixes
    exact = enumerate_all(ExhaustiveConfig(f2, 8, checks=False))
    probs = {v: c / exact.record.total for v, c in exact.record.counts.items()}
    mc = monte_carlo(
        MonteCarloConfig(f2, samples=2048, seed=11, schedule=(8,))
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
    report = tn_ambiguity_scan(ExhaustiveConfig(f2, 6))
    d = report.to_dict()
    assert d["zero_skipped"] == 1
    assert d["singleton_t"] + d["ambiguous_t"] + 1 == 64
    # the canonical choice never violates the prefix bounds on this sweep
    assert d["canonical_choice_failures"] == 0
    assert d["bounds_hold_for_all_choices"] + d["bounds_fail_for_some_choice"] == 63


def test_tn_scan_reports_equal_fixture(f2):
    # every count of every report in the scan's range, pinned
    fixture = json.loads(TN_SCANS.read_text())
    assert sorted(fixture, key=int) == [str(n) for n in range(1, 11)]
    for n, expected in fixture.items():
        assert tn_ambiguity_scan(ExhaustiveConfig(f2, int(n))).to_dict() == expected


def test_tn_scan_guards(f2, f3):
    with pytest.raises(ValueError):
        tn_ambiguity_scan(ExhaustiveConfig(f3, 4))
    with pytest.raises(ValueError):
        tn_ambiguity_scan(ExhaustiveConfig(f2, 12))


def test_records_serialize_canonically(f2):
    res = enumerate_all(ExhaustiveConfig(f2, 5))
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
    report = tn_ambiguity_scan(ExhaustiveConfig(f2, 8))
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
    checked = enumerate_all(ExhaustiveConfig(field, n))
    unchecked = enumerate_all(ExhaustiveConfig(field, n, checks=False))
    assert checked.violations == 0
    assert checked.record.to_dict() == unchecked.record.to_dict()


# -- each distinct prefix graded once, weighted by the leaves below it -------

WEIGHTING_CASES = [
    ((2, 1), 9), ((3, 1), 5), ((2, 2), 4), ((3, 2), 3), ((2, 3), 3), ((5, 1), 4),
    ((2, 4), 3), ((3, 3), 3), ((7, 1), 4), ((2, 2), 5),
]
INJECTED_CLAIMS = {"L3", "R.simple", "R.frobenius.witness", "T4.lower"}


def inject_failures(monkeypatch):
    """Make the battery fail on some prefixes, each time as a function of
    the first m terms alone, as every real check is.

    Each failure enters through a seam that the per-leaf oracle and the
    sweep's walk both call: the bound formulas, the relation L3 grades by,
    the Frobenius certificate's coefficients and the witness check."""
    real_simple = theorems.simple_upper_bound
    real_lower = theorems.periodic_lower_bound
    real_in_set = theorems._RELATIONS["in_set"]
    real_coefficient = theorems.frobenius_coefficient
    real_witness_holds = theorems.witness_holds

    def simple(n):
        return real_simple(n) - n % 2

    def lower(l, t, n):
        return real_lower(l, t, n) + ((l + t + n) % 3 == 0)

    def in_set(observed, allowed):
        # only L3 grades by "in_set", with allowed = (l_n, n + 1 - l_n)
        return real_in_set(observed, allowed) and not (
            allowed[0] % 2 and sum(allowed) % 3 == 0
        )

    def coefficient(field, s, k):
        # the coefficient of x^(i p^k) reads s_i alone, so the residual's
        # first m coefficients still read the first m terms alone; 2c scales
        # with s as c does, so the perturbed certificate of a multiple of a
        # prefix is that multiple of its certificate, as a real one is
        c = real_coefficient(field, s, k)
        return field.add(c, c) if k % 2 == 0 else c

    def witness_holds(poly, e, g, m):
        # also fail where the first two nonzero terms s_f and s_(f+j), j >= 2,
        # have a j-th power ratio: G(x) -> c sigma^i(G)(beta x) maps the ratio
        # r to sigma^i(beta^j r), another j-th power, but scaling only the
        # terms after s_f by beta maps it to beta r, which is not one for
        # some beta when gcd(j, q - 1) > 1; a walk over that smaller group's
        # orbits would weigh these failures wrongly.  (A test on
        # s_f s_(f+2) = s_(f+1)^2 != 0 would not: both groups act freely on
        # those prefixes, with the same orbit count on each side.)
        field, s = g.field, g.coeffs[:m]
        nonzero = [i for i, c in enumerate(s) if c][:2]
        if len(nonzero) == 2 and nonzero[1] - nonzero[0] >= 2:
            f, k = nonzero
            ratio = field.div(s[k], s[f])
            if field.pow(ratio, (field.q - 1) // math.gcd(k - f, field.q - 1)) == 1:
                return False
        return real_witness_holds(poly, e, g, m) and (m + e) % 3 != 0

    monkeypatch.setattr(theorems, "simple_upper_bound", simple)
    monkeypatch.setattr(theorems, "periodic_lower_bound", lower)
    monkeypatch.setitem(theorems._RELATIONS, "in_set", in_set)
    monkeypatch.setattr(theorems, "frobenius_coefficient", coefficient)
    monkeypatch.setattr(theorems, "witness_holds", witness_holds)


_ORACLE = {}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("injected", [False, True], ids=["clean", "injected"])
@pytest.mark.parametrize(
    "q_spec, n", WEIGHTING_CASES, ids=[f"q{p}^{m}-n{n}" for (p, m), n in WEIGHTING_CASES]
)
def test_weighted_sweep_equals_per_leaf_battery(q_spec, n, injected, workers,
                                                monkeypatch):
    # the sweep grades each length-m prefix that is least in its orbit
    # under G(x) -> c sigma^i(G)(beta x) on one leaf, and weights it by the
    # orbit's size times q^(n-m); the oracle grades every prefix on every
    # leaf below it.  The stabilizers take many shapes: mu_2 and mu_3 of
    # beta over F_7, subfields of F_16 and F_27 under sigma, and over F_9
    # one of order 4 that holds (beta, sigma) for a beta of order 8 but
    # neither (beta, id) nor (1, sigma)
    if injected and workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("injected failures reach pool workers only when forked")
    field = Field(*q_spec)
    if injected:
        inject_failures(monkeypatch)
    key = (q_spec, n, injected)
    if key not in _ORACLE:
        _ORACLE[key] = per_leaf_sweep(field, n)
    expected = _ORACLE[key]
    got = enumerate_all(ExhaustiveConfig(field, n, workers=workers)).to_dict()
    assert got == expected
    if injected:
        assert expected["witness_failures"] > 0
        assert INJECTED_CLAIMS <= set(expected["failures_by_claim"])
    else:
        assert expected["violations"] == 0


CUT_CASES = [
    ((3, 1), 5), ((2, 1), 9), ((2, 2), 4), ((2, 3), 3), ((3, 2), 3), ((5, 1), 4),
    ((2, 4), 3), ((3, 3), 3), ((7, 1), 4), ((2, 2), 5),
]


def _walked_chunks(monkeypatch):
    """Run the chunks of every later enumerate_all in this process, and
    record the leaves each one walks: [(lo, hi, leaves)] in chunk order."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    real = experiments._enumerate_chunk
    chunks = []

    def chunk(field, n, checks, lo, hi):
        leaves = []
        chunks.append((lo, hi, leaves))
        return real(field, n, checks, lo, hi,
                    lambda path, *_: leaves.append(tuple(path)))

    monkeypatch.setattr(experiments, "_enumerate_chunk", chunk)
    return chunks


@pytest.mark.parametrize("injected", [False, True], ids=["clean", "injected"])
@pytest.mark.parametrize(
    "q_spec, n", CUT_CASES, ids=[f"q{p}^{m}-n{n}" for (p, m), n in CUT_CASES]
)
def test_chunk_cuts_inside_subtrees(q_spec, n, injected, monkeypatch):
    # 2, 5 and 7 chunks of the representative leaves cut the prefix tree
    # inside subtrees; a node is graded only in the chunk that holds its
    # first leaf
    field = Field(*q_spec)
    if injected:
        inject_failures(monkeypatch)
    key = (q_spec, n, injected)
    if key not in _ORACLE:
        _ORACLE[key] = per_leaf_sweep(field, n)
    expected = _ORACLE[key]
    assert enumerate_all(ExhaustiveConfig(field, n)).to_dict() == expected
    chunks = _walked_chunks(monkeypatch)
    for workers in (2, 5, 7):
        got = enumerate_all(ExhaustiveConfig(field, n, workers=workers))
        assert got.to_dict() == expected, workers
    assert any(lo % field.q for lo, _, _ in chunks)  # a cut between two siblings
    unchecked = enumerate_all(ExhaustiveConfig(field, n, checks=False, workers=7))
    assert unchecked.record.to_dict() == expected["record"]


@functools.lru_cache(maxsize=None)
def _orbits(field, n):
    """Each prefix of length n that is least, lexicographically, in its
    orbit under G(x) -> c sigma^i(G)(beta x), for c and beta in F_q^* and
    sigma: s -> s^p, with the orbit's size, in lexicographic order.

    By brute force over whole prefixes: each prefix met outside every orbit
    already listed starts a new one, all of whose images are marked."""
    q, mul, frobenius = field.q, field.mul, field.frobenius
    # term k moves to sigma^i(c beta^k s_k) = sigma^i(c beta^k) sigma^i(s_k)
    moves = [
        (i, [frobenius(mul(c, field.pow(beta, k)), i) for k in range(n)])
        for c in range(1, q) for beta in range(1, q) for i in range(field.m)
    ]
    seen, out = set(), []
    for terms in itertools.product(range(q), repeat=n):
        if terms not in seen:
            orbit = {
                tuple(mul(a, frobenius(s, i)) for a, s in zip(factors, terms))
                for i, factors in moves
            }
            seen |= orbit
            out.append((terms, len(orbit)))
    return out


def _least_leaves(field, n):
    """The prefixes of length n the walk visits, in lexicographic order."""
    return [terms for terms, _ in _orbits(field, n)]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 8, 16])
def test_orbit_leaf_ranks_the_representative_leaves(q):
    # the cuts rank the leaves the walk visits, the least of each orbit:
    # each chunk starts at one of them, by its lexicographic index, and the
    # last ends at q^n; every chunk holds at least one, no chunk more than
    # one more than another, and there are as many chunks as asked for, or
    # as leaves if fewer
    field = Field(*{4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4)}.get(q, (q, 1)))
    for n in range(1, 5 if q < 16 else 4):
        indices = [
            sum(s * q ** (n - 1 - i) for i, s in enumerate(terms))
            for terms in _least_leaves(field, n)
        ]
        if q == 2:
            assert len(indices) == 2**n
        for workers in sorted({*range(1, 9), len(indices), len(indices) + 1}):
            cuts = experiments._orbit_cuts(field, n, workers)
            assert len(cuts) == min(workers, len(indices))
            assert cuts[0][0] == 0 and cuts[-1][1] == q**n
            assert all(hi == lo for (_, hi), (lo, _) in zip(cuts, cuts[1:]))
            assert all(lo in indices for lo, _ in cuts)
            shares = [sum(lo <= i < hi for i in indices) for lo, hi in cuts]
            assert min(shares) > 0 and max(shares) - min(shares) <= 1


@pytest.mark.parametrize("workers", range(1, 8))
def test_chunks_walk_near_equal_shares_of_the_representative_leaves(
        f9, workers, monkeypatch):
    # the walk visits only the leaves least in their orbits, 67 of the
    # 9^4, in lexicographic order; each chunk walks a nonempty range of
    # them, none more than one longer than another
    chunks = _walked_chunks(monkeypatch)
    enumerate_all(ExhaustiveConfig(f9, 4, checks=False, workers=workers))
    assert len(chunks) == workers
    walked = [leaf for _, _, leaves in chunks for leaf in leaves]
    assert walked == _least_leaves(f9, 4) and len(walked) == 67
    shares = [len(leaves) for _, _, leaves in chunks]
    assert min(shares) > 0 and max(shares) - min(shares) <= 1
    for lo, hi, leaves in chunks:
        assert all(
            lo <= sum(s * 9 ** (3 - i) for i, s in enumerate(leaf)) < hi
            for leaf in leaves
        )


def test_sweeps_run_no_engine_from_term_zero(monkeypatch):
    # every node advances Berlekamp-Massey and the kernel by one term; no
    # pass over a whole prefix runs
    from seqcx import expcomp, lincomp

    calls = []
    for module, name in [
        (expcomp, "expansion_profile"), (expcomp, "_kernel_pass"),
        (lincomp, "linear_fits"), (lincomp, "berlekamp_massey"),
        (lincomp, "_bm_core"),
    ]:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for q_spec, n in [((2, 1), 6), ((3, 1), 4), ((3, 2), 2)]:
        for checks in (True, False):
            enumerate_all(ExhaustiveConfig(Field(*q_spec), n, checks=checks))
    # the t_n scan reads its fits and E_n off the same walk's leaves
    tn_ambiguity_scan(ExhaustiveConfig(Field(2), 6))
    assert calls == []


def _sweep_inputs(seq, n):
    """What the sweep reads of seq at each length m = 1..n: each fit's L
    and t, with its coefficients where a shortest recurrence is unique
    (m >= 2L; below, Berlekamp-Massey may pick other coefficients of the
    same L and t), the first nonzero index and the residual counts."""
    from seqcx import lincomp

    p = seq.field.p
    first = next(i for i, s in enumerate(seq.terms) if s)
    residuals = [
        sum(1 for c in theorems.frobenius_residual(
            seq, m, theorems.frobenius_parameters(p, m)[0]).coeffs if c)
        for m in range(1, n + 1)
    ]
    fits = [
        (fit.complexity, fit.t, fit.coeffs if 2 * fit.complexity <= fit.n else None)
        for fit in lincomp.linear_fits(seq, n)
    ]
    return fits, first, residuals


def _assert_images_read_alike(field, n, maps):
    """For every prefix G whose first nonzero term is 1 and each (image,
    moved_coeff) of maps, the image G' = image(G) and G have the same sweep
    inputs and the same E values, with G's unique fit coefficients moved:
    c_l of a fit of length L, the coefficient of x^(L-l) in its connection
    polynomial, by moved_coeff(c_l, L - l, 0).  And each E_m witness h of
    G, with its coefficient a of x^i y^j moved by moved_coeff(a, i, j),
    witnesses E_m for G' with the same total degree."""
    from seqcx import expcomp
    from seqcx.lincomp import Sequence
    from seqcx.series import BivariatePoly

    for terms in itertools.product(range(field.q), repeat=n):
        if next((s for s in terms if s), 0) != 1:
            continue
        seq = Sequence(field, list(terms))
        fits, first, residuals = _sweep_inputs(seq, n)
        profile = expcomp.expansion_profile(seq, n)
        witnesses = [
            (m, e, profile.witness(m).poly)
            for m, e in enumerate(profile.values, 1) if e
        ]
        for image, moved_coeff in maps:
            moved_fits = [
                (l, t, coeffs and tuple(
                    moved_coeff(a, l - k, 0) for k, a in enumerate(coeffs)))
                for l, t, coeffs in fits
            ]
            moved = Sequence(field, image(list(terms)))
            assert _sweep_inputs(moved, n) == (moved_fits, first, residuals), terms
            assert expcomp.expansion_profile(moved, n).values == profile.values
            series = moved.prefix_series(n)
            for m, e, poly in witnesses:
                witness = BivariatePoly(field, {
                    (i, j): moved_coeff(a, i, j) for (i, j), a in poly.terms.items()
                })
                assert witness.total_degree == poly.total_degree == e
                assert theorems.witness_holds(witness, e, series, m), (terms, m)


SCALING_CASES = [((3, 1), 5), ((2, 2), 4), ((5, 1), 4), ((2, 3), 3), ((3, 2), 3)]


@pytest.mark.parametrize(
    "q_spec, n", SCALING_CASES, ids=[f"q{p}^{m}-n{n}" for (p, m), n in SCALING_CASES]
)
def test_every_sweep_input_is_the_same_on_each_multiple_of_a_prefix(q_spec, n):
    # why the sweep walks only the prefixes whose first nonzero term is 1:
    # on c G, for each c != 0, the L and t of each fit, the E values, the
    # first nonzero index and the residual counts are those of G, and
    # h(x, y/c) annihilates c G exactly when h(x, y) annihilates G, with
    # the same total degree; where a shortest recurrence is unique, c G
    # has the same one
    field = Field(*q_spec)
    mul, pow = field.mul, field.pow
    _assert_images_read_alike(field, n, [
        (lambda terms, c=c: [mul(c, s) for s in terms],
         lambda a, i, j, inverse=field.inv(c): mul(a, pow(inverse, j)))
        for c in range(1, field.q)
    ])


FROBENIUS_CASES = [((2, 2), 4), ((2, 3), 3), ((3, 2), 3), ((2, 4), 3), ((3, 3), 2)]


@pytest.mark.parametrize(
    "q_spec, n", FROBENIUS_CASES,
    ids=[f"q{p}^{m}-n{n}" for (p, m), n in FROBENIUS_CASES],
)
def test_every_sweep_input_is_the_same_on_each_frobenius_image_of_a_multiple(
        q_spec, n):
    # why the sweep walks only the prefixes least among their images under
    # sigma: s -> s^p: on sigma^i(c G), for each c != 0 and i = 1 .. r - 1
    # over F_(p^r), the sweep reads what it reads on G.  sigma is a field
    # automorphism that fixes F_p, so h^sigma(x, G^sigma) = h(x, G)^sigma:
    # the witness of c G moved by sigma^i, of the same total degree,
    # annihilates sigma^i(c G).  Berlekamp-Massey commutes with sigma^i, so
    # a unique shortest recurrence moves with it, and the residual of
    # sigma^i(c G) is the sigma^i-image of that of c G, with as many
    # nonzero coefficients
    field = Field(*q_spec)
    mul, pow, frobenius = field.mul, field.pow, field.frobenius
    _assert_images_read_alike(field, n, [
        (lambda terms, c=c, i=i: [frobenius(mul(c, s), i) for s in terms],
         lambda a, _, j, i=i, inverse=field.inv(c):
             frobenius(mul(a, pow(inverse, j)), i))
        for i in range(1, field.m) for c in range(1, field.q)
    ])


TWIST_CASES = [((5, 1), 4), ((7, 1), 4), ((2, 2), 4), ((3, 2), 3), ((3, 3), 2)]


@pytest.mark.parametrize(
    "q_spec, n", TWIST_CASES, ids=[f"q{p}^{m}-n{n}" for (p, m), n in TWIST_CASES]
)
def test_every_sweep_input_is_the_same_on_each_twist_of_a_prefix(q_spec, n):
    # why the sweep also walks one prefix per orbit of G(x) -> G(beta x),
    # s_i -> beta^i s_i: h(beta x, y), of the same total degree, annihilates
    # G(beta x) mod x^m exactly when h annihilates G, so E_m is the same;
    # Berlekamp-Massey maps its connection polynomial C(x) to C(beta x),
    # so L and t are the same, and a unique shortest recurrence moves with
    # it; the first nonzero index is the same; and the residual R(x)
    # becomes R(beta x), with as many nonzero coefficients
    field = Field(*q_spec)
    mul, pow = field.mul, field.pow
    _assert_images_read_alike(field, n, [
        (lambda terms, beta=beta: [mul(pow(beta, i), s) for i, s in enumerate(terms)],
         lambda a, i, _, beta=beta: mul(a, pow(beta, i)))
        for beta in range(2, field.q)
    ])


def _listed(field, n):
    """[(prefix, weight)] at each length 1..n, read off the child lists
    from the root, each length in the order the walk visits it."""
    children = experiments._OrbitChildren(field)
    level, out = [((), None)], []
    for _ in range(n):
        kids = [
            (prefix + (s,), sub, weight)
            for prefix, state in level for s, sub, weight in children[state]
        ]
        out.append([(prefix, weight) for prefix, _, weight in kids])
        level = [(prefix, sub) for prefix, sub, _ in kids]
    return out


# (q spec, n) -> (walked nodes, walked leaves); the last two are past the
# brute force, and F_9, n = 4 is perfbench's sweep-ext
WALKED = {
    ((2, 1), 5): (62, 32), ((5, 1), 4): (63, 45), ((7, 1), 4): (95, 75),
    ((2, 2), 5): (117, 77), ((2, 3), 4): (56, 40), ((3, 2), 4): (86, 67),
    ((2, 4), 3): (18, 12), ((3, 3), 2): (6, 4), ((2, 6), 2): (6, 4),
    ((3, 2), 6): (4858, 4266), ((3, 3), 4): (305, 281),
}


@pytest.mark.parametrize(
    "q_spec, n", list(WALKED), ids=[f"q{p}^{m}-n{n}" for (p, m), n in WALKED]
)
def test_orbit_children_are_the_least_of_their_images(q_spec, n):
    # walked down from the root, the lists give at each length m the
    # prefixes least in their orbits under G(x) -> c sigma^i(G)(beta x),
    # each weighted by its orbit's size, as a brute force over whole
    # prefixes finds them (up to 10^4 prefixes); the weights at each length
    # sum to q^m
    field = Field(*q_spec)
    listed = _listed(field, n)
    for m, level in enumerate(listed, 1):
        if field.q**m <= 10**4:
            assert level == _orbits(field, m), m
        assert sum(weight for _, weight in level) == field.q**m
    assert (sum(map(len, listed)), len(listed[-1])) == WALKED[q_spec, n]
    # the spine keeps 0 and walks 1 for every nonzero term
    assert listed[0] == [((0,), 1), ((1,), field.q - 1)]


def test_a_depth_one_sweep_builds_no_child_list(monkeypatch):
    # the spine's two children are fixed and a node of depth n has none, so
    # a sweep at n = 1, and its cut into chunks, builds no list of q
    # children, even at q = 2^16, nor lists the (2^16 - 1) 16 elements of H
    built = []
    real = experiments._OrbitChildren._build
    monkeypatch.setattr(experiments._OrbitChildren, "_build",
                        lambda self, *state: built.append(state) or real(self, *state))
    record = enumerate_all(ExhaustiveConfig(Field(2, 16), 1, checks=False)).record
    assert record.counts == {0: 1, 1: 2**16 - 1} and built == []
    assert experiments._orbit_cuts(Field(2, 16), 1, 3) == [(0, 1), (1, 2**16)]
    assert built == []
    # deeper, each state's list is built once, the first under the first
    # nonzero term, whose stabilizer is the whole of H (None)
    enumerate_all(ExhaustiveConfig(Field(2, 4), 3, checks=False))
    assert built[0] == (None, 1) and len(built) == len(set(built))


@pytest.mark.parametrize("q_spec", [(2, 10), (1021, 1), (3, 6)])
def test_child_lists_apply_each_element_of_h_once_per_walked_child(
        q_spec, monkeypatch):
    # an unchecked n = 2 sweep walks 6 nodes: the spine's 0 and 1, and two
    # children under each, as the twist moves every nonzero second term
    # onto 1.  The one list it builds, under the first nonzero term, applies
    # each element of H to s = 1, whose orbit is every nonzero s, and marks
    # the rest: a frobenius and a mul per element of H, where trying each
    # of the q terms against each element would make q |H| calls
    from seqcx import lincomp

    field = Field(*q_spec)
    size_h = (field.q - 1) * field.m
    calls = []
    for name in ("mul", "frobenius"):
        real = getattr(Field, name)
        monkeypatch.setattr(
            Field, name,
            lambda self, *args, _real=real: calls.append(1) or _real(self, *args),
        )
    nodes = []
    real_bm = lincomp.online_bm

    def online_bm(field):
        root, step, fit_of = real_bm(field)
        return root, lambda *args: nodes.append(1) or step(*args), fit_of

    monkeypatch.setattr(lincomp, "online_bm", online_bm)
    record = enumerate_all(ExhaustiveConfig(field, 2, checks=False)).record
    assert sum(record.counts.values()) == field.q**2
    assert len(nodes) == 6
    assert 2 * size_h <= len(calls) <= 3 * size_h < field.q * size_h // 100


RESIDUAL_WALKS = [((2, 1), 10), ((3, 1), 7), ((2, 2), 5), ((5, 1), 6), ((3, 2), 4)]


@pytest.mark.parametrize("perturbed", [False, True], ids=["certificate", "perturbed"])
@pytest.mark.parametrize(
    "q_spec, n", RESIDUAL_WALKS, ids=[f"q{p}^{m}-n{n}" for (p, m), n in RESIDUAL_WALKS]
)
def test_carried_residual_equals_substitution(q_spec, n, perturbed, monkeypatch):
    # at every node of the walk, the count carried from the parent equals
    # that of the certificate of the node's k substituted into its m terms,
    # and at each leaf the carried counts equal theorems.frobenius_nonzero.
    # A valid certificate leaves only zeros, so the perturbed run moves some
    # of its coefficients, each read off one term, through
    # frobenius_coefficient, which both call; these walks reach every length
    # where k changes
    from seqcx.lincomp import Sequence

    field = Field(*q_spec)
    p = field.p
    if perturbed:
        real_coefficient = theorems.frobenius_coefficient

        def coefficient(field, s, k):
            c = real_coefficient(field, s, k)
            return field.add(c, 1) if (s + k) % 3 == 1 else c

        monkeypatch.setattr(theorems, "frobenius_coefficient", coefficient)
    path = []
    residual = experiments._CarriedResidual(field, n, path)
    seen = set()

    def visit(m):
        for s in range(field.q):
            path.append(s)
            residual.push()
            k, _ = theorems.frobenius_parameters(p, m + 1)
            oracle = theorems.frobenius_residual(Sequence(field, path), m + 1, k)
            nonzero = sum(1 for c in oracle.coeffs if c)
            assert residual.nonzero[-1] == nonzero, path
            seen.add((k, nonzero > 0))
            if m + 1 < n:
                visit(m + 1)
            else:
                # at a leaf, the counts of every length on its path are
                # those verify reads
                counts = theorems.frobenius_nonzero(Sequence(field, path), n)
                assert residual.nonzero == counts, path
            residual.pop()
            path.pop()

    visit(0)
    assert residual.nonzero == [0]
    top = theorems.frobenius_parameters(p, n)[0]
    assert {k for k, _ in seen} == set(range(top + 1))
    assert any(hit for _, hit in seen) == perturbed


# -- each distinct battery input graded once per chunk -----------------------
#
# A chunk grades each distinct (m, first, residual count, L_{m-1}, L_m, t_m,
# E_1..E_m) once.  Each injection below fails a row as a function of one of
# those alone, through a row builder that the per-leaf oracle and the sweep
# both call, so a cache key that dropped it would reuse a neighbour's result.
# m, first and E_1 are fixed by the E values (E_m = 0 exactly on an all-zero
# prefix), so dropping one of them alone leaves an equivalent key; dropping
# E values is what the E_1..E_{m-2} injection catches.


def _failing_row(fails):
    return ("injected", (), "==", 0, int(fails))


def _inject_row(monkeypatch, builder, fails):
    real = getattr(theorems, builder)

    def rows(*args):
        return real(*args) + [_failing_row(fails(*args))]

    monkeypatch.setattr(theorems, builder, rows)


def _inject_residual(monkeypatch):
    # R.frobenius.witness fails exactly when the residual count is nonzero.
    # The zero terms' coefficients move, so at m = 4, 5 the count is nonzero
    # exactly when s_0 or s_1 is zero: it reads more than m and first, yet
    # is the same on every nonzero multiple of a prefix, as for a real
    # certificate.  One that scaled with s would make it nonzero exactly
    # when some of s_0, s_1 is, which (m, first) already say
    real_coefficient = theorems.frobenius_coefficient

    def coefficient(field, s, k):
        c = real_coefficient(field, s, k)
        return field.add(c, 1) if s == 0 and k % 2 == 1 else c

    monkeypatch.setattr(theorems, "frobenius_coefficient", coefficient)


# component -> (row builder, failure as a function of that builder's
# arguments); the residual count is moved by a perturbed certificate instead
KEY_INJECTIONS = {
    "E_1": ("_upper_rows", lambda p, m, e, first, nonzero: e[0] == 1),
    "E_1..E_m-2": ("_upper_rows", lambda p, m, e, first, nonzero: sum(e[: m - 2]) % 2),
    "first": ("_upper_rows", lambda p, m, e, first, nonzero: first == 1),
    "residual": None,
    "L_m-1": ("_growth_rows", lambda profile_e, m, l_prev, l_m: l_prev % 2),
    "L_m": ("_growth_rows", lambda profile_e, m, l_prev, l_m: l_m % 2),
    "t_m": ("_theorem4_rows", lambda m, l_m, t_m, e_m: t_m == 1),
}
KEY_SWEEP = ((3, 1), 5)
_KEY_ORACLE = {}


@pytest.mark.parametrize("component", list(KEY_INJECTIONS))
def test_battery_cache_key_is_complete(component, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    (p, m), n = KEY_SWEEP
    field = Field(p, m)
    if KEY_INJECTIONS[component] is None:
        _inject_residual(monkeypatch)
    else:
        _inject_row(monkeypatch, *KEY_INJECTIONS[component])
    if component not in _KEY_ORACLE:
        _KEY_ORACLE[component] = per_leaf_sweep(field, n)
    expected = _KEY_ORACLE[component]
    assert expected["violations"] > 0
    for workers in (1, 2, 5):
        got = enumerate_all(ExhaustiveConfig(field, n, workers=workers))
        assert got.to_dict() == expected, workers
