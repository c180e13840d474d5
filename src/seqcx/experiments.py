"""Exhaustive and randomized distribution experiments.

Exhaustive mode walks every length-n prefix over F_q in lexicographic order,
tallies the distribution of E_n (and of L_n, t_n), and optionally runs the
full bound-checker battery over every prefix length m <= n, counting
violations.  What is graded at length m reads the first m terms only, so
each distinct length-m prefix is graded once, on the leaf whose later terms
are all zero, and its outcomes count with weight q^(n-m).  Monte Carlo
mode samples sequences with i.i.d. uniform terms and reports the E_n
distribution across a schedule of prefix lengths, together with the fraction
of samples falling below sqrt((1-eps) * n) for a couple of eps values; the
fractions are reported, never thresholded, since the sqrt(n) growth statement
is asymptotic.

Sampling is counter-based: term i of sample j is derived by hashing
(seed, j, i, attempt) and mapping the 64-bit draw into [0, q) by rejection,
so results are independent of worker count and chunking.  Identical configs
therefore produce bit-identical records.

Both modes split their range into chunks, one per worker.  Every chunk
receives the caller's Field, tables included (pickled to pool workers), so
no chunk builds a field of its own.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

from . import expcomp, lincomp, theorems
from .field import Field
from .lincomp import Sequence
from .series import substitute

EXHAUSTIVE_CAP = 1 << 20

DEFAULT_SCHEDULE = (16, 25, 36, 49, 64)
LOW_FRACTION_EPS = (0.25, 0.5)


@dataclass(frozen=True)
class ExperimentConfig:
    field: Field
    n: int
    mode: str  # "exhaustive" | "montecarlo"
    samples: int = 0
    seed: int = 0
    schedule: Optional[tuple[int, ...]] = None
    checks: bool = True
    workers: int = 1
    low_b: Optional[int] = None  # exhaustive: also count prefixes with E_n <= b

    def __post_init__(self):
        if self.mode not in ("exhaustive", "montecarlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.low_b is not None and self.low_b < 0:
            raise ValueError(f"low_b must be >= 0, got {self.low_b}")
        # a field the mode never reads is rejected rather than ignored
        if self.mode == "exhaustive":
            if self.samples or self.seed:
                raise ValueError("samples and seed do not apply to exhaustive mode")
            if self.schedule is not None:
                raise ValueError("a schedule does not apply to exhaustive mode")
            if self.n < 1:
                raise ValueError("exhaustive mode requires n >= 1")
            if self.field.q**self.n > EXHAUSTIVE_CAP:
                raise ValueError(
                    f"q^n = {self.field.q}^{self.n} exceeds exhaustive cap"
                )
        else:
            if self.low_b is not None:
                raise ValueError("low_b does not apply to montecarlo mode")
            if not self.checks:
                raise ValueError("montecarlo mode runs no bound checks to turn off")
            if self.n and self.schedule is not None:
                raise ValueError("montecarlo mode takes n or a schedule, not both")
            if self.samples < 1:
                raise ValueError("montecarlo mode requires samples >= 1")
            if self.schedule is not None:
                object.__setattr__(self, "schedule", tuple(sorted(self.schedule)))
            schedule = self.resolved_schedule()
            if min(schedule) < 1:
                raise ValueError("schedule entries must be >= 1")
            # every sample is tallied once per entry, so a repeat counts twice
            repeated = sorted({a for a, b in zip(schedule, schedule[1:]) if a == b})
            if repeated:
                raise ValueError(f"schedule entries must be distinct: {repeated}")

    def resolved_schedule(self) -> tuple[int, ...]:
        if self.schedule:
            return self.schedule
        return (self.n,) if self.n else DEFAULT_SCHEDULE


@dataclass
class DistributionRecord:
    q: int
    n: int
    mode: str
    total: int
    counts: dict  # E_n value -> count
    counts_l: Optional[dict] = None
    counts_t: Optional[dict] = None

    def stats(self) -> dict:
        root = math.sqrt(self.n)
        mean = sum(v * c for v, c in self.counts.items()) / self.total
        half = (self.total - 1) // 2  # lower median
        acc = 0
        median = None
        for v in sorted(self.counts):
            acc += self.counts[v]
            if acc > half:
                median = v
                break
        return {
            "mean_ratio": mean / root,
            "median_ratio": median / root,
            "min_ratio": min(self.counts) / root,
        }

    def to_dict(self) -> dict:
        out = {
            "q": self.q,
            "n": self.n,
            "mode": self.mode,
            "total": self.total,
            "counts": [[v, self.counts[v]] for v in sorted(self.counts)],
            "stats": self.stats(),
        }
        if self.counts_l is not None:
            out["counts_l"] = [[v, self.counts_l[v]] for v in sorted(self.counts_l)]
        if self.counts_t is not None:
            out["counts_t"] = [[v, self.counts_t[v]] for v in sorted(self.counts_t)]
        return out


@dataclass
class EnumerationResult:
    record: DistributionRecord
    violations: int
    failures_by_claim: dict
    witness_failures: int
    checks_run: bool

    def to_dict(self) -> dict:
        return {
            "record": self.record.to_dict(),
            "violations": self.violations,
            "failures_by_claim": dict(sorted(self.failures_by_claim.items())),
            "witness_failures": self.witness_failures,
            "checks_run": self.checks_run,
        }


@dataclass
class MonteCarloResult:
    seed: int
    samples: int
    schedule: tuple
    records: dict  # n -> DistributionRecord
    low_fractions: dict  # eps (str) -> {n: fraction}

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "schedule": list(self.schedule),
            "records": {str(n): self.records[n].to_dict() for n in self.schedule},
            "low_fractions": {
                eps: {str(n): frac for n, frac in sorted(per_n.items())}
                for eps, per_n in sorted(self.low_fractions.items())
            },
        }


@dataclass
class LowExpansionProbe:
    """Count of prefixes with E_n <= b, alongside the reference value q^(b^2).

    Exploratory: the comparison is reported, not asserted; at small n the
    count can exceed the reference (e.g. q=2, n=4, b=1 gives 4 > 2).
    """

    q: int
    n: int
    b: int
    count: int
    reference: int
    exploratory: bool = True

    @property
    def ratio(self) -> float:
        return self.count / self.reference

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "b": self.b,
            "count": self.count,
            "reference_q_b_squared": self.reference,
            "ratio": self.ratio,
            "exploratory": self.exploratory,
        }


# -- counter-based sampling ---------------------------------------------------

_U64 = (1 << 64) - 1


def draw_element(seed: int, stream: int, index: int, q: int) -> int:
    """Uniform element of [0, q) from the counter (seed, stream, index).

    Raw 64-bit hash outputs are mapped by rejection, so there is no modulo
    bias; the attempt counter advances on the (astronomically rare) reject.
    """
    limit = (1 << 64) // q * q
    attempt = 0
    while True:
        block = struct.pack(">QQQQ", seed & _U64, stream & _U64, index, attempt)
        value = int.from_bytes(hashlib.sha256(block).digest()[:8], "big")
        if value < limit:
            return value % q
        attempt += 1


_PAIR = struct.Struct(">QQ")


def sample_terms(seed: int, stream: int, length: int, q: int) -> list[int]:
    """draw_element(seed, stream, i, q) for i in range(length).

    The (seed, stream) half of every hashed block is packed once; a draw
    rejected on its first attempt is redrawn by draw_element itself.
    """
    head = _PAIR.pack(seed & _U64, stream & _U64)
    pack = _PAIR.pack
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    limit = (1 << 64) // q * q
    out = []
    for i in range(length):
        value = from_bytes(sha256(head + pack(i, 0)).digest()[:8], "big")
        out.append(value % q if value < limit else draw_element(seed, stream, i, q))
    return out


# -- exhaustive enumeration ---------------------------------------------------


def _decode_prefix(index: int, q: int, n: int) -> list[int]:
    """Index -> prefix digits, most significant digit first (s_0)."""
    digits = [0] * n
    for pos in range(n - 1, -1, -1):
        index, digits[pos] = divmod(index, q)
    return digits


def _check_prefix(seq: Sequence, n: int, fits, profile):
    """The battery for every prefix length m this leaf represents.

    Everything graded at length m (the E_m witness substitution, the growth
    step m-1 -> m, T4 and the R.* claims at m) reads the first m terms only,
    so each length-m prefix is graded once, on its leaf whose terms after
    position m are all zero, and its outcomes count q^(n-m) times, once
    for every leaf below it.  That leaf represents every m from
    n - (trailing zero terms), but at least 1, up to n.

    Returns (fail_counter, witness_failures), weighted.
    """
    terms = seq.terms
    lo = n
    while lo > 1 and not terms[lo - 1]:
        lo -= 1
    q = seq.field.q
    series = seq.prefix_series(n)
    frobenius = theorems.frobenius_residuals(seq, n, lo)
    first = theorems._first_nonzero(seq)
    profile_e = profile.values
    fails = Counter()
    witness_failures = 0
    for m in range(lo, n + 1):
        weight = q ** (n - m)
        wit = profile.witness(m)
        if wit.poly is not None:
            ok = (
                wit.poly.total_degree == wit.complexity
                and substitute(wit.poly, series, m).is_zero()
            )
            if not ok:
                witness_failures += weight
        if m < 2:
            continue
        reports = theorems.check_growth_step(fits, profile_e, m)
        reports += theorems.check_length(
            seq, m, fits=fits, profile_e=profile_e, frobenius=frobenius, first=first
        )
        for rep in reports:
            if rep.failed:
                fails[rep.claim_id] += weight
    return fails, witness_failures


def _enumerate_chunk(field, n, checks, start, stop):
    q = field.q
    counts = Counter()
    counts_l = Counter()
    counts_t = Counter()
    fails = Counter()
    witness_failures = 0
    for index in range(start, stop):
        seq = Sequence._unchecked(field, _decode_prefix(index, q, n))
        if checks:
            fits = lincomp.linear_fits(seq, n)
            profile = expcomp.expansion_profile(seq, n)
            prefix_fails, wf = _check_prefix(seq, n, fits, profile)
            fails.update(prefix_fails)
            witness_failures += wf
            fit, e_n = fits[-1], profile.values[-1]
        else:
            fit = lincomp.berlekamp_massey(seq, n)
            e_n = expcomp.expansion_profile(seq, n).values[-1]
        counts[e_n] += 1
        counts_l[fit.complexity] += 1
        counts_t[fit.t] += 1
    return counts, counts_l, counts_t, fails, witness_failures


def _chunk_ranges(total: int, workers: int):
    workers = max(1, min(workers, total))
    size = -(-total // workers)
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _run_chunks(worker, args_list, workers):
    if workers <= 1 or len(args_list) <= 1:
        return [worker(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, *args) for args in args_list]
        return [f.result() for f in futures]


def enumerate_all(cfg: ExperimentConfig) -> EnumerationResult:
    """Walk all q^n prefixes (lexicographic), tally distributions, and count
    bound violations when cfg.checks is set."""
    if cfg.mode != "exhaustive":
        raise ValueError("enumerate_all requires exhaustive mode")
    field = cfg.field
    total = field.q**cfg.n
    ranges = _chunk_ranges(total, cfg.workers)
    args = [(field, cfg.n, cfg.checks, lo, hi) for lo, hi in ranges]
    counts = Counter()
    counts_l = Counter()
    counts_t = Counter()
    fails = Counter()
    witness_failures = 0
    for part in _run_chunks(_enumerate_chunk, args, cfg.workers):
        counts.update(part[0])
        counts_l.update(part[1])
        counts_t.update(part[2])
        fails.update(part[3])
        witness_failures += part[4]
    record = DistributionRecord(
        field.q, cfg.n, "exhaustive", total, dict(counts),
        dict(counts_l), dict(counts_t),
    )
    violations = sum(fails.values()) + witness_failures
    return EnumerationResult(record, violations, dict(fails), witness_failures, cfg.checks)


def count_low_expansion(record: DistributionRecord, b: int) -> LowExpansionProbe:
    """#{prefixes with E_n <= b} against q^(b^2), reported not asserted.

    Read off the E_n distribution of an exhaustive run.
    """
    if record.mode != "exhaustive":
        raise ValueError("count_low_expansion requires an exhaustive record")
    count = sum(c for v, c in record.counts.items() if v <= b)
    return LowExpansionProbe(record.q, record.n, b, count, record.q ** (b * b))


# -- Monte Carlo --------------------------------------------------------------


def _mc_chunk(field, schedule, seed, start, stop):
    q = field.q
    length = max(schedule)
    counters = {n: Counter() for n in schedule}
    for j in range(start, stop):
        seq = Sequence._unchecked(field, sample_terms(seed, j, length, q))
        values = expcomp.expansion_profile(seq, length).values
        for n in schedule:
            counters[n][values[n - 1]] += 1
    return counters


def monte_carlo(cfg: ExperimentConfig) -> MonteCarloResult:
    """Sample cfg.samples sequences and tabulate E_n across the schedule."""
    if cfg.mode != "montecarlo":
        raise ValueError("monte_carlo requires montecarlo mode")
    schedule = cfg.resolved_schedule()
    field = cfg.field
    ranges = _chunk_ranges(cfg.samples, cfg.workers)
    args = [(field, schedule, cfg.seed, lo, hi) for lo, hi in ranges]
    counters = {n: Counter() for n in schedule}
    for part in _run_chunks(_mc_chunk, args, cfg.workers):
        for n in schedule:
            counters[n].update(part[n])
    records = {
        n: DistributionRecord(field.q, n, "montecarlo", cfg.samples, dict(counters[n]))
        for n in schedule
    }
    low_fractions = {}
    for eps in LOW_FRACTION_EPS:
        per_n = {}
        for n in schedule:
            threshold = math.sqrt((1 - eps) * n)
            below = sum(c for v, c in counters[n].items() if v < threshold)
            per_n[n] = below / cfg.samples
        low_fractions[str(eps)] = per_n
    return MonteCarloResult(cfg.seed, cfg.samples, schedule, records, low_fractions)


# -- shortest-recurrence ambiguity scan --------------------------------------


@dataclass
class TnAmbiguityReport:
    n: int
    total: int
    zero_skipped: int
    singleton: int
    ambiguous: int
    all_choices_hold: int
    some_choice_fails: int
    canonical_failures: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "zero_skipped": self.zero_skipped,
            "singleton_t": self.singleton,
            "ambiguous_t": self.ambiguous,
            "bounds_hold_for_all_choices": self.all_choices_hold,
            "bounds_fail_for_some_choice": self.some_choice_fails,
            "canonical_choice_failures": self.canonical_failures,
        }


def _attainable_t_values(bits: int, n: int, length: int) -> set:
    """All t values over every length-L recurrence fitting the n-bit prefix."""
    out = set()
    for mask in range(1 << length):
        full = mask | (1 << length)
        if all(
            ((bits >> i) & full).bit_count() % 2 == 0 for i in range(n - length)
        ):
            t = length
            for l in range(length):
                if (mask >> l) & 1:
                    t = l
                    break
            out.add(t)
    return out


def tn_ambiguity_scan(cfg: ExperimentConfig) -> TnAmbiguityReport:
    """Enumerate every shortest recurrence of every q=2 prefix of length n,
    and grade the prefix bounds under each attainable t choice.

    Quantifies how much the bounds depend on which shortest recurrence is
    picked when it is not unique (possible for n < 2 L_n).
    """
    if cfg.mode != "exhaustive":
        raise ValueError("tn_ambiguity_scan requires exhaustive mode")
    if cfg.field.q != 2 or cfg.n > 10:
        raise ValueError("scan is limited to q=2 and n <= 10")
    n = cfg.n
    field = cfg.field
    zero_skipped = singleton = ambiguous = 0
    all_hold = some_fail = canonical_failures = 0
    for index in range(2**n):
        terms = _decode_prefix(index, 2, n)
        if not any(terms):
            zero_skipped += 1
            continue
        bits = 0
        for i, s in enumerate(terms):
            if s:
                bits |= 1 << i
        seq = Sequence._unchecked(field, terms)
        fit = lincomp.berlekamp_massey(seq, n)
        e_n = expcomp.expansion_profile(seq, n).values[-1]
        length = fit.complexity
        t_set = _attainable_t_values(bits, n, length)
        if len(t_set) == 1:
            singleton += 1
        else:
            ambiguous += 1
        if n >= 2:
            holds = {
                t: all(
                    r.passed
                    for r in theorems.check_theorem4(replace(fit, t=t), e_n)
                )
                for t in t_set
            }
            if all(holds.values()):
                all_hold += 1
            else:
                some_fail += 1
            if not holds.get(fit.t, True):
                canonical_failures += 1
    return TnAmbiguityReport(
        n, 2**n, zero_skipped, singleton, ambiguous,
        all_hold, some_fail, canonical_failures,
    )
