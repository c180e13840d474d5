"""Exhaustive and randomized distribution experiments.

Exhaustive mode walks the tree of prefixes over F_q depth first, in
lexicographic order, tallies the distribution of E_n (and of L_n, t_n) over
its q^n leaves, and optionally runs the full bound-checker battery over
every prefix length m <= n, counting violations.  Each node appends one term
and advances Berlekamp-Massey (lincomp.online_bm) and the online kernel
(expcomp.online_kernel), each picked by its own module, by one step from its
parent, so no engine reruns from term 0; with checks on, it also advances
the count of nonzero Frobenius residual coefficients by one term.  What is
graded at length m reads the first m terms only, so each node of depth m is
graded once, as the leaf whose later terms are all zero, and its outcomes
count with weight q^(n-m): its witness by substitution, and the rest of the
battery in tallies (theorems.failed_claims), with no report built.  The
tallies read a few scalars and E_1..E_m, which few nodes do not share, so
each chunk grades each distinct battery input once and counts its result
again for every node that has it.

Three maps change none of these inputs, each taking a witness to one of
the same total degree.  Scaling G by c != 0: h(x, y/c) annihilates c G
exactly when h annihilates G; Berlekamp-Massey runs as on G with b
multiplied by c (the nonzero x^L coefficient it sets at the first nonzero
term keeps t = 0 until length 2L replaces it by one free of c); the
Frobenius residual is multiplied by c^(p^k).  The Frobenius map sigma:
s -> s^p on every term, of order r on F_q, q = p^r: a field automorphism
fixing F_p, so h^sigma(x, G^sigma) = h(x, G)^sigma; Berlekamp-Massey
commutes with sigma; the residual is moved by sigma.  The twist
G(x) -> G(beta x), s_i -> beta^i s_i for beta != 0: h(beta x, y)
annihilates G(beta x) mod x^m exactly when h annihilates G;
Berlekamp-Massey maps its connection polynomial C(x) to C(beta x) (the
discrepancy at step k is multiplied by beta^k); the residual R(x) becomes
R(beta x).  So E_m, L_m, t_m, the first nonzero index and the count of
nonzero residual coefficients are constant on each orbit of
G(x) -> c sigma^i(G)(beta x), a group of order (q - 1)^2 r, and the walk
visits only the lexicographically least prefix P of each: the all-zero
spine and, below it, prefixes whose first nonzero term is 1, least under
H = {u_j -> sigma^i(beta^j u_j)} acting on the terms u_j at offset j after
that 1.  P counts with weight (q - 1) |H| / |Stab(P)|, Stab(P) its
stabilizer in H, in every tally, times q^(n-m) when graded.  Being least
is prefix-closed, so a pruned subtree is never entered, and a child P s is
least exactly when s is least among its images under Stab(P), so each
node reads its children off a list built once per orbit state
(_OrbitChildren).  The walk visits a little over q^(n+1)/(r (q-1)^3)
nodes, more by the prefixes with a nontrivial stabilizer, and checks one
witness per orbit: the checked F_9, n = 4 sweep visits 86 nodes, checks
82 witnesses and meets 27 distinct battery inputs.  Over F_2 it walks
the whole tree.  The chunks cut the walked leaves into ranges whose
counts differ by at most one (_orbit_cuts).  A chunk walks every visited
node whose leaves meet its range, and grades a node when it holds the
node's first leaf (the node followed by zeros, itself least in its
orbit), so any cut gives the same totals.  The t_n ambiguity scan reads
its prefixes, with their fits and E_n, off the leaves of one unchecked
walk over F_2, so it reruns no engine either.

Monte Carlo
mode samples sequences with i.i.d. uniform terms and reports the E_n
distribution across a schedule of prefix lengths, together with the fraction
of samples falling below sqrt((1-eps) * n) for a couple of eps values; the
fractions are reported, never thresholded, since the sqrt(n) growth statement
is asymptotic.

Sampling is counter-based: term i of sample j is derived by hashing
(seed, j, i, attempt) and mapping the 64-bit draw into [0, q) by rejection,
so results are independent of worker count and chunking.  Identical configs
therefore produce bit-identical records.  One routine, _digests, lays out
and hashes every draw's block; it runs on CPython's built-in SHA-256 where
that imports and on hashlib's otherwise, and both give the same digests.

Each mode has a config type holding only what it reads: ExhaustiveConfig
(enumerate_all, tn_ambiguity_scan) and MonteCarloConfig (monte_carlo).

Both modes split their range into cfg.workers chunks, fewer if the range is
shorter.  One chunk runs in-process; more run on a process pool, started
only then, of one process per chunk but at most one per core.  Every chunk
receives the caller's Field, its operation tables included (pickled to pool
workers), so no chunk builds a field or a table of its own.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from typing import ClassVar, Optional

try:  # CPython's own SHA-256: no OpenSSL context per hash, and no _hashlib import
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import expcomp, lincomp, theorems
from .field import Field
from .lincomp import Sequence
from .series import TruncatedSeries

EXHAUSTIVE_CAP = 1 << 20
# the longest Monte Carlo prefix: each sample holds max(schedule) terms and
# runs one kernel pass over them
MC_LENGTH_CAP = 4096
# Monte Carlo over F_2 runs its samples as the lanes of one bit-sliced
# sigma-basis (expcomp.lane_profiles) per block of up to LANE_BLOCK samples
# when no schedule entry passes LANE_LENGTH_BOUND, and one kernel pass per
# sample otherwise.  A block holds about D n LANE_BLOCK bits of series, 15 MB
# more RSS at the bound; a narrower block pays Python's cost per big-int
# operation on fewer lanes.
LANE_BLOCK = 2048
LANE_LENGTH_BOUND = 1024

DEFAULT_SCHEDULE = (16, 25, 36, 49, 64)
LOW_FRACTION_EPS = (0.25, 0.5)


@dataclass(frozen=True)
class ExhaustiveConfig:
    field: Field
    n: int
    checks: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("exhaustive mode requires n >= 1")
        # q >= 2, so q^n is over the cap whenever 2^n is, which n alone
        # decides: a huge n is rejected before q^n is built
        too_long = self.n >= EXHAUSTIVE_CAP.bit_length()
        if too_long or self.field.q**self.n > EXHAUSTIVE_CAP:
            raise ValueError(f"q^n = {self.field.q}^{self.n} exceeds exhaustive cap")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class MonteCarloConfig:
    field: Field
    samples: int
    seed: int = 0
    schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("montecarlo mode requires samples >= 1")
        # the sampler hashes the seed as 64 bits; a wider one would alias
        if not 0 <= self.seed <= _U64:
            raise ValueError(f"seed must be in 0 .. 2^64 - 1, got {self.seed}")
        schedule = tuple(sorted(self.schedule))
        if not schedule or schedule[0] < 1:
            raise ValueError("schedule entries must be >= 1")
        if schedule[-1] > MC_LENGTH_CAP:
            raise ValueError(
                f"schedule entry {schedule[-1]} exceeds the Monte Carlo "
                f"length cap {MC_LENGTH_CAP}"
            )
        # every sample is tallied once per entry, so a repeat counts twice
        repeated = sorted({a for a, b in zip(schedule, schedule[1:]) if a == b})
        if repeated:
            raise ValueError(f"schedule entries must be distinct: {repeated}")
        object.__setattr__(self, "schedule", schedule)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


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

    Exploratory: the comparison is reported, not asserted.  It fails at
    every large n, since for each constant u, h = (y - u)^b annihilates
    every prefix with G = u mod x^ceil(n/b), so the count is at least
    q^(n - ceil(n/b) + 1).  At q=2 the count is 4 > 2 at every n >= 2 for
    b=1, and exceeds 16 from n=5 on for b=2 (32 at n=5, 528 at n=14).
    """

    q: int
    n: int
    b: int
    count: int
    reference: int
    exploratory: ClassVar[bool] = True

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
# a draw hashes the block (seed, stream, index, attempt) of four big-endian
# 64-bit words; the (seed, stream) half is packed once per call
_HALF = struct.Struct(">QQ")
_BLOCK = struct.Struct(">16sQQ")


def _digests(seed: int, stream: int, indices, attempt: int = 0) -> bytes:
    """The SHA-256 digests of the blocks (seed, stream, i, attempt), for i
    in indices, joined.

    Every draw is hashed here, through C-level maps over one constructor.
    """
    half = _HALF.pack(seed & _U64, stream & _U64)
    blocks = map(_BLOCK.pack, repeat(half), indices, repeat(attempt))
    return b"".join(map(type(sha256()).digest, map(sha256, blocks)))


def draw_element(seed: int, stream: int, index: int, q: int) -> int:
    """Uniform element of [0, q) from the counter (seed, stream, index).

    Raw 64-bit hash outputs (the first 8 digest bytes, big-endian) are
    mapped by rejection, so there is no modulo bias; the attempt counter
    advances on the (astronomically rare) reject.
    """
    limit = (1 << 64) // q * q
    attempt = 0
    while True:
        value = int.from_bytes(_digests(seed, stream, (index,), attempt)[:8], "big")
        if value < limit:
            return value % q
        attempt += 1


def sample_terms(seed: int, stream: int, length: int, q: int) -> list[int]:
    """draw_element(seed, stream, i, q) for i in range(length).

    Every first attempt is hashed in one _digests call; a draw rejected
    there is redrawn by draw_element itself.
    """
    values = struct.unpack(">" + "Q24x" * length, _digests(seed, stream, range(length)))
    limit = (1 << 64) // q * q
    return [
        value % q if value < limit else draw_element(seed, stream, i, q)
        for i, value in enumerate(values)
    ]


# -- exhaustive enumeration ---------------------------------------------------


class _CarriedResidual:
    """Nonzero coefficients of the Frobenius residual of every prefix on a
    walk's path, carried from parent to child.

    At length m the residual is the certificate of m's k substituted into
    the m terms: [x^j] of G^(p^k) - sum_i s_i^(p^k) x^(i p^k) for j < m.
    Every power G^(p^j) that lengths up to n need is held, built from
    A = G^(p^(j-1)) by the products A^2 = A * A, ..., A^p = A^(p-1) * A,
    and push() adds coefficient m-1 to each product by one convolution.  A
    node's count is its parent's, plus one if the new coefficient of the
    residual is nonzero, except at the lengths where k changes, which count
    all m coefficients again.  nonzero[m] is the count at length m.
    """

    def __init__(self, field: Field, n: int, terms: list):
        p = field.p
        self.field = field
        self.terms = terms  # the path, which the caller appends to first
        self.ks = [theorems.frobenius_parameters(p, m)[0] for m in range(n + 1)]
        self.series = [terms]  # G, then every product
        self.factors = []  # (left, right) indices of each product in series
        self.powers = [0]  # index of G^(p^j) in series
        for _ in range(self.ks[n]):
            base = prev = self.powers[-1]
            for _ in range(p - 1):
                self.factors.append((prev, base))
                self.series.append([])
                prev = len(self.series) - 1
            self.powers.append(prev)
        self.nonzero = [0]

    def push(self) -> None:
        """Extend every held power, and count, for the term just appended."""
        field, series, terms = self.field, self.series, self.terms
        add, dot = field.add, field.dot
        r = len(terms) - 1
        for (left, right), out in zip(self.factors, series[1:]):
            out.append(dot(series[left], series[right][r::-1]))
        k = self.ks[r + 1]
        if k == self.ks[r]:
            count, span = self.nonzero[-1], range(r, r + 1)
        else:
            count, span = 0, range(r + 1)
        power, pk = series[self.powers[k]], field.p**k
        for j in span:
            c = power[j]
            if j % pk == 0:
                c = add(c, theorems.frobenius_coefficient(field, terms[j // pk], k))
            if c:
                count += 1
        self.nonzero.append(count)

    def pop(self) -> None:
        for out in self.series[1:]:
            out.pop()
        self.nonzero.pop()


class _OrbitChildren(dict):
    """The walked children (s, state, weight) under a node, in increasing
    s, by the node's orbit state, each list built on first use.

    The spine's state is None.  Below it a state is the node's stabilizer
    in H (None for all of H) and its next offset j mod q - 1, all that
    beta^j reads.  A child s is walked when least among its images
    sigma^i(beta^j s) under the stabilizer, with the elements fixing s as
    its stabilizer and weight (q - 1) |H| / |Stab(s)|, its orbit's size.
    A list marks the images of each walked s as it scans s upward, so it
    costs about q |Stab(s)| field operations, not q |H|.
    """

    def __init__(self, field):
        q = field.q
        self.field = field
        self.order = (q - 1) ** 2 * field.m  # (q - 1) |H|
        self[None] = [(0, None, 1), (1, (None, 1 % (q - 1)), q - 1)]

    def __missing__(self, state):
        kids = self[state] = self._build(*state)
        return kids

    def _build(self, stabilizer, offset):
        field, q = self.field, self.field.q
        group = stabilizer or [(b, i) for b in range(1, q) for i in range(field.m)]
        mul, frobenius, degree = field.mul, field.frobenius, range(field.m)
        # sigma^i(beta^j s) = sigma^i(beta^j) sigma^i(s)
        moves = [(frobenius(field.pow(b, offset), i), i) for b, i in group]
        offset = (offset + 1) % (q - 1)
        out = [(0, (stabilizer, offset), self.order // len(group))]
        marked = bytearray(q)
        for s in range(1, q):
            if marked[s]:
                continue
            images = [frobenius(s, i) for i in degree]
            fixing = []
            for g, (c, i) in zip(group, moves):
                image = mul(c, images[i])
                marked[image] = 1
                if image == s:
                    fixing.append(g)
            child = stabilizer if len(fixing) == len(group) else frozenset(fixing)
            out.append((s, (child, offset), self.order // len(fixing)))
        return out


def _enumerate_chunk(field, n, checks, start, stop, leaf=None):
    """Tallies and weighted battery outcomes of the orbits whose walked
    leaves, the least of each, have lexicographic indices start..stop-1,
    from a depth-first walk of the visited nodes whose leaves meet that
    range.

    The walk visits only the nodes least in their orbits under
    G(x) -> c sigma^i(G)(beta x), reading each node's children off its
    orbit state (_OrbitChildren); each stands for its whole orbit, with
    weight (q - 1) |H| / |Stab| (see the module docstring), and the skipped
    subtrees' leaves in the range are never walked.  Each node appends one
    term and advances Berlekamp-Massey and the online kernel by one step.
    With checks on, it also advances the count of nonzero Frobenius
    residual coefficients (_CarriedResidual), and a node of depth m is
    graded, with its weight times q^(n-m), in the chunk that holds its
    first leaf, the one whose terms after the first m are all zero: its
    E_m witness is substituted into its m terms, and
    theorems.failed_claims grades its fits, E values and residual count.
    failed_claims reads only its arguments, so the chunk grades each
    distinct argument tuple once and reuses the result at every later node
    that has it; the witness check still runs at every walked node.

    leaf, when given, is called at every walked leaf as leaf(path, fit,
    e_n), with the leaf's terms, its LinearFit and its E_n.  Over F_2, the
    field of its one caller, the t_n scan, that is every leaf in range;
    above F_2 it is only the least leaf of each orbit.
    """
    q, p = field.q, field.p
    root, step, fit_of = lincomp.online_bm(field)
    kernel = expcomp.online_kernel(field, n)
    path, values = kernel.terms, kernel.values
    fits = []
    residual = _CarriedResidual(field, n, path)
    leaves_below = [q ** (n - m) for m in range(n + 1)]
    children = _OrbitChildren(field)
    counts, counts_l, counts_t, fails = (Counter() for _ in range(4))
    witness_failures = 0
    # failed_claims of each distinct battery input: its arguments after p,
    # which are all it reads, with E_1..E_m as bytes (E <= 5 under the
    # cap), and every empty result one shared (); local to the chunk, so
    # no run reuses another's
    graded = {}

    def grade(m, weight):
        """Grade the node of depth m."""
        nonlocal witness_failures
        e = values[-1]
        if e:
            series = TruncatedSeries._unchecked(field, path)
            if not theorems.witness_holds(kernel.witness_poly(), e, series, m):
                witness_failures += weight
        if m < 2:
            return
        # E = 0 only on an all-zero prefix, where only the growth step
        # applies, and first = m says so
        first = next(i for i, s in enumerate(path) if s) if e else m
        fit = fits[-1]
        key = (
            m, first, residual.nonzero[-1], fits[-2].complexity, fit.complexity,
            fit.t, bytes(values),
        )
        failed = graded.get(key)
        if failed is None:
            failed = graded[key] = theorems.failed_claims(p, *key) or ()
        for claim_id in failed:
            fails[claim_id] += weight

    def visit(state, base, m, orbit):
        # the children of the node of depth m whose first leaf is base and
        # whose orbit state is orbit, None on the all-zero spine
        below = leaves_below[m + 1]
        for s, sub, weight in children[orbit]:
            lo = base + s * below
            if lo >= stop:
                return
            if lo + below <= start:
                continue
            kernel.push(s)
            child = step(state, path, m)
            if checks:
                fits.append(fit_of(m + 1, child))
                residual.push()
                if lo >= start:
                    grade(m + 1, weight * below)
            if m + 1 < n:
                visit(child, lo, m + 1, sub)
            else:
                fit = fits[-1] if checks else fit_of(n, child)
                counts[values[-1]] += weight
                counts_l[fit.complexity] += weight
                counts_t[fit.t] += weight
                if leaf:
                    leaf(path, fit, values[-1])
            if checks:
                fits.pop()
                residual.pop()
            kernel.pop()

    visit(root, 0, 0, None)
    # visit holds itself through its closure cell; dropping the name frees
    # the walk's state now rather than at the next cycle collection
    del visit
    return counts, counts_l, counts_t, fails, witness_failures


def _chunk_ranges(total: int, workers: int):
    workers = max(1, min(workers, total))
    return [(total * i // workers, total * (i + 1) // workers) for i in range(workers)]


def _orbit_cuts(field, n: int, workers: int):
    """The chunks' (start, stop) lexicographic leaf indices: the leaves the
    walk visits, the least of each orbit, cut into at most `workers` ranges
    whose counts differ by at most one, none empty.

    How many walked leaves lie under a walked node depends only on its
    orbit state (its stabilizer and next offset; None on the spine) and on
    the number k of terms still to come, so leaves(state, k) is tabled
    once, from the lists of children the walk reads (_OrbitChildren); the
    leaf of a given rank is found by walking down from the root, stepping
    over whole subtrees.  One chunk needs no table.
    """
    q = field.q
    if workers == 1:
        return [(0, q**n)]
    children = _OrbitChildren(field)
    below = {}

    def leaves(state, k):
        if k == 0:
            return 1
        if (state, k) not in below:
            below[state, k] = sum(leaves(sub, k - 1) for _, sub, _ in children[state])
        return below[state, k]

    def leaf_at(rank):
        index, state = 0, None
        for k in range(n - 1, -1, -1):
            for s, sub, _ in children[state]:
                size = leaves(sub, k)
                if rank < size:
                    break
                rank -= size
            index, state = index * q + s, sub
        return index

    count = leaves(None, n)
    ranges = [
        (leaf_at(lo), leaf_at(hi) if hi < count else q**n)
        for lo, hi in _chunk_ranges(count, workers)
    ]
    # leaves holds itself through its closure cell
    del leaves
    return ranges


def _run_chunks(worker, args_list):
    if len(args_list) <= 1:
        return [worker(*args) for args in args_list]
    from concurrent.futures import ProcessPoolExecutor

    processes = min(len(args_list), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=processes) as pool:
        futures = [pool.submit(worker, *args) for args in args_list]
        return [f.result() for f in futures]


def enumerate_all(cfg: ExhaustiveConfig) -> EnumerationResult:
    """Tally distributions over all q^n prefixes, walking one per orbit
    under G(x) -> c sigma^i(G)(beta x) (the lexicographically least), and
    count bound violations when cfg.checks is set.  The chunks cut the
    walked leaves (_orbit_cuts)."""
    field = cfg.field
    q, n = field.q, cfg.n
    total = q**n
    args = [
        (field, n, cfg.checks, start, stop)
        for start, stop in _orbit_cuts(field, n, cfg.workers)
    ]
    *counts, fails = tallies = [Counter() for _ in range(4)]  # E_n, L_n, t_n
    witness_failures = 0
    for *parts, part_witness_failures in _run_chunks(_enumerate_chunk, args):
        for tally, part in zip(tallies, parts):
            tally.update(part)
        witness_failures += part_witness_failures
    record = DistributionRecord(q, n, "exhaustive", total, *map(dict, counts))
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
    if q == 2 and length <= LANE_LENGTH_BOUND:
        # a block of fewer lanes than terms costs more than its samples one
        # by one: its steps cost about the same at any width up to 2048
        while stop - start >= length:
            block = min(LANE_BLOCK, stop - start)
            _mc_lanes(schedule, seed, start, start + block, counters)
            start += block
    for j in range(start, stop):
        seq = Sequence._unchecked(field, sample_terms(seed, j, length, q))
        values = expcomp.expansion_profile(seq, length).values
        for n in schedule:
            counters[n][values[n - 1]] += 1
    return counters


# the base-2 digit of a byte's low bit
_LOW_BIT = bytes(b"01"[b & 1] for b in range(256))


def _lane_columns(seed, start, stop, length) -> list:
    """Terms 0..length-1 of samples start..stop-1 over F_2, bit-sliced:
    bit l of column i is term i of sample start + l.

    Over F_2 no draw is rejected (2 divides 2^64), so term i is the low bit
    of its draw's 64-bit word, byte 32 i + 7 of the sample's digests.
    """
    terms = bytearray()
    for j in range(start, stop):
        terms += _digests(seed, j, range(length))[7::32]
    # term i of every sample, lane 0 last, as base-2 digits
    return [int(terms[i::length][::-1].translate(_LOW_BIT), 2) for i in range(length)]


def _mc_lanes(schedule, seed, start, stop, counters) -> None:
    """Tally samples start..stop-1 over F_2 as the lanes of one
    expcomp.lane_profiles run, each E_n count a bit count of that E_n's
    lane mask."""
    columns = _lane_columns(seed, start, stop, max(schedule))
    for m, onehot in enumerate(expcomp.lane_profiles(columns, stop - start), 1):
        if m in counters:
            for e, lanes in enumerate(onehot):
                if lanes:
                    counters[m][e] += lanes.bit_count()


def monte_carlo(cfg: MonteCarloConfig) -> MonteCarloResult:
    """Sample cfg.samples sequences and tabulate E_n across the schedule."""
    schedule = cfg.schedule
    field = cfg.field
    ranges = _chunk_ranges(cfg.samples, cfg.workers)
    args = [(field, schedule, cfg.seed, lo, hi) for lo, hi in ranges]
    counters = {n: Counter() for n in schedule}
    for part in _run_chunks(_mc_chunk, args):
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
            # t is the index of the lowest set bit of the mask, L if none
            out.add((mask & -mask).bit_length() - 1 if mask else length)
    return out


def tn_ambiguity_scan(cfg: ExhaustiveConfig) -> TnAmbiguityReport:
    """Enumerate every shortest recurrence of every q=2 prefix of length n,
    and grade the prefix bounds under each attainable t choice.

    Quantifies how much the bounds depend on which shortest recurrence is
    picked when it is not unique (possible for n < 2 L_n).  The prefixes
    are the leaves of one unchecked in-process walk of the sweep, which
    hands each leaf's fit and E_n over as it advances the engines, so no
    engine reruns from term 0.
    """
    if cfg.field.q != 2 or cfg.n > 10:
        raise ValueError("scan is limited to q=2 and n <= 10")
    n = cfg.n
    report = TnAmbiguityReport(n, 2**n, 0, 0, 0, 0, 0, 0)

    def leaf(path, fit, e_n):
        if not any(path):
            report.zero_skipped += 1
            return
        bits = sum(1 << i for i, s in enumerate(path) if s)
        t_set = _attainable_t_values(bits, n, fit.complexity)
        if len(t_set) == 1:
            report.singleton += 1
        else:
            report.ambiguous += 1
        if n >= 2:
            holds = {
                t: all(
                    r.passed
                    for r in theorems.check_theorem4(replace(fit, t=t), e_n)
                )
                for t in t_set
            }
            if all(holds.values()):
                report.all_choices_hold += 1
            else:
                report.some_choice_fails += 1
            if not holds.get(fit.t, True):
                report.canonical_failures += 1

    _enumerate_chunk(cfg.field, n, False, 0, 2**n, leaf)
    return report
