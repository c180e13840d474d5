"""One workload in a fresh interpreter; prints one JSON object as its last line.

    python3 worker.py timed  <workload> <seed> <seconds>
    python3 worker.py traced <workload> <seed>
    python3 worker.py record

``timed`` repeats rounds of the workload (tracing off) until the next round
would end after ``seconds``; queries always run at least ``MIN_QUERIES``.
``traced`` alternates untraced and traced runs of one fixed round (one CLI
call, or ``TRACED_QUERY_CYCLES`` query cycles), then adds the micro-runs and
one Monte Carlo unit on one and on two pool workers.  ``record`` writes
``reference.json`` from the current program.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import micro
import workloads
from spans import BOUNDARY, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# Cold starts per run; their median is setup_s.
COLD_STARTS = 5

# Query cycles traced (and run untraced); the sweeps trace one CLI call.
TRACED_QUERY_CYCLES = 3


def import_cli():
    sys.path.insert(0, str(SRC))
    import seqcx.cli

    if not Path(seqcx.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"seqcx was imported from {seqcx.cli.__file__}, not {SRC}")
    return seqcx.cli


class Checker:
    """Counts failed units: exceptions, exit codes, reported failures, digests."""

    def __init__(self, workload: workloads.Workload):
        reference = json.loads(REFERENCE.read_text())
        self.expected = reference.get(workload.digest_key, {})
        self.attempted = 0
        self.failed = 0
        self.digest_mismatches = 0
        self.messages: list = []

    def run(self, call):
        self.attempted += 1
        try:
            res = call()
        except Exception:  # one broken unit must not end the run
            self._fail(traceback.format_exc(limit=3))
            return None
        reasons = list(res.problems)
        if res.exit_code != 0:
            reasons.append(f"exit code {res.exit_code}")
        if self.expected.get(res.key) != res.digest:
            self.digest_mismatches += 1
            reasons.append("output digest differs from reference")
        if reasons:
            self._fail(f"{res.key}: {'; '.join(reasons)}")
        return res

    def _fail(self, message: str):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)

    def merge(self, other: "Checker"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.digest_mismatches += other.digest_mismatches
        self.messages.extend(other.messages[: 5 - len(self.messages)])

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "digest_ok": self.digest_mismatches == 0 and self.attempted > 0,
            "messages": self.messages,
        }


def cold_start(workload: workloads.Workload) -> dict:
    """Import seqcx.cli and build the workload's fields in a fresh interpreter."""
    specs = [f"{p}^{m}" for p, m in workload.fields]
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), str(SRC), *specs],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_timed(name: str, seed: int, seconds: float, work_dir: Path) -> dict:
    """Rounds until the next one would end past ``seconds`` of busy time.

    Cold starts are spread over the run, between rounds, so that their
    median does not rest on one stretch of machine speed.
    """
    workload = workloads.WORKLOADS[name]
    cli = import_cli()
    round_calls = workloads.make_round(cli, workload, seed, work_dir)
    min_calls = workloads.MIN_QUERIES if name == "queries" else 1
    checker = Checker(workload)
    probe_at = [i * seconds / (COLD_STARTS - 1) for i in range(COLD_STARTS)]
    probes = []
    durations = []
    busy = 0.0
    while True:
        while probe_at and probe_at[0] <= busy:
            probe_at.pop(0)
            probes.append(cold_start(workload))
        round_start = time.perf_counter()
        for call in round_calls:
            res = checker.run(call)
            if res is not None:
                durations.append(res.seconds)
        round_s = time.perf_counter() - round_start
        busy += round_s
        if checker.attempted >= min_calls and busy + round_s > seconds:
            break
    probes.extend(cold_start(workload) for _ in probe_at)
    return {
        **checker.summary(),
        "units": len(durations) * workload.units_per_call,
        "durations": durations,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _run_round(checker: Checker, round_calls, tracer=None) -> tuple:
    """(seconds in cli.main, calls) for one round."""
    busy = 0.0
    for call in round_calls:
        if tracer is not None:
            tracer.unit += 1
        res = checker.run(call)
        if res is not None:
            busy += res.seconds
    return busy, len(round_calls)


def layer_metrics(tracer: Tracer, units: int) -> dict:
    self_s, inclusive = tracer.layer_times()
    entries = tracer.boundary_entries()
    out = {f"{layer}.self_s": self_s[layer] for layer in BOUNDARY}
    for layer in ("lincomp", "expcomp", "theorems"):
        out[f"{layer}.calls"] = entries[layer]
    out["expcomp.calls_per_unit"] = entries["expcomp"] / units
    out["series.substitute.calls"] = tracer.calls["series.substitute"]
    out["series.series_mul.calls"] = tracer.calls["series.series_mul"]
    out["theorems.reports"] = tracer.counts["theorems.reports"]
    out["theorems.failed"] = tracer.counts["theorems.failed"]
    out["seqfile.parse.calls"] = tracer.calls["seqfile.parse_sequence"]
    out["seqfile.parse_s"] = inclusive["seqfile.parse_sequence"]
    out["seqfile.dump_s"] = inclusive["seqfile.dump_json"]
    return out


def pool_metrics(cli, seed: int, work_dir: Path, checker: Checker) -> dict:
    """T1 / (2 T2) from the Monte Carlo unit on one worker and on two.

    The units run in the order 1, 2, 2, 1 workers, so that a drift in
    machine speed weighs on both sides alike.  Every output is checked
    against the one-worker reference digest, so a pool that changes the
    output bytes counts as a failed unit.
    """
    pool_checker = Checker(workloads.WORKLOADS["mc-pool"])
    seconds = {"mc-gf2": 0.0, "mc-pool": 0.0}
    for name in ("mc-gf2", "mc-pool", "mc-pool", "mc-gf2"):
        call = workloads.make_round(cli, workloads.WORKLOADS[name], seed, work_dir)[0]
        res = pool_checker.run(call)
        if res is not None:
            seconds[name] += res.seconds / 2
    checker.merge(pool_checker)
    t1, t2 = seconds["mc-gf2"], seconds["mc-pool"]
    return {"experiments.pool.efficiency": t1 / (2 * t2) if t2 else 0.0,
            "experiments.pool.overhead_s": t2 - t1 / 2}


def run_traced(name: str, seed: int, work_dir: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    cli = import_cli()
    round_calls = workloads.make_round(cli, workload, seed, work_dir)
    cycles = TRACED_QUERY_CYCLES if name == "queries" else 1
    checker = Checker(workload)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    calls = 0
    # Alternate untraced and traced rounds so that drift during the run
    # affects both sides alike.
    for _ in range(cycles):
        untraced_s += _run_round(checker, round_calls)[0]
        tracer.install()
        try:
            busy, done = _run_round(checker, round_calls, tracer)
        finally:
            tracer.uninstall()
        traced_s += busy
        calls += done
    tracer.write(SCRATCH / f"spans-{name}-seed{seed}.jsonl")
    metrics = layer_metrics(tracer, calls * workload.units_per_call)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics.update(micro.field_ops(seed))
    metrics.update(micro.field_builds())
    metrics.update(micro.sampler(seed))
    metrics.update(pool_metrics(cli, seed, work_dir, checker))
    probes = [cold_start(workload) for _ in range(COLD_STARTS)]
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    summary = checker.summary()
    return {**summary, "metrics": metrics, "spans": len(tracer.spans)}


def run_record(work_dir: Path) -> dict:
    """Digest every reference unit with the current program."""
    cli = import_cli()
    reference: dict = {}
    notes = []
    for name in ("sweep-ext", "mc-gf2", "queries"):
        workload = workloads.WORKLOADS[name]
        seeds = range(workloads.REFERENCE_SEEDS) if workload.seeded else [0]
        table = reference.setdefault(workload.digest_key, {})
        for seed in seeds:
            for call in workloads.make_round(cli, workload, seed, work_dir):
                res = call()
                table[res.key] = res.digest
                if res.exit_code != 0 or res.problems:
                    notes.append(f"{res.key}: exit {res.exit_code} {res.problems}")
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")
    return {"entries": sum(len(t) for t in reference.values()), "notes": notes}


def main(argv: list) -> int:
    mode = argv[0]
    work_dir = SCRATCH / f"work-{os.getpid()}"
    try:
        if mode == "timed":
            result = run_timed(argv[1], int(argv[2]), float(argv[3]), work_dir)
        elif mode == "traced":
            result = run_traced(argv[1], int(argv[2]), work_dir)
        elif mode == "record":
            result = run_record(work_dir)
        else:
            sys.stderr.write(f"unknown mode {mode!r}\n")
            return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
