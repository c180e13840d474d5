"""Workload definitions: inputs from the seed, the unit of work, and digests.

A workload is a list of *units*.  Each unit is one call of
``seqcx.cli.main(argv)`` made with stdout and stderr captured, so the
benchmark drives the program only through its command line:

    sweep-ext  one checked exhaustive sweep over F_9 at n=4 (6561 prefixes)
    mc-gf2     one Monte Carlo run over F_2, 4096 samples, one worker
    mc-pool    the same run with two pool workers (timed only inside the
               traced run, for the pool metrics; see README.md)
    queries    one single-sequence query (lincomp / expcomp / verify /
               binomial); the schedule below is cycled in a closed loop

Every unit yields a digest of its output bytes and exit code; the digests
are compared with ``reference.json``.  Reference outputs exist for
``REFERENCE_SEEDS`` input sets, so benchmark seed ``n`` uses input set
``n % REFERENCE_SEEDS``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_SEEDS = 16

MC_SAMPLES = 4096
MC_SCHEDULE = "16,25,36,49,64"
SWEEP_PREFIXES = 9**4

# Minimum query count per run, so that p90 has ten samples beyond it.
MIN_QUERIES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    unit_name: str  # what units_per_s counts, plural
    digest_key: str  # workloads sharing a key must produce identical bytes
    seeded: bool
    fields: tuple  # (p, m) of every field a unit builds
    units_per_call: int  # prefixes or samples per CLI call; 1 for a query


WORKLOADS = {
    "sweep-ext": Workload("sweep-ext", "prefixes", "sweep-ext", False, ((3, 2),),
                          SWEEP_PREFIXES),
    "mc-gf2": Workload("mc-gf2", "samples", "mc", True, ((2, 1),), MC_SAMPLES),
    "mc-pool": Workload("mc-pool", "samples", "mc", True, ((2, 1),), MC_SAMPLES),
    "queries": Workload(
        "queries", "queries", "queries", True,
        ((2, 1), (2, 16), (101, 1), (3, 2), (3, 1), (13, 1)), 1,
    ),
}


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


# -- query inputs ------------------------------------------------------------


def _random_terms(rng: random.Random, q: int, length: int) -> list[int]:
    terms = [rng.randrange(q) for _ in range(length)]
    if not any(terms):
        terms[-1] = 1
    return terms


def _periodic_terms(rng: random.Random, q: int, length: int):
    """Preperiod 2, period 5: a fixed shape keeps the cost of ``verify``
    nearly the same across input sets."""
    preperiod, period = 2, 5
    head = [rng.randrange(q) for _ in range(preperiod)]
    block = _random_terms(rng, q, period)
    terms = head + [block[i % period] for i in range(length - preperiod)]
    return terms, preperiod, period


def _seq_text(spec: str, terms, meta=None) -> str:
    lines = [f"q={spec}"]
    if meta is not None:
        lines.append(f"meta=t:{meta[0]},T:{meta[1]}")
    for i in range(0, len(terms), 20):
        lines.append(" ".join(str(c) for c in terms[i : i + 20]))
    return "\n".join(lines) + "\n"


def write_query_inputs(seed: int, directory: Path) -> dict:
    """Write the sequence files for one input set; return name -> path."""
    rng = random.Random(f"perfbench-queries:{input_seed(seed)}")
    periodic, t, period = _periodic_terms(rng, 3, 30)
    texts = {
        "q2": _seq_text("2", _random_terms(rng, 2, 256)),
        "q65536": _seq_text("2^16", _random_terms(rng, 1 << 16, 32)),
        "q101": _seq_text("101", _random_terms(rng, 101, 32)),
        "q9": _seq_text("3^2", _random_terms(rng, 9, 24)),
        "q3-periodic": _seq_text("3", periodic, (t, period)),
    }
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        path = directory / f"{name}.seq"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def query_schedule(paths: dict) -> list:
    """The fixed, interleaved query cycle: (query id, argv)."""
    return [
        ("lincomp-profile-q2-n256",
         ["lincomp", "--input", paths["q2"], "--n", "256", "--profile", "--json"]),
        ("expcomp-witness-q2-n256",
         ["expcomp", "--input", paths["q2"], "--n", "256", "--witness", "--json"]),
        ("verify-q3-periodic-n30",
         ["verify", "--input", paths["q3-periodic"], "--n", "30", "--json"]),
        ("lincomp-profile-q65536-n32",
         ["lincomp", "--input", paths["q65536"], "--n", "32", "--profile",
          "--json"]),
        ("expcomp-witness-q101-n32",
         ["expcomp", "--input", paths["q101"], "--n", "32", "--witness", "--json"]),
        ("binomial-analyze-p13-k2",
         ["binomial", "--p", "13", "--k", "2", "--analyze", "--json"]),
        ("expcomp-profile-q9-n24",
         ["expcomp", "--input", paths["q9"], "--n", "24", "--profile", "--csv"]),
        ("expcomp-witness-q65536-n16",
         ["expcomp", "--input", paths["q65536"], "--n", "16", "--witness",
          "--json"]),
        ("verify-q2-n32",
         ["verify", "--input", paths["q2"], "--n", "32", "--json"]),
    ]


# -- running one unit ----------------------------------------------------------


@dataclass
class UnitResult:
    key: str  # reference entry this unit is checked against
    exit_code: int
    digest: str
    seconds: float
    problems: list = field(default_factory=list)  # program-reported failures


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def call_cli(cli, argv: list):
    """Run ``cli.main(argv)`` with stdout and stderr captured.

    ``main`` is looked up on every call so that a traced run sees its wrapper.
    Returns (exit code, stdout, seconds spent in ``main``).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


# The one nondeterministic field of a JSON record: a top-level key of
# dump_json's indent=2 output.
_TIMING = re.compile(r'^(  "timing": )[-+0-9.eE]+', re.MULTILINE)


def _normalize_stdout(text: str) -> str:
    """Blank the wall-clock ``timing`` value; every other byte is kept."""
    return _TIMING.sub(r"\1<timing>", text)


def _query_problems(text: str) -> list:
    if not text.lstrip().startswith("{"):
        return []
    record = json.loads(text)
    problems = []
    if record.get("failures", 0):
        problems.append(f"verify reported {record['failures']} bound failures")
    if record.get("passed") is False:
        problems.append("binomial analysis reported a failed claim")
    return problems


def run_query(cli, seed: int, query_id: str, argv: list) -> UnitResult:
    code, text, seconds = call_cli(cli, argv)
    problems = _query_problems(text) if code == 0 else []
    payload = json.dumps(
        {"exit": code, "stdout": _normalize_stdout(text)},
        sort_keys=True,
    )
    return UnitResult(f"{input_seed(seed)}/{query_id}", code, _sha(payload),
                      seconds, problems)


def experiment_argv(workload: Workload, seed: int, out_dir: Path) -> list:
    if workload.name == "sweep-ext":
        return ["experiment", "--mode", "exhaustive", "--q", "3^2", "--n", "4",
                "--low-b", "2", "--workers", "1", "--out", str(out_dir)]
    workers = "2" if workload.name == "mc-pool" else "1"
    return ["experiment", "--mode", "mc", "--q", "2", "--schedule", MC_SCHEDULE,
            "--samples", str(MC_SAMPLES), "--seed", str(input_seed(seed)),
            "--workers", workers, "--out", str(out_dir)]


def run_experiment(cli, workload: Workload, seed: int, out_dir: Path) -> UnitResult:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    code, text, seconds = call_cli(cli, experiment_argv(workload, seed, out_dir))
    files = {}
    problems = []
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            files[path.name] = _sha(data)
            if path.suffix == ".json":
                result = json.loads(data).get("result", {})
                for key in ("violations", "witness_failures"):
                    if result.get(key, 0):
                        problems.append(f"{key}={result[key]}")
    payload = json.dumps({"exit": code, "stdout": text, "files": files},
                         sort_keys=True)
    key = "*" if not workload.seeded else str(input_seed(seed))
    return UnitResult(key, code, _sha(payload), seconds, problems)


def make_round(cli, workload: Workload, seed: int, work_dir: Path) -> list:
    """Zero-argument callables for one round: one experiment, or one query cycle."""
    if workload.name == "queries":
        paths = write_query_inputs(seed, work_dir / "inputs")
        return [functools.partial(run_query, cli, seed, query_id, argv)
                for query_id, argv in query_schedule(paths)]
    return [functools.partial(run_experiment, cli, workload, seed, work_dir / "out")]
