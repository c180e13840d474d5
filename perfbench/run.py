"""seqcx benchmark entry point.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness 5 [--workload W ...] [--seconds S]
    python3 perfbench/run.py --record-reference

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json for
one workload; with ``--trace 1`` every per-layer metric.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The workload runs in a child interpreter of its own (see
``worker.py``), so its peak RSS is its alone; ``setup_s`` is the median of
five fresh interpreters importing ``seqcx.cli`` and building the workload's
fields, started between the workload's rounds.

``--steadiness N`` repeats each workload on seeds 1..N and prints each
metric's median and quartile spread next to its bound.
``--record-reference`` rewrites ``reference.json`` from the current program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


def run_child(argv: list, timeout: float) -> dict:
    """Run a child interpreter in its own session; return its last-line JSON."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{argv[0]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise ChildError(f"{argv[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildError(f"{argv[0]} printed nothing")
    return json.loads(lines[-1])


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(name: str, seed: int, seconds: int, deadline: float) -> tuple:
    workload = workloads.WORKLOADS[name]
    child = run_child(
        [str(HERE / "worker.py"), "timed", name, str(seed), str(seconds)],
        deadline - time.monotonic(),
    )
    durations = child["durations"]
    if not durations:
        raise ChildError("no unit completed")
    metrics = {
        "setup_s": child["setup_s"],
        "units_per_s": child["units"] / sum(durations),
        "call_p50_s": percentile(durations, 50),
        "call_p90_s": percentile(durations, 90),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    notes = {
        "units_per_s": f"{workload.unit_name} per second "
                       f"({child['units']} {workload.unit_name}, "
                       f"{len(durations)} calls)",
        "call_p50_s": f"median of {len(durations)} cli.main calls",
        "call_p90_s": f"nearest-rank p90 of {len(durations)} cli.main calls",
        "setup_s": "median of the fresh interpreters spread over the run",
    }
    return child, metrics, notes


def per_layer(name: str, seed: int, deadline: float) -> tuple:
    child = run_child([str(HERE / "worker.py"), "traced", name, str(seed)],
                      deadline - time.monotonic())
    return child, child["metrics"], {}


# What units_per_s is called on each workload.
UNIT_ALIASES = {"prefixes": "prefixes_per_s", "samples": "samples_per_s",
                "queries": "queries_per_s"}


# Printed on every untraced run but not a JSON metric: see README.md.
UNGATED = [{"name": "call_p50_s", "unit": "s"}, {"name": "call_p90_s", "unit": "s"}]


def report(args, bench: dict, child: dict, metrics: dict, notes: dict) -> int:
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"metrics not produced: {missing}\n")
        return 1
    shown = wanted if args.trace else wanted + UNGATED
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed} "
          f"(input set {workloads.input_seed(args.seed)})  trace {args.trace}")
    for m in shown:
        label = m["name"]
        if label == "units_per_s":
            label = f"{label} = {UNIT_ALIASES[workload.unit_name]}"
        elif label.startswith("call_") and workload.name == "queries":
            label = f"{label} = query_{label[len('call_'):]}"
        print(f"  {label:40s} {metrics[m['name']]:>14.6g} {m['unit']:6s} "
              f"{notes.get(m['name'], '')}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"  {'fail_ratio':40s} {failed / attempted:>14.6g} {'ratio':6s} "
          f"{failed} failed of {attempted} units")
    print(f"  {'digest_ok':40s} {str(child['digest_ok']).lower():>14s}")
    for message in child["messages"]:
        print(f"  failure: {message}")
    result = {
        "correct": failed == 0 and child["digest_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def steadiness(args, bench: dict) -> int:
    """Repeat each workload and print median and quartile spread per metric."""
    names = args.workload_list or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in wanted}
    worst = 0
    for name in names:
        runs = []
        for seed in range(1, args.steadiness + 1):
            argv = [str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
            runs.append(run_child(argv, 2 * RUN_BUDGET_S))
        correct = sum(1 for r in runs if r["correct"])
        print(f"{name}: {correct}/{len(runs)} runs correct")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds[metric]
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else "WIDE"
                if metric != "setup_s" and flag == "WIDE":
                    worst = 1
            print(f"  {metric:40s} median {median:<12.6g} spread {spread:7.2%}"
                  f"  bound {bound if bound is not None else '-'}  {flag}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
        if correct != len(runs):
            worst = 1
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", dest="workload_list", action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "seqcx" / "cli.py").is_file():
        sys.stderr.write(f"no seqcx sources under {SRC}; run from a checkout\n")
        return 2
    bench = json.loads(BENCHMARK.read_text())
    try:
        if args.record_reference:
            print(json.dumps(run_child([str(HERE / "worker.py"), "record"], 3600)))
            return 0
        if args.steadiness:
            return steadiness(args, bench)
        if not args.workload_list or len(args.workload_list) != 1:
            parser.error("give exactly one --workload")
        args.workload = args.workload_list[0]
        deadline = time.monotonic() + RUN_BUDGET_S
        if args.trace:
            child, metrics, notes = per_layer(args.workload, args.seed, deadline)
        else:
            seconds = args.seconds or bench["run_seconds"]
            child, metrics, notes = end_to_end(args.workload, args.seed, seconds,
                                               deadline)
    except ChildError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    return report(args, bench, child, metrics, notes)


if __name__ == "__main__":
    sys.exit(main())
