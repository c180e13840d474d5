"""Command-line front end.

Subcommands:

    lincomp     shortest linear recurrence (length, t_n, coefficients)
    expcomp     expansion complexity, optionally with the witness polynomial
    binomial    emit or analyze the binomial-coefficient family
    verify      run every applicable bound checker; exit 1 on any violation
    experiment  exhaustive / Monte Carlo distribution runs, written to files

Exit codes: 0 success, 1 bound violation (verify/analyze), 2 parse error,
3 precondition violation (bad parameters, prefix too short, cap exceeded),
4 internal error (an engine broke one of its own invariants).

Primary results go to stdout; diagnostics to stderr.  Experiment outputs are
deterministic for a fixed configuration: no timestamps, sorted keys, canonical
value ordering, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import binomial, expcomp, experiments, lincomp, theorems
from .field import Field
from .seqfile import (
    SequenceFileError,
    dump_json,
    format_field_spec,
    format_sequence,
    parse_field_spec,
    parse_sequence,
    result_record,
    witness_triples,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _load_sequence(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SequenceFileError(f"cannot read {path}: {exc}") from exc
    return parse_sequence(text)


def _check_prefix_length(n: int, seq) -> None:
    if not 1 <= n <= len(seq.terms):
        raise ValueError(f"--n {n} is outside 1..{len(seq.terms)}")


def _fit_row(fit) -> dict:
    return {
        "n": fit.n,
        "l_n": fit.complexity,
        "t_n": fit.t,
        "coeffs": list(fit.coeffs),
    }


def cmd_lincomp(args) -> int:
    seq = _load_sequence(args.input)
    _check_prefix_length(args.n, seq)
    start = time.perf_counter()
    if args.profile:
        fits = lincomp.linear_fits(seq, args.n)
    else:
        fits = [lincomp.berlekamp_massey(seq, args.n)]
    rows = [_fit_row(fit) for fit in fits]
    elapsed = time.perf_counter() - start
    if args.json:
        final = rows[-1]
        record = result_record(
            "lincomp",
            seq,
            args.n,
            l_n=final["l_n"],
            t_n=final["t_n"],
            coeffs=final["coeffs"],
            profile=rows,
            timing=elapsed,
        )
        sys.stdout.write(dump_json(record))
    elif args.csv:
        sys.stdout.write("n,l_n,t_n,coeffs\n")
        for row in rows:
            coeffs = " ".join(str(c) for c in row["coeffs"])
            sys.stdout.write(f"{row['n']},{row['l_n']},{row['t_n']},{coeffs}\n")
    else:
        for row in rows:
            coeffs = " ".join(str(c) for c in row["coeffs"])
            sys.stdout.write(
                f"n={row['n']} L={row['l_n']} t_n={row['t_n']} coeffs=[{coeffs}]\n"
            )
    return EXIT_OK


def cmd_expcomp(args) -> int:
    if args.witness and args.csv:
        raise ValueError("--witness does not apply to --csv")
    seq = _load_sequence(args.input)
    _check_prefix_length(args.n, seq)
    start = time.perf_counter()
    profile = expcomp.expansion_profile(seq, args.n)
    ns = range(1, args.n + 1) if args.profile else [args.n]
    # a witness is built only where one is printed
    rows = []
    for n in ns:
        row = {"n": n, "e_n": profile.values[n - 1]}
        wit = None
        if args.witness:
            wit = profile.witness(n)
            row["witness"] = witness_triples(wit.poly) if wit.poly else None
            row["matrix_rank"] = wit.matrix_rank
            row["monomial_count"] = wit.monomial_count
        rows.append((row, wit))
    if args.json:
        final_wit = rows[-1][1] or profile.witness(args.n)
    elapsed = time.perf_counter() - start
    if args.json:
        record = result_record(
            "expcomp",
            seq,
            args.n,
            e_n=final_wit.complexity,
            witness=witness_triples(final_wit.poly) if final_wit.poly else None,
            profile=[r for r, _ in rows],
            timing=elapsed,
        )
        sys.stdout.write(dump_json(record))
    elif args.csv:
        sys.stdout.write("n,e_n\n")
        for row, _ in rows:
            sys.stdout.write(f"{row['n']},{row['e_n']}\n")
    else:
        for row, wit in rows:
            line = f"n={row['n']} E={row['e_n']}"
            if args.witness and wit.poly is not None:
                line += f" h = {wit.poly}"
            sys.stdout.write(line + "\n")
    return EXIT_OK


def cmd_binomial(args) -> int:
    if args.analyze and args.len is not None:
        raise ValueError("--len does not apply to --analyze")
    if args.json and not args.analyze:
        raise ValueError("--json requires --analyze")
    # both caps are checked before any term is built, so they bound the work
    if args.len is not None and args.len > experiments.EXHAUSTIVE_CAP:
        raise ValueError(
            f"--len {args.len} exceeds the cap of {experiments.EXHAUSTIVE_CAP} terms"
        )
    spec = binomial.BinomialSpec(args.p, args.k)
    if args.analyze and 2 * args.p > experiments.MC_LENGTH_CAP:
        raise ValueError(
            f"--analyze runs the engines on 2p = {2 * args.p} terms, over the "
            f"cap of {experiments.MC_LENGTH_CAP}"
        )
    if args.analyze:
        reports = binomial.analyze(spec)
        if args.json:
            payload = {
                "command": "binomial-analyze",
                "p": args.p,
                "k": args.k,
                "claims": [r.to_dict() for r in reports],
                "passed": all(r.passed for r in reports),
            }
            sys.stdout.write(dump_json(payload))
        else:
            for rep in reports:
                sys.stdout.write(
                    f"{rep.claim_id}: observed={rep.observed} "
                    f"{rep.relation} expected={rep.expected} -> {rep.outcome}\n"
                )
        return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION
    length = args.len if args.len is not None else args.p
    seq = binomial.generate(spec, length)
    sys.stdout.write(format_sequence(seq))
    return EXIT_OK


def cmd_verify(args) -> int:
    seq = _load_sequence(args.input)
    _check_prefix_length(args.n, seq)
    start = time.perf_counter()
    fits = lincomp.linear_fits(seq, args.n)
    profile = expcomp.expansion_profile(seq, args.n)
    reports = theorems.run_all_checks(seq, args.n, fits=fits, expansion=profile)
    elapsed = time.perf_counter() - start
    failures = [r for r in reports if r.failed]
    if args.json:
        wit = profile.witness(args.n)
        fit = fits[-1]
        record = result_record(
            "verify",
            seq,
            args.n,
            l_n=fit.complexity,
            t_n=fit.t,
            e_n=wit.complexity,
            witness=witness_triples(wit.poly) if wit.poly else None,
            bounds=[r.to_dict() for r in reports],
            failures=len(failures),
            timing=elapsed,
        )
        sys.stdout.write(dump_json(record))
    else:
        for rep in reports:
            if rep.failed or args.all:
                sys.stdout.write(
                    f"{rep.claim_id} {rep.inputs}: observed={rep.observed} "
                    f"{rep.relation} expected={rep.expected} -> {rep.outcome}\n"
                )
        sys.stdout.write(
            f"checks={len(reports)} failures={len(failures)}\n"
        )
    return EXIT_VIOLATION if failures else EXIT_OK


def _schedule_entry(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"--schedule entry {token!r} is not an integer") from None


# in each mode, the flags that only the other mode reads; None means not given
_OTHER_MODE_FLAGS = {
    "exhaustive": ("samples", "seed", "schedule"),
    "mc": ("no_checks", "low_b", "tn_scan"),
}


def _experiment_config(args):
    for dest in _OTHER_MODE_FLAGS[args.mode]:
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} does not apply to --mode {args.mode}")
    if args.low_b is not None and args.low_b < 0:
        raise ValueError(f"--low-b must be >= 0, got {args.low_b}")
    try:
        p, m = parse_field_spec(args.q)
    except SequenceFileError as exc:
        # no file is involved: a bad flag value is a precondition violation
        raise ValueError(f"--q: {exc}") from None
    field = Field(p, m)
    if args.mode == "exhaustive":
        if args.n is None:
            raise ValueError("--mode exhaustive requires --n")
        cfg = experiments.ExhaustiveConfig(
            field, args.n, checks=not args.no_checks, workers=args.workers
        )
        # no E_n exceeds the kernel degree bound, so a larger b counts every
        # prefix, against a q^(b^2) too large to compute or to print
        bound = expcomp.kernel_degree_bound(args.n)
        if args.low_b is not None and args.low_b > bound:
            raise ValueError(
                f"--low-b must be <= {bound} at --n {args.n}, got {args.low_b}"
            )
        return cfg
    if args.schedule is None:
        schedule = experiments.DEFAULT_SCHEDULE if args.n is None else (args.n,)
    elif args.n is None:
        schedule = tuple(_schedule_entry(tok) for tok in args.schedule.split(","))
    else:
        raise ValueError("--mode mc takes --n or --schedule, not both")
    return experiments.MonteCarloConfig(
        field,
        samples=1024 if args.samples is None else args.samples,
        seed=0 if args.seed is None else args.seed,
        schedule=schedule,
        workers=args.workers,
    )


def _write(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"--out: {exc}") from None
    sys.stderr.write(f"wrote {path}\n")


def _dist_csv(record) -> str:
    return "value,count\n" + "".join(
        f"{value},{count}\n" for value, count in sorted(record.counts.items())
    )


def cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    # the scan rejects its inputs before the sweep, and before any output
    scan = experiments.tn_ambiguity_scan(cfg) if args.tn_scan else None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out: {exc}") from None
    qtag = format_field_spec(cfg.field).replace("^", "e")
    if args.mode == "exhaustive":
        result = experiments.enumerate_all(cfg)
        summary = {
            "config": {
                "mode": "exhaustive",
                "q": cfg.field.q,
                "n": cfg.n,
                "checks": cfg.checks,
            },
            "result": result.to_dict(),
        }
        if args.low_b is not None:
            probe = experiments.count_low_expansion(result.record, args.low_b)
            summary["low_expansion_probe"] = probe.to_dict()
        if scan is not None:
            summary["tn_ambiguity"] = scan.to_dict()
        stem = f"exhaustive_q{qtag}_n{cfg.n}"
        _write(out / f"{stem}.csv", _dist_csv(result.record))
        _write(out / f"{stem}.json", dump_json(summary))
        sys.stdout.write(
            f"total={result.record.total} violations={result.violations}\n"
        )
        return EXIT_OK
    result = experiments.monte_carlo(cfg)
    summary = {
        "config": {
            "mode": "montecarlo",
            "q": cfg.field.q,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "schedule": list(result.schedule),
        },
        "result": result.to_dict(),
    }
    stem = f"mc_q{qtag}_s{cfg.samples}_seed{cfg.seed}"
    for n in result.schedule:
        _write(out / f"{stem}_n{n}.csv", _dist_csv(result.records[n]))
    _write(out / f"{stem}.json", dump_json(summary))
    sys.stdout.write(f"samples={cfg.samples} schedule={list(result.schedule)}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcx",
        description="Linear and expansion complexity of sequences over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lin = sub.add_parser("lincomp", help="shortest linear recurrence")
    p_lin.add_argument("--input", required=True)
    p_lin.add_argument("--n", type=int, required=True)
    p_lin.add_argument("--profile", action="store_true")
    fmt = p_lin.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_lin.set_defaults(func=cmd_lincomp)

    p_exp = sub.add_parser("expcomp", help="expansion complexity")
    p_exp.add_argument("--input", required=True)
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--profile", action="store_true")
    p_exp.add_argument("--witness", action="store_true")
    fmt = p_exp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_exp.set_defaults(func=cmd_expcomp)

    p_bin = sub.add_parser("binomial", help="binomial-coefficient sequences")
    p_bin.add_argument("--p", type=int, required=True)
    p_bin.add_argument("--k", type=int, required=True)
    p_bin.add_argument("--len", type=int, default=None)
    p_bin.add_argument("--analyze", action="store_true")
    p_bin.add_argument("--json", action="store_true")
    p_bin.set_defaults(func=cmd_binomial)

    p_ver = sub.add_parser("verify", help="run all applicable bound checkers")
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--all", action="store_true", help="print passing checks too")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_runs = sub.add_parser("experiment", help="distribution experiments")
    p_runs.add_argument("--mode", choices=("exhaustive", "mc"), required=True)
    p_runs.add_argument("--q", required=True, help="field size, e.g. 2 or 3^2")
    # None means not given: _experiment_config checks and fills in these
    p_runs.add_argument("--n", type=int)
    p_runs.add_argument("--samples", type=int,
                        help="Monte Carlo sample count (default 1024)")
    p_runs.add_argument("--seed", type=int)
    p_runs.add_argument("--schedule", help="comma-separated prefix lengths (mc)")
    p_runs.add_argument("--workers", type=int, default=1)
    p_runs.add_argument("--no-checks", action="store_true", default=None)
    p_runs.add_argument("--low-b", type=int,
                        help="also count prefixes with E_n <= b (exploratory)")
    p_runs.add_argument("--tn-scan", action="store_true", default=None)
    p_runs.add_argument("--out", default=".")
    p_runs.set_defaults(func=cmd_experiment)
    return parser


# built by the first main call, not at import, and reused by every later one
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except SequenceFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        sys.stderr.write(f"error: internal: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
