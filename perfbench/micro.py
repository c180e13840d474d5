"""Standalone micro-runs for the layers that spans cannot cover.

Field operations are far too fine-grained to wrap, so ``field.*_ns`` time
them directly on seeded operand lists.  The sampler is timed through the
public ``experiments.sample_terms``.
"""

from __future__ import annotations

import random
import statistics
import time

FIELD_SIZES = {"q101": (101, 1), "q9": (3, 2), "q16": (2, 4), "q65536": (2, 16)}
FIELD_BUILDS = {"q9": (3, 2), "q65536": (2, 16)}

OPERANDS = 2000
REPEATS = 5


def _ns_per_call(op, pairs) -> float:
    start = time.perf_counter_ns()
    for a, b in pairs:
        op(a, b)
    return (time.perf_counter_ns() - start) / len(pairs)


def field_ops(seed: int) -> dict:
    """Median ns per mul / inv / add over seeded operand lists."""
    from seqcx.field import Field

    out = {}
    for tag, (p, m) in FIELD_SIZES.items():
        field = Field(p, m)
        rng = random.Random(f"perfbench-field:{tag}:{seed}")
        pairs = [(rng.randrange(1, field.q), rng.randrange(1, field.q))
                 for _ in range(OPERANDS)]
        ops = {
            "mul": field.mul,
            "add": field.add,
            "inv": lambda a, _b, inv=field.inv: inv(a),
        }
        for name, op in ops.items():
            samples = [_ns_per_call(op, pairs) for _ in range(REPEATS)]
            out[f"field.{name}_ns.{tag}"] = statistics.median(samples)
    return out


def field_builds() -> dict:
    from seqcx.field import Field

    out = {}
    for tag, (p, m) in FIELD_BUILDS.items():
        batch = 1 if p**m > 1000 else 200
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(batch):
                Field(p, m)
            samples.append((time.perf_counter() - start) / batch)
        out[f"field.build_s.{tag}"] = statistics.median(samples)
    return out


def sampler(seed: int) -> dict:
    """Counter-based draws per second (64-term F_2 samples)."""
    from seqcx import experiments

    rates = []
    for rep in range(REPEATS):
        draws = 0
        start = time.perf_counter()
        for stream in range(200):
            draws += len(experiments.sample_terms(seed, rep * 200 + stream, 64, 2))
        rates.append(draws / (time.perf_counter() - start))
    return {"experiments.sample.draws_per_s": statistics.median(rates)}
