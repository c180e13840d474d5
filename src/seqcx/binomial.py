"""The binomial-coefficient family: a_i = C(i+k, k) mod p.

A worked family with closed-form predictions for everything the rest of the
package computes: its linear complexity is k+1, its generating function is
1/(1-x)^(k+1), and its expansion complexity at one full period is either
exactly k+2 (when (k+1)(k+2) < p) or pinned to a short integer interval.
The analyze() driver recomputes all of those quantities from scratch and
compares them against the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expcomp, lincomp
from .field import Field, check_field_size, is_prime
from .lincomp import Periodicity, Sequence
from .theorems import BoundReport, _report


@dataclass(frozen=True)
class BinomialSpec:
    p: int
    k: int

    def __post_init__(self):
        check_field_size(self.p, 1)  # before trial division of a huge p
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not 1 <= self.k <= self.p - 1:
            raise ValueError(f"k must satisfy 1 <= k <= p-1, got k={self.k}")


@dataclass(frozen=True)
class ExpansionPrediction:
    kind: str  # "exact" | "interval"
    lo: int
    hi: int


def generate(spec: BinomialSpec, length: int) -> Sequence:
    """First `length` terms, purely periodic with period p.

    One period is produced by the telescoping step
    a_{i+1} = a_i * (i+k+1) / (i+1); the factor i+k+1 hits zero mod p at
    i = p-k-1, which zeroes out the tail a_{p-k}..a_{p-1} of the period.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    p, k = spec.p, spec.k
    field = Field(p)
    period = [1] + [0] * (p - 1)
    for i in range(p - 1):
        if period[i] == 0:
            continue
        period[i + 1] = period[i] * ((i + k + 1) % p) * pow(i + 1, p - 2, p) % p
    terms = [(period[i % p]) for i in range(length)]
    return Sequence(field, terms, meta=Periodicity(0, p))


def predicted_linear_complexity(spec: BinomialSpec):
    """(L, profile lower bound) with L = k+1 and
    bound(n) = min{k+1, ceil(n/2), p-k}."""
    p, k = spec.p, spec.k

    def bound(n: int) -> int:
        return min(k + 1, -(-n // 2), p - k)

    return k + 1, bound


def predicted_expansion(spec: BinomialSpec) -> ExpansionPrediction:
    """Expansion complexity at n = p: exact k+2 below the (k+1)(k+2) < p
    threshold, otherwise the interval [ceil(p/(k+2)), max(lo, p mod (k+1))].

    The interval's upper endpoint is p mod (k+1), computed in integer
    arithmetic; it equals (k+1) times the fractional part of p/(k+1).
    """
    p, k = spec.p, spec.k
    if (k + 1) * (k + 2) < p:
        return ExpansionPrediction("exact", k + 2, k + 2)
    lo = -(-p // (k + 2))
    hi = max(lo, p % (k + 1))
    return ExpansionPrediction("interval", lo, hi)


def analyze(spec: BinomialSpec) -> list[BoundReport]:
    """Recompute L, the L_n profile, and E_p, and grade each prediction."""
    p, k = spec.p, spec.k
    seq = generate(spec, 2 * p)
    fits = lincomp.linear_fits(seq, 2 * p)
    predicted_l, bound = predicted_linear_complexity(spec)
    reports = [
        _report("P1.L", {"p": p, "k": k}, "==", predicted_l, fits[-1].complexity)
    ]
    worst = min(fit.complexity - bound(fit.n) for fit in fits)
    reports.append(
        _report("P1.profile", {"p": p, "k": k, "n_max": 2 * p}, ">=", 0, worst)
    )
    e_p = expcomp.expansion_value(seq.field, seq.terms, p)
    prediction = predicted_expansion(spec)
    reports.append(
        _report(
            "T3",
            {"p": p, "k": k, "kind": prediction.kind},
            "in",
            (prediction.lo, prediction.hi),
            e_p,
        )
    )
    return reports
