"""Structured pass/fail checkers for every verified complexity bound.

Each check produces BoundReport records that are self-contained: the stored
relation, expected value, and observed value are enough to recompute the
outcome.  Checks whose preconditions are unmet report NOT_APPLICABLE, which
is distinct from both pass and fail.

Claim catalog (claim_id values):

    T1.lower / T1.upper   expansion complexity of an ultimately periodic
                          sequence vs. its linear complexity L and preperiod t
    T1.remark             exact value L - t + 1 when t <= 2 and the prefix is
                          long enough
    T4.lower / T4.upper   prefix version of the same bounds, driven by the
                          fitted (L_n, t_n) of the first n terms
    P2                    growth of n -> E_n (by at most 1, see note below)
    L3                    growth of n -> L_n (stay, or jump to n+1-L_n)
    R.simple              E_n <= min{floor((n+3)/2), n-1} for n >= 2
    R.subadd              E_{n1+n2} <= E_{n1} + E_{n2} for valid splits
    R.frobenius           E_n <= floor((n-1)/p^k) * p^k, p^k <= n-1 < p^{k+1},
                          plus the explicit certificate that realizes it
    R.kernel              E_n <= least d with (d+1)(d+2)/2 > n

Note on P2: the "+1" step law presumes a witness for the shorter prefix.
An all-zero prefix has none (its expansion complexity is 0 by convention,
while y is a degree-1 annihilator), so the sharpest universally valid law
is E_{n+1} <= max(E_n, 1) + 1; that is what this module checks.

The checkers grade engine outputs they are given: every L_n / t_n / E_n
input is a required argument, computed by the lincomp and expcomp modules
and never recomputed here, so a bug there cannot cancel out here.  The one
exception is the (L, t) of a declared periodic sequence, which
run_all_checks establishes once from a full-prefix fit and its rational
reconstruction before the T1 checks grade it.

Two per-length entries hold everything graded for one prefix length m:
check_growth_step (P2 and L3 for the step m-1 -> m) and check_length (T4
and the R.* claims at m).  Both read only the first m terms, so a sweep can
grade each distinct prefix once; run_all_checks and check_growth are loops
over them; frobenius_residuals substitutes the Frobenius certificate once
per k for every length m of that k.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import expcomp, lincomp
from .lincomp import Sequence
from .series import BivariatePoly, TruncatedSeries, substitute

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"

_RELATIONS = {
    ">=": lambda obs, exp: obs >= exp,
    "<=": lambda obs, exp: obs <= exp,
    "==": lambda obs, exp: obs == exp,
    "in": lambda obs, exp: exp[0] <= obs <= exp[1],
    "in_set": lambda obs, exp: obs in exp,
}


@dataclass(frozen=True)
class BoundReport:
    claim_id: str
    inputs: dict
    relation: str
    expected: object
    observed: object
    outcome: str

    @property
    def passed(self) -> bool:
        return self.outcome == PASS

    @property
    def failed(self) -> bool:
        return self.outcome == FAIL

    def evaluate(self) -> str:
        """Recompute the outcome from the stored fields alone."""
        if self.outcome == NOT_APPLICABLE:
            return NOT_APPLICABLE
        return PASS if _RELATIONS[self.relation](self.observed, self.expected) else FAIL

    def to_dict(self) -> dict:
        exp = list(self.expected) if isinstance(self.expected, tuple) else self.expected
        return {
            "claim": self.claim_id,
            "inputs": dict(self.inputs),
            "relation": self.relation,
            "expected": exp,
            "observed": self.observed,
            "outcome": self.outcome,
        }


def _report(claim_id, inputs, relation, expected, observed) -> BoundReport:
    ok = _RELATIONS[relation](observed, expected)
    return BoundReport(claim_id, inputs, relation, expected, observed, PASS if ok else FAIL)


def _not_applicable(claim_id, inputs, reason) -> BoundReport:
    inputs = dict(inputs)
    inputs["reason"] = reason
    return BoundReport(claim_id, inputs, "==", None, None, NOT_APPLICABLE)


# -- bound formulas ---------------------------------------------------------


def periodic_lower_bound(l: int, t: int, n: int) -> int:
    """Lower bound on E_n from (linear complexity, preperiod).

    min{1, t-1} evaluates to -1, 0, 1 for t = 0, 1, >= 2.
    """
    denom = l - min(1, t - 1)
    if n > (l - t) * denom:
        return l - t + 1
    return -(-n // denom)


def periodic_upper_bound(l: int, t: int) -> int:
    return l + max(-1, -t + 1)


def prefix_upper_bound(l_n: int, t_n: int, n: int) -> int:
    return min(periodic_upper_bound(l_n, t_n), n - l_n + 2)


def simple_upper_bound(n: int) -> int:
    return min((n + 3) // 2, n - 1)


def frobenius_parameters(p: int, n: int) -> tuple[int, int]:
    """(k, bound) with p^k <= n-1 < p^{k+1} and bound = floor((n-1)/p^k)*p^k."""
    k = 0
    while p ** (k + 1) <= n - 1:
        k += 1
    pk = p**k
    return k, (n - 1) // pk * pk


def frobenius_witness(seq: Sequence, n: int) -> BivariatePoly:
    """The certificate y^(p^k) - sum_i s_i^(p^k) x^(i*p^k) for the first n terms."""
    f = seq.field
    k, _ = frobenius_parameters(f.p, n)
    pk = f.p**k
    terms = {(0, pk): 1}
    for i in range((n - 1) // pk + 1):
        c = f.neg(f.frobenius(seq.terms[i], k))
        if c:
            terms[(i * pk, 0)] = c
    return BivariatePoly._unchecked(f, terms)


def frobenius_residuals(seq: Sequence, n: int, lo: int = 2) -> list:
    """For each k with p^k <= n-1, the certificate for top = min(n, p^(k+1))
    terms substituted into their generating function mod x^top, or None if
    top < lo, when no graded length m >= lo reads it.  Every m with
    p^k <= m-1 < p^(k+1) has that certificate cut to its terms below x^m,
    so its residual is the first m coefficients of entry k."""
    p, g = seq.field.p, seq.prefix_series(n)
    residuals, pk = [], 1
    while pk <= n - 1:
        top = min(n, pk * p)
        residuals.append(
            substitute(frobenius_witness(seq, top), g, top) if top >= lo else None
        )
        pk *= p
    return residuals


def _first_nonzero(seq: Sequence) -> int:
    """Index of the first nonzero term (the length if there is none): the
    first n terms are all zero exactly when n <= this index."""
    return next((i for i, s in enumerate(seq.terms) if s), len(seq.terms))


# -- periodic-sequence checks (declared preperiod and period) ---------------


def _established_l_t(seq: Sequence) -> tuple[int, int]:
    """Linear complexity and true preperiod of a declared periodic sequence.

    The fit is taken over the full known prefix and validated through the
    rational reconstruction, so an undersized or inconsistent declaration
    surfaces as an error rather than a wrong bound.
    """
    if seq.meta is None:
        raise ValueError("sequence must declare (preperiod, period)")
    rf = lincomp.rational_form(lincomp.berlekamp_massey(seq, len(seq.terms)), seq)
    if rf.complexity == 0:
        raise ValueError("zero generating function is excluded")
    return rf.complexity, rf.t


def check_theorem1(
    l: int, t: int, n: int, *, expansion: int, first: int
) -> list[BoundReport]:
    """Both T1 bounds at prefix length n for an ultimately periodic sequence
    with established (L, t) and first nonzero term at index first.

    A nonzero generating function can still have an all-zero length-n prefix
    (positive valuation); there the expansion complexity is 0 by convention
    with no witness for the bounds to constrain, so both checks report
    not-applicable, mirroring the explicit nonzero-prefix guard of the
    prefix-based bounds.
    """
    inputs = {"l": l, "t": t, "n": n}
    if n <= first:
        return [
            _not_applicable("T1.lower", inputs, "all-zero prefix"),
            _not_applicable("T1.upper", inputs, "all-zero prefix"),
        ]
    return [
        _report("T1.lower", inputs, ">=", periodic_lower_bound(l, t, n), expansion),
        _report("T1.upper", inputs, "<=", periodic_upper_bound(l, t), expansion),
    ]


def check_theorem1_remark(
    l: int, t: int, n: int, *, expansion: int, first: int
) -> BoundReport:
    """Exact value E_n = L - t + 1 when t <= 2 and n > (L-t)(L-t+1)."""
    inputs = {"l": l, "t": t, "n": n}
    if n <= first:
        return _not_applicable("T1.remark", inputs, "all-zero prefix")
    if t > 2:
        return _not_applicable("T1.remark", inputs, "requires preperiod <= 2")
    if n <= (l - t) * (l - t + 1):
        return _not_applicable("T1.remark", inputs, "prefix too short for equality")
    return _report("T1.remark", inputs, "==", l - t + 1, expansion)


# -- prefix checks (no periodicity assumption) -------------------------------


def check_theorem4(fit: lincomp.LinearFit, expansion: int) -> list[BoundReport]:
    """Both T4 bounds at prefix length n = fit.n, using the canonical t_n."""
    n, l_n, t_n = fit.n, fit.complexity, fit.t
    if n < 2:
        raise ValueError("prefix bounds require n >= 2")
    if l_n == 0:
        raise ValueError("all-zero prefix is excluded")
    inputs = {"l_n": l_n, "t_n": t_n, "n": n}
    return [
        _report("T4.lower", inputs, ">=", periodic_lower_bound(l_n, t_n, n), expansion),
        _report("T4.upper", inputs, "<=", prefix_upper_bound(l_n, t_n, n), expansion),
    ]


def check_growth_step(
    fits: list[lincomp.LinearFit], profile_e, m: int
) -> list[BoundReport]:
    """The growth laws for the step from m-1 to m terms (claims P2 and L3).

    fits and profile_e cover at least m prefix lengths, indexed from length
    1; the step reads entries m-2 and m-1 of each.  The L3 law depends on
    the absolute length m-1, so a caller hands the whole profiles and the
    absolute index, never a slice.
    """
    n = m - 1
    e_n, e_next = profile_e[n - 1], profile_e[n]
    l_n, l_next = fits[n - 1].complexity, fits[n].complexity
    growth_e = _report(
        "P2", {"n": n, "e_n": e_n}, "in", (e_n, max(e_n, 1) + 1), e_next
    )
    if 2 * l_n > n:
        growth_l = _report("L3", {"n": n, "l_n": l_n}, "==", l_n, l_next)
    else:
        allowed = tuple(sorted({l_n, n + 1 - l_n}))
        growth_l = _report("L3", {"n": n, "l_n": l_n}, "in_set", allowed, l_next)
    return [growth_e, growth_l]


def check_growth(fits: list[lincomp.LinearFit], profile_e) -> list[BoundReport]:
    """Per-step growth laws over whole profiles: every step m-1 -> m."""
    if len(fits) != len(profile_e):
        raise ValueError("profiles must cover the same prefix")
    reports = []
    for m in range(2, len(profile_e) + 1):
        reports.extend(check_growth_step(fits, profile_e, m))
    return reports


def check_misc_upper(
    seq: Sequence,
    n: int,
    *,
    profile_e: list[int],
    frobenius: list[TruncatedSeries],
    first: int,
) -> list[BoundReport]:
    """R.simple, R.subadd, R.frobenius(.witness), and R.kernel at length n.

    profile_e holds E_1..E_m for some m >= n, frobenius is the list
    frobenius_residuals(seq, m, lo) for some m >= n >= lo, and first is the
    index of the first nonzero term of seq.  The certificate at length n is
    graded by the nonzero coefficients among the first n of entry k.
    """
    if n < 2:
        raise ValueError("upper-bound remarks require n >= 2")
    e_n = profile_e[n - 1]
    reports = []
    if first < n:
        reports.append(
            _report("R.simple", {"n": n}, "<=", simple_upper_bound(n), e_n)
        )
        reports.append(
            _report("R.kernel", {"n": n}, "<=", expcomp.kernel_degree_bound(n), e_n)
        )
        # subadditivity over every split with a nonzero leading part; a
        # split n1 + n2 and its mirror give the same sum, so n1 <= n2:
        # E_{n1} for n1 = first+1..n//2 pairs with E_{n-n1}, read backwards
        best = min(
            map(
                operator.add,
                profile_e[first : n // 2],
                reversed(profile_e[n - n // 2 - 1 : n - first - 1]),
            ),
            default=None,
        )
        if best is None:
            reports.append(
                _not_applicable("R.subadd", {"n": n}, "no split with nonzero start")
            )
        else:
            reports.append(_report("R.subadd", {"n": n}, "<=", best, e_n))
        k, bound = frobenius_parameters(seq.field.p, n)
        reports.append(
            _report("R.frobenius", {"n": n, "p": seq.field.p, "k": k}, "<=", bound, e_n)
        )
        nonzero = sum(1 for c in frobenius[k].coeffs[:n] if c)
        witness = _report("R.frobenius.witness", {"n": n, "k": k}, "==", 0, nonzero)
        reports.append(witness)
    else:
        for claim in ("R.simple", "R.kernel", "R.subadd", "R.frobenius"):
            reports.append(_not_applicable(claim, {"n": n}, "all-zero prefix"))
    return reports


def check_length(
    seq: Sequence,
    m: int,
    *,
    fits: list[lincomp.LinearFit],
    profile_e,
    frobenius: list[TruncatedSeries],
    first: int,
) -> list[BoundReport]:
    """T4 and the upper-bound remarks at prefix length m.

    fits and profile_e cover at least m prefix lengths, frobenius is the
    list frobenius_residuals(seq, n, lo) for some n >= m >= lo, and first is
    the index of the first nonzero term of seq.  Every report depends on
    the first m terms only.  Nothing applies, and the list is empty, when
    m < 2 or the first m terms are all zero.
    """
    if m < 2 or m <= first:
        return []
    reports = check_theorem4(fits[m - 1], profile_e[m - 1])
    reports.extend(
        check_misc_upper(seq, m, profile_e=profile_e, frobenius=frobenius, first=first)
    )
    return reports


def run_all_checks(
    seq: Sequence,
    n: int,
    *,
    fits: list[lincomp.LinearFit],
    expansion: expcomp.ExpansionProfile,
) -> list[BoundReport]:
    """Every applicable checker for the first n terms (driver for `verify`).

    fits holds one fit per prefix length 1..n and expansion is the profile
    of the first n terms.  The growth reports of every step up to n come
    first, then check_length at each m = 2..n; T1 runs only when the
    sequence declares its periodicity, on the (L, t) established once here.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    profile_e = expansion.values
    reports = check_growth(fits, profile_e)
    first = _first_nonzero(seq)
    frobenius = frobenius_residuals(seq, n)
    for m in range(2, n + 1):
        reports.extend(
            check_length(
                seq, m, fits=fits, profile_e=profile_e, frobenius=frobenius, first=first
            )
        )
    if seq.meta is not None and first < len(seq.terms):
        t_decl, period = seq.meta
        if len(seq.terms) >= t_decl + 2 * period:
            l, t = _established_l_t(seq)
            e_n = profile_e[n - 1]
            reports.extend(check_theorem1(l, t, n, expansion=e_n, first=first))
            reports.append(
                check_theorem1_remark(l, t, n, expansion=e_n, first=first)
            )
    return reports
