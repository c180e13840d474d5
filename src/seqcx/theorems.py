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

The checkers never recompute complexities with logic of their own: all
L_n / t_n / E_n inputs come from the lincomp and expcomp modules, so a bug
there cannot cancel out here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


# -- periodic-sequence checks (declared preperiod and period) ---------------


def _established_l_t(seq: Sequence) -> tuple[int, int, lincomp.LinearFit]:
    """Linear complexity and true preperiod of a declared periodic sequence.

    The fit is taken over the full known prefix and validated through the
    rational reconstruction, so an undersized or inconsistent declaration
    surfaces as an error rather than a wrong bound.
    """
    if seq.meta is None:
        raise ValueError("sequence must declare (preperiod, period)")
    fit = lincomp.berlekamp_massey(seq, len(seq.terms))
    rf = lincomp.rational_form(fit, seq)
    return rf.complexity, rf.t, fit


def check_theorem1(
    seq: Sequence, n: int, *, expansion: Optional[int] = None
) -> list[BoundReport]:
    """Both T1 bounds for an ultimately periodic sequence at prefix length n.

    A nonzero generating function can still have an all-zero length-n prefix
    (positive valuation); there the expansion complexity is 0 by convention
    with no witness for the bounds to constrain, so both checks report
    not-applicable, mirroring the explicit nonzero-prefix guard of the
    prefix-based bounds.
    """
    l, t, _ = _established_l_t(seq)
    if l == 0:
        raise ValueError("zero generating function is excluded")
    inputs = {"l": l, "t": t, "n": n}
    if not any(seq.terms[:n]):
        return [
            _not_applicable("T1.lower", inputs, "all-zero prefix"),
            _not_applicable("T1.upper", inputs, "all-zero prefix"),
        ]
    if expansion is None:
        expansion = expcomp.expansion_value(seq.field, seq.terms, n)
    return [
        _report("T1.lower", inputs, ">=", periodic_lower_bound(l, t, n), expansion),
        _report("T1.upper", inputs, "<=", periodic_upper_bound(l, t), expansion),
    ]


def check_theorem1_remark(
    seq: Sequence, n: int, *, expansion: Optional[int] = None
) -> BoundReport:
    """Exact value E_n = L - t + 1 when t <= 2 and n > (L-t)(L-t+1)."""
    l, t, _ = _established_l_t(seq)
    if l == 0:
        raise ValueError("zero generating function is excluded")
    inputs = {"l": l, "t": t, "n": n}
    if not any(seq.terms[:n]):
        return _not_applicable("T1.remark", inputs, "all-zero prefix")
    if t > 2:
        return _not_applicable("T1.remark", inputs, "requires preperiod <= 2")
    if n <= (l - t) * (l - t + 1):
        return _not_applicable("T1.remark", inputs, "prefix too short for equality")
    if expansion is None:
        expansion = expcomp.expansion_value(seq.field, seq.terms, n)
    return _report("T1.remark", inputs, "==", l - t + 1, expansion)


# -- prefix checks (no periodicity assumption) -------------------------------


def check_theorem4(
    seq: Sequence,
    n: int,
    *,
    fit: Optional[lincomp.LinearFit] = None,
    expansion: Optional[int] = None,
) -> list[BoundReport]:
    """Both T4 bounds at prefix length n, using the canonical fitted t_n."""
    if n < 2:
        raise ValueError("prefix bounds require n >= 2")
    if not any(seq.terms[:n]):
        raise ValueError("all-zero prefix is excluded")
    if fit is None:
        fit = lincomp.berlekamp_massey(seq, n)
    if expansion is None:
        expansion = expcomp.expansion_value(seq.field, seq.terms, n)
    l_n, t_n = fit.complexity, fit.t
    inputs = {"l_n": l_n, "t_n": t_n, "n": n}
    return [
        _report("T4.lower", inputs, ">=", periodic_lower_bound(l_n, t_n, n), expansion),
        _report("T4.upper", inputs, "<=", prefix_upper_bound(l_n, t_n, n), expansion),
    ]


def check_growth(profile_l, profile_e) -> list[BoundReport]:
    """Per-step growth laws for both profiles (claims P2 and L3)."""
    if len(profile_l) != len(profile_e):
        raise ValueError("profiles must cover the same prefix")
    reports = []
    for idx in range(len(profile_e) - 1):
        n = idx + 1
        e_n, e_next = profile_e[idx], profile_e[idx + 1]
        reports.append(
            _report(
                "P2",
                {"n": n, "e_n": e_n},
                "in",
                (e_n, max(e_n, 1) + 1),
                e_next,
            )
        )
        l_n, l_next = profile_l[idx], profile_l[idx + 1]
        if 2 * l_n > n:
            reports.append(
                _report("L3", {"n": n, "l_n": l_n}, "==", l_n, l_next)
            )
        else:
            allowed = tuple(sorted({l_n, n + 1 - l_n}))
            reports.append(
                _report("L3", {"n": n, "l_n": l_n}, "in_set", allowed, l_next)
            )
    return reports


def check_misc_upper(
    seq: Sequence,
    n: int,
    *,
    expansion_profile=None,
    series: Optional[TruncatedSeries] = None,
) -> list[BoundReport]:
    """R.simple, R.subadd, R.frobenius(.witness), and R.kernel at length n.

    series, the generating function of a prefix of at least n terms, is
    what the Frobenius certificate is substituted into; passing the same
    one for every n lets all of them share its table of powers.
    """
    if n < 2:
        raise ValueError("upper-bound remarks require n >= 2")
    if expansion_profile is None:
        expansion_profile = expcomp.expansion_profile(seq, n).values
    e_n = expansion_profile[n - 1]
    reports = []
    if any(seq.terms[:n]):
        reports.append(
            _report("R.simple", {"n": n}, "<=", simple_upper_bound(n), e_n)
        )
        reports.append(
            _report("R.kernel", {"n": n}, "<=", expcomp.kernel_degree_bound(n), e_n)
        )
        # subadditivity over every split with a nonzero leading part
        best = None
        for n1 in range(1, n):
            n2 = n - n1
            if not any(seq.terms[: min(n1, n2)]):
                continue
            total = expansion_profile[n1 - 1] + expansion_profile[n2 - 1]
            if best is None or total < best:
                best = total
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
        if series is None:
            series = seq.prefix_series(n)
        residual = substitute(frobenius_witness(seq, n), series, n)
        reports.append(
            _report(
                "R.frobenius.witness",
                {"n": n, "k": k},
                "==",
                0,
                sum(1 for c in residual.coeffs if c),
            )
        )
    else:
        for claim in ("R.simple", "R.kernel", "R.subadd", "R.frobenius"):
            reports.append(_not_applicable(claim, {"n": n}, "all-zero prefix"))
    return reports


def run_all_checks(
    seq: Sequence,
    n: int,
    *,
    fits: Optional[list[lincomp.LinearFit]] = None,
    expansion: Optional[expcomp.ExpansionProfile] = None,
    series: Optional[TruncatedSeries] = None,
) -> list[BoundReport]:
    """Every applicable checker for the first n terms (driver for `verify`).

    T1 checks run only when the sequence declares its periodicity; growth
    checks cover every step up to n; T4 and the upper-bound remarks run at
    each prefix length where their preconditions hold.  fits (one per prefix
    length 1..n), expansion (the profile of the first n terms) and series
    (their generating function, shared by every Frobenius certificate) are
    computed here unless the caller already has them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if fits is None:
        fits = lincomp.linear_fits(seq, n)
    if expansion is None:
        expansion = expcomp.expansion_profile(seq, n)
    if series is None:
        series = seq.prefix_series(n)
    profile_e = expansion.values
    reports = check_growth([fit.complexity for fit in fits], profile_e)
    for m in range(2, n + 1):
        if any(seq.terms[:m]):
            reports.extend(
                check_theorem4(seq, m, fit=fits[m - 1], expansion=profile_e[m - 1])
            )
            reports.extend(
                check_misc_upper(
                    seq, m, expansion_profile=profile_e, series=series
                )
            )
    if seq.meta is not None and any(seq.terms):
        t_decl, period = seq.meta
        if len(seq.terms) >= t_decl + 2 * period:
            reports.extend(check_theorem1(seq, n, expansion=profile_e[n - 1]))
            reports.append(
                check_theorem1_remark(seq, n, expansion=profile_e[n - 1])
            )
    return reports
