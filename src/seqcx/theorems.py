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

Each claim is built once, as a row (claim_id, inputs, relation, expected,
observed) from the bound formulas and _RELATIONS, and _report turns a row
into a report with its outcome; a row whose relation is None is not
applicable, with its reason as expected.  _theorem1_rows builds the T1
rows.  _length_rows holds everything graded at one prefix
length m: P2 and L3 for the step m-1 -> m, then T4 and the R.* claims at
m.  It reads scalars only, (p, m, first, residual count, L_{m-1}, L_m,
t_m, E_1..E_m), and no term, so a sweep can grade each distinct prefix
once.  Both graders are loops over it: failed_claims returns the claim ids
of its failed rows and builds no report, and run_all_checks (for `verify`)
turns its rows into reports.  The residual count is the number of nonzero
coefficients of the Frobenius certificate of m's k substituted into the
first m terms.  frobenius_nonzero counts it at every m <= n from one
substitution per k; a sweep carries it along its walk instead, and
frobenius_coefficient builds the certificate for both.  witness_holds is
the one check of an E_m witness, by substitution.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

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
    """The report of a row; a row whose relation is None is not applicable,
    with its reason as expected."""
    inputs = dict(inputs)
    if relation is None:
        inputs["reason"] = expected
        return BoundReport(claim_id, inputs, "==", None, None, NOT_APPLICABLE)
    ok = _RELATIONS[relation](observed, expected)
    return BoundReport(claim_id, inputs, relation, expected, observed, PASS if ok else FAIL)


def _failed(rows) -> list[str]:
    return [
        claim_id
        for claim_id, _, relation, expected, observed in rows
        if relation is not None and not _RELATIONS[relation](observed, expected)
    ]


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


def frobenius_coefficient(field, s: int, k: int) -> int:
    """The certificate's coefficient of x^(i*p^k) for the term s_i = s."""
    return field.neg(field.frobenius(s, k))


def frobenius_witness(seq: Sequence, n: int) -> BivariatePoly:
    """The certificate y^(p^k) - sum_i s_i^(p^k) x^(i*p^k) for the first n terms."""
    f = seq.field
    k, _ = frobenius_parameters(f.p, n)
    pk = f.p**k
    terms = {(0, pk): 1}
    for i in range((n - 1) // pk + 1):
        c = frobenius_coefficient(f, seq.terms[i], k)
        if c:
            terms[(i * pk, 0)] = c
    return BivariatePoly._unchecked(f, terms)


def frobenius_residual(seq: Sequence, n: int, k: int) -> TruncatedSeries:
    """The certificate of k for top = min(n, p^(k+1)) terms, substituted
    into their generating function mod x^top.  Every length m <= n with
    p^k <= m-1 < p^(k+1) has that certificate cut to its terms below x^m,
    so its residual is the first m coefficients of this one."""
    top = min(n, seq.field.p ** (k + 1))
    return substitute(frobenius_witness(seq, top), seq.prefix_series(n), top)


def frobenius_nonzero(seq: Sequence, n: int) -> list[int]:
    """Entry m, for m = 0..n: the nonzero coefficients among the first m of
    the Frobenius residual of m's k.  Each k's residual is substituted once
    and counted in one pass, by a running total read off at its lengths."""
    p = seq.field.p
    ks = [frobenius_parameters(p, m)[0] for m in range(n + 1)]
    counts = [0] * (n + 1)
    for k in range(ks[n] + 1):
        coeffs = frobenius_residual(seq, n, k).coeffs
        for m, count in enumerate(accumulate(map(bool, coeffs), initial=0)):
            if ks[m] == k:
                counts[m] = count
    return counts


def witness_holds(poly: BivariatePoly, e: int, g: TruncatedSeries, m: int) -> bool:
    """Whether poly witnesses E_m = e for the first m coefficients of g:
    it has total degree e and h(x, G) vanishes mod x^m, by substitution."""
    return poly.total_degree == e and substitute(poly, g, m).is_zero()


def _first_nonzero(seq: Sequence) -> int:
    """Index of the first nonzero term (the length if there is none): the
    first n terms are all zero exactly when n <= this index."""
    return next((i for i, s in enumerate(seq.terms) if s), len(seq.terms))


# -- periodic-sequence checks (declared preperiod and period) ---------------


def _established_l_t(seq: Sequence) -> tuple[int, int]:
    """Linear complexity and true preperiod of a declared periodic sequence.

    A shortest recurrence is unique only on 2L <= 2(t + T) terms or more,
    so a known prefix shorter than that is first extended by the declared
    period, which fixes every term after the first t + T.  The fit over the
    (extended) prefix is validated through the rational reconstruction, so
    an undersized or inconsistent declaration surfaces as an error rather
    than a wrong bound.
    """
    if seq.meta is None:
        raise ValueError("sequence must declare (preperiod, period)")
    t, period = seq.meta
    terms = list(seq.terms)
    while t + period <= len(terms) < 2 * (t + period):
        terms.append(terms[-period])
    if len(terms) > len(seq):
        seq = Sequence(seq.field, terms, seq.meta)
    rf = lincomp.rational_form(lincomp.berlekamp_massey(seq, len(seq.terms)), seq)
    if rf.complexity == 0:
        raise ValueError("zero generating function is excluded")
    return rf.complexity, rf.t


def _theorem1_rows(l: int, t: int, n: int, expansion: int, first: int) -> list:
    """The T1.lower, T1.upper and T1.remark rows at prefix length n of an
    ultimately periodic sequence with established (L, t) and first nonzero
    term at index first.

    A nonzero generating function can still have an all-zero length-n prefix
    (positive valuation); there the expansion complexity is 0 by convention
    with no witness for the bounds to constrain, so all three rows are not
    applicable, mirroring the explicit nonzero-prefix guard of the
    prefix-based bounds.  The remark, the exact value E_n = L - t + 1, also
    needs t <= 2 and n > (L-t)(L-t+1).
    """
    inputs = (("l", l), ("t", t), ("n", n))
    if n <= first:
        return [
            (claim, inputs, None, "all-zero prefix", None)
            for claim in ("T1.lower", "T1.upper", "T1.remark")
        ]
    if t > 2:
        remark = ("T1.remark", inputs, None, "requires preperiod <= 2", None)
    elif n <= (l - t) * (l - t + 1):
        remark = ("T1.remark", inputs, None, "prefix too short for equality", None)
    else:
        remark = ("T1.remark", inputs, "==", l - t + 1, expansion)
    return [
        ("T1.lower", inputs, ">=", periodic_lower_bound(l, t, n), expansion),
        ("T1.upper", inputs, "<=", periodic_upper_bound(l, t), expansion),
        remark,
    ]


def check_theorem1(
    l: int, t: int, n: int, *, expansion: int, first: int
) -> list[BoundReport]:
    """Both T1 bounds at prefix length n (see _theorem1_rows)."""
    return [_report(*row) for row in _theorem1_rows(l, t, n, expansion, first)[:2]]


def check_theorem1_remark(
    l: int, t: int, n: int, *, expansion: int, first: int
) -> BoundReport:
    """Exact value E_n = L - t + 1 when t <= 2 and n > (L-t)(L-t+1)."""
    return _report(*_theorem1_rows(l, t, n, expansion, first)[2])


# -- prefix checks (no periodicity assumption) -------------------------------


def _theorem4_rows(n: int, l_n: int, t_n: int, expansion: int) -> list:
    inputs = (("l_n", l_n), ("t_n", t_n), ("n", n))
    return [
        ("T4.lower", inputs, ">=", periodic_lower_bound(l_n, t_n, n), expansion),
        ("T4.upper", inputs, "<=", prefix_upper_bound(l_n, t_n, n), expansion),
    ]


def check_theorem4(fit: lincomp.LinearFit, expansion: int) -> list[BoundReport]:
    """Both T4 bounds at prefix length n = fit.n, using the canonical t_n."""
    if fit.n < 2:
        raise ValueError("prefix bounds require n >= 2")
    if fit.complexity == 0:
        raise ValueError("all-zero prefix is excluded")
    rows = _theorem4_rows(fit.n, fit.complexity, fit.t, expansion)
    return [_report(*row) for row in rows]


def _growth_rows(profile_e, m: int, l_n: int, l_m: int) -> list:
    """The P2 and L3 rows of the step from n = m-1 to m terms, with
    L_n = l_n and L_m = l_m."""
    n = m - 1
    e_n = profile_e[n - 1]
    if 2 * l_n > n:
        relation, allowed = "==", l_n
    else:
        relation, allowed = "in_set", tuple(sorted({l_n, n + 1 - l_n}))
    return [
        ("P2", (("n", n), ("e_n", e_n)), "in", (e_n, max(e_n, 1) + 1), profile_e[n]),
        ("L3", (("n", n), ("l_n", l_n)), relation, allowed, l_m),
    ]


def check_growth(fits: list[lincomp.LinearFit], profile_e) -> list[BoundReport]:
    """Per-step growth laws over whole profiles: every step m-1 -> m."""
    if len(fits) != len(profile_e):
        raise ValueError("profiles must cover the same prefix")
    return [
        _report(*row)
        for m in range(2, len(profile_e) + 1)
        for row in _growth_rows(
            profile_e, m, fits[m - 2].complexity, fits[m - 1].complexity
        )
    ]


def _upper_rows(p: int, n: int, profile_e, first: int, nonzero: int) -> list:
    """The R.* rows at length n >= 2 of a prefix whose first n terms are not
    all zero; nonzero counts the nonzero coefficients among the first n of
    the Frobenius residual of n's k.  check_misc_upper reads its claim ids
    off these rows on an all-zero prefix too."""
    e_n = profile_e[n - 1]
    at_n = (("n", n),)
    # subadditivity over every split with a nonzero leading part; a split
    # n1 + n2 and its mirror give the same sum, so n1 <= n2: E_{n1} for
    # n1 = first+1..n//2 pairs with E_{n-n1}, read backwards
    best = min(
        map(
            operator.add,
            profile_e[first : n // 2],
            reversed(profile_e[n - n // 2 - 1 : n - first - 1]),
        ),
        default=None,
    )
    if best is None:
        subadd = ("R.subadd", at_n, None, "no split with nonzero start", None)
    else:
        subadd = ("R.subadd", at_n, "<=", best, e_n)
    k, bound = frobenius_parameters(p, n)
    return [
        ("R.simple", at_n, "<=", simple_upper_bound(n), e_n),
        ("R.kernel", at_n, "<=", expcomp.kernel_degree_bound(n), e_n),
        subadd,
        ("R.frobenius", (("n", n), ("p", p), ("k", k)), "<=", bound, e_n),
        ("R.frobenius.witness", (("n", n), ("k", k)), "==", 0, nonzero),
    ]


def check_misc_upper(
    p: int,
    n: int,
    *,
    profile_e: list[int],
    residual_nonzero: int,
    first: int,
) -> list[BoundReport]:
    """R.simple, R.subadd, R.frobenius(.witness), and R.kernel at length n.

    p is the characteristic, profile_e holds E_1..E_m for some m >= n,
    residual_nonzero is entry n of frobenius_nonzero, and first is the
    index of the first nonzero term of the sequence.
    """
    if n < 2:
        raise ValueError("upper-bound remarks require n >= 2")
    rows = _upper_rows(p, n, profile_e, first, residual_nonzero)
    if first >= n:
        rows = [(row[0], (("n", n),), None, "all-zero prefix", None) for row in rows]
    return [_report(*row) for row in rows]


def _length_rows(p, m, first, residual_nonzero, l_prev, l_m, t_m, profile_e):
    """The rows graded at length m >= 2, as (growth rows, length rows): P2
    and L3 for the step m-1 -> m, and, unless the first m terms are all
    zero, T4 and the R.* claims at m.

    p is the characteristic, first the index of the first nonzero term,
    residual_nonzero entry m of frobenius_nonzero, l_prev, l_m and t_m are
    L_{m-1}, L_m and t_m of the fits, and profile_e holds E_1..E_m or more.
    """
    growth = _growth_rows(profile_e, m, l_prev, l_m)
    if m <= first:
        return growth, []
    return growth, (
        _theorem4_rows(m, l_m, t_m, profile_e[m - 1])
        + _upper_rows(p, m, profile_e, first, residual_nonzero)
    )


def failed_claims(
    p: int,
    m: int,
    first: int,
    residual_nonzero: int,
    l_prev: int,
    l_m: int,
    t_m: int,
    profile_e,
) -> list[str]:
    """The claim ids of the failed rows of _length_rows at m >= 2, in
    their order, with no report built.  It reads nothing but its arguments,
    so with profile_e cut to E_1..E_m its arguments after p are a complete
    key for its result.
    """
    growth, lengths = _length_rows(
        p, m, first, residual_nonzero, l_prev, l_m, t_m, profile_e
    )
    return _failed(growth + lengths)


def run_all_checks(
    seq: Sequence,
    n: int,
    *,
    fits: list[lincomp.LinearFit],
    expansion: expcomp.ExpansionProfile,
) -> list[BoundReport]:
    """Every applicable checker for the first n terms (driver for `verify`).

    fits holds one fit per prefix length 1..n and expansion is the profile
    of the first n terms.  The growth rows of _length_rows at every m =
    2..n come first, then its length rows at each m, then the T1 rows at n
    when the sequence declares its periodicity, on the (L, t) established
    once here.  The rows become reports in one pass.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    profile_e = expansion.values
    first = _first_nonzero(seq)
    nonzero = frobenius_nonzero(seq, n)
    p = seq.field.p
    growth, lengths = [], []
    for m in range(2, n + 1):
        fit = fits[m - 1]
        step, at_m = _length_rows(
            p, m, first, nonzero[m], fits[m - 2].complexity, fit.complexity, fit.t,
            profile_e,
        )
        growth += step
        lengths += at_m
    rows = growth + lengths
    if seq.meta is not None and first < len(seq.terms):
        t_decl, period = seq.meta
        if len(seq.terms) >= t_decl + 2 * period:
            l, t = _established_l_t(seq)
            rows += _theorem1_rows(l, t, n, profile_e[n - 1], first)
    return [_report(*row) for row in rows]
