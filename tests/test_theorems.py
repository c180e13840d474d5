import itertools
import random

import pytest

from seqcx import lincomp
from seqcx.expcomp import expansion_profile, expansion_value
from seqcx.lincomp import (
    LinearFit,
    Periodicity,
    Sequence,
    berlekamp_massey,
    linear_fits,
)
from seqcx.theorems import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    _established_l_t,
    _first_nonzero,
    check_growth,
    check_growth_step,
    check_length,
    check_misc_upper,
    check_theorem1,
    check_theorem1_remark,
    check_theorem4,
    frobenius_parameters,
    frobenius_residuals,
    frobenius_witness,
    periodic_lower_bound,
    periodic_upper_bound,
    prefix_upper_bound,
    run_all_checks,
    simple_upper_bound,
)
from seqcx import theorems
from seqcx.field import Field
from seqcx.series import BivariatePoly, substitute

from oracles import naive_substitute


def ones(field, n):
    return Sequence(field, [1] * n, meta=Periodicity(0, 1))


def by_claim(reports):
    return {r.claim_id: r for r in reports}


# The checkers grade engine outputs; these helpers compute the outputs that
# run_all_checks would hand them for the first n terms of seq.


def t1(seq, n):
    l, t = _established_l_t(seq)
    e_n = expansion_value(seq.field, seq.terms, n)
    return check_theorem1(l, t, n, expansion=e_n, first=_first_nonzero(seq))


def remark(seq, n):
    l, t = _established_l_t(seq)
    e_n = expansion_value(seq.field, seq.terms, n)
    return check_theorem1_remark(l, t, n, expansion=e_n, first=_first_nonzero(seq))


def t4(seq, n):
    return check_theorem4(
        berlekamp_massey(seq, n), expansion_value(seq.field, seq.terms, n)
    )


def misc(seq, n):
    return check_misc_upper(
        seq,
        n,
        profile_e=expansion_profile(seq, n).values,
        frobenius=frobenius_residuals(seq, n),
        first=_first_nonzero(seq),
    )


def run_all(seq, n):
    return run_all_checks(
        seq,
        n,
        fits=linear_fits(seq, n),
        expansion=expansion_profile(seq, n),
    )


def test_bound_formula_values():
    # all-ones: L=1, t=0
    assert periodic_lower_bound(1, 0, 5) == 2
    assert periodic_lower_bound(1, 0, 2) == 1
    assert periodic_upper_bound(1, 0) == 2
    # binomial p=13, k=2: L=3, t=0, n=13 > 12
    assert periodic_lower_bound(3, 0, 13) == 4
    assert periodic_upper_bound(3, 0) == 4
    # degenerate prefix [0,0,1]: L_n = t_n = 3
    assert prefix_upper_bound(3, 3, 3) == 2
    assert periodic_lower_bound(3, 3, 3) == 1
    # [1,0,0,0]: L_n=1, t_n=1
    assert prefix_upper_bound(1, 1, 4) == 1
    assert simple_upper_bound(4) == 3


def test_check_theorem1_all_ones(f3):
    reports = by_claim(t1(ones(f3, 12), 5))
    low, up = reports["T1.lower"], reports["T1.upper"]
    assert (low.expected, low.observed, low.outcome) == (2, 2, PASS)
    assert (up.expected, up.observed, up.outcome) == (2, 2, PASS)


def test_check_theorem1_short_prefix_branch(f3):
    reports = by_claim(t1(ones(f3, 12), 2))
    assert reports["T1.lower"].expected == 1  # ceil(2/2)
    assert reports["T1.lower"].observed == 1
    assert reports["T1.lower"].passed


def test_check_theorem1_binomial():
    from seqcx.binomial import BinomialSpec, generate

    seq = generate(BinomialSpec(13, 2), 39)
    reports = by_claim(t1(seq, 13))
    assert reports["T1.lower"].expected == 4
    assert reports["T1.upper"].expected == 4
    assert reports["T1.lower"].observed == 4
    assert all(r.passed for r in reports.values())


def test_check_theorem1_rejects_zero(f2):
    with pytest.raises(ValueError):
        t1(Sequence(f2, [0] * 6, meta=Periodicity(0, 1)), 3)


def test_remark_equality_cases(f2):
    rep = remark(ones(f2, 10), 3)
    assert rep.outcome == PASS and rep.expected == 2

    # preperiod 3 sequence: 0,0,0 then ones
    seq = Sequence(f2, [0, 0, 0] + [1] * 9, meta=Periodicity(3, 1))
    rep = remark(seq, 10)
    assert rep.outcome == NOT_APPLICABLE

    # too-short prefix: n <= (L-t)(L-t+1)
    rep = remark(ones(f2, 10), 2)
    assert rep.outcome == NOT_APPLICABLE


def test_check_theorem4_examples(f2):
    # degenerate [0,0,1]
    reports = by_claim(t4(Sequence(f2, [0, 0, 1]), 3))
    assert reports["T4.upper"].expected == 2
    assert reports["T4.upper"].observed == 2
    assert all(r.passed for r in reports.values())

    reports = by_claim(t4(Sequence(f2, [1] * 5), 5))
    assert reports["T4.lower"].expected == 2
    assert reports["T4.upper"].expected == 2
    assert all(r.passed for r in reports.values())

    reports = by_claim(t4(Sequence(f2, [1, 0, 0, 0]), 4))
    assert reports["T4.upper"].expected == 1
    assert reports["T4.upper"].observed == 1


def test_check_theorem4_preconditions(f2):
    with pytest.raises(ValueError):
        t4(Sequence(f2, [0, 0, 0]), 3)
    with pytest.raises(ValueError):
        t4(Sequence(f2, [1, 1]), 1)


def stated_fits(profile_l):
    """Fits that carry only the given L-profile, which is all the growth
    laws read."""
    return [LinearFit(n, l, (0,) * l, l) for n, l in enumerate(profile_l, 1)]


def test_check_growth_examples(f2):
    seq = Sequence(f2, [1] * 6)
    reports = check_growth(
        linear_fits(seq, 6),
        [expansion_value(f2, seq.terms, n) for n in range(1, 7)],
    )
    assert all(r.passed for r in reports)

    # [0,0,1]: the L-profile jumps 0 -> 3 at n=3 (allowed: n+1-L_n), and the
    # E-profile jumps 0 -> 2 (allowed at the zero boundary)
    seq = Sequence(f2, [0, 0, 1])
    reports = check_growth(
        linear_fits(seq, 3),
        [expansion_value(f2, seq.terms, n) for n in range(1, 4)],
    )
    assert all(r.passed for r in reports)

    # zero sequence: vacuous pass
    reports = check_growth(stated_fits([0, 0, 0]), [0, 0, 0])
    assert all(r.passed for r in reports)


def test_check_growth_detects_violations(f2):
    bad_e = check_growth(stated_fits([1, 1]), [1, 3])
    assert any(r.claim_id == "P2" and r.outcome == FAIL for r in bad_e)
    bad_l = check_growth(stated_fits([2, 1]), [1, 1])
    assert any(r.claim_id == "L3" and r.outcome == FAIL for r in bad_l)


def test_growth_step_reads_the_absolute_length():
    # L_3 = 1 may stay at 1 or jump to 3 + 1 - 1 = 3 at n = 3 but not at
    # n = 1, where 2 * L_1 > 1 pins it: the law reads where the step is
    fits = stated_fits([0, 0, 1, 3])
    step = by_claim(check_growth_step(fits, [0, 0, 1, 2], 4))
    assert step["L3"].inputs == {"n": 3, "l_n": 1}
    assert step["L3"].expected == (1, 3) and step["L3"].passed
    sliced = by_claim(check_growth_step(fits[2:], [1, 2], 2))
    assert sliced["L3"].failed


def test_run_all_checks_is_growth_then_each_length(f2, f3, f4):
    # run_all_checks is every growth step, then check_length at each m, and
    # each per-length entry reads only the first m terms
    rng = random.Random(5)
    for field in (f2, f3, f4):
        for _ in range(6):
            n = 7
            zeros = rng.randrange(3)  # some prefixes start with zeros
            terms = [0] * zeros + [rng.randrange(field.q) for _ in range(n - zeros)]
            seq = Sequence(field, terms)
            fits, profile = linear_fits(seq, n), expansion_profile(seq, n)
            frobenius = frobenius_residuals(seq, n)
            first = _first_nonzero(seq)
            steps = [
                rep for m in range(2, n + 1)
                for rep in check_growth_step(fits, profile.values, m)
            ]
            lengths = [
                check_length(
                    seq, m, fits=fits, profile_e=profile.values,
                    frobenius=frobenius, first=first,
                )
                for m in range(1, n + 1)
            ]
            assert run_all(seq, n) == steps + [r for part in lengths for r in part]
            for m in range(2, n + 1):
                short = Sequence(field, terms[:m])
                short_fits = linear_fits(short, m)
                short_e = expansion_profile(short, m).values
                assert check_growth_step(fits, profile.values, m) == (
                    check_growth(short_fits, short_e)[-2:]
                )
                assert lengths[m - 1] == check_length(
                    short, m, fits=short_fits, profile_e=short_e,
                    frobenius=frobenius_residuals(short, m),
                    first=_first_nonzero(short),
                )
            assert lengths[0] == []


def test_check_misc_upper_examples(f2):
    seq = Sequence(f2, [1] * 6)
    reports = by_claim(misc(seq, 4))
    assert reports["R.simple"].expected == 3
    assert reports["R.kernel"].expected == 2
    assert reports["R.frobenius"].expected == 2  # floor(3/2)*2
    assert all(r.outcome == PASS for r in reports.values())

    reports = by_claim(misc(seq, 6))
    # split 3+3 gives E_3 + E_3 = 4; best split is 1+5 or 2+4 -> 1+2 = 3
    assert reports["R.subadd"].observed == 2
    assert reports["R.subadd"].passed


def test_subadd_equals_brute_force_minimum_over_every_split(f2, f3):
    # random profiles, not engine outputs, so that no symmetry of a real
    # profile can hide a split the minimum skips
    rng = random.Random(17)
    for field in (f2, f3):
        for n in range(2, 26):
            seq = Sequence(field, [rng.randrange(field.q) for _ in range(n)])
            frobenius = frobenius_residuals(seq, n)
            for _ in range(3):
                profile_e = [rng.randrange(n + 1) for _ in range(n)]
                for first in range(n):
                    rep = by_claim(
                        check_misc_upper(
                            seq, n, profile_e=profile_e, frobenius=frobenius,
                            first=first,
                        )
                    )["R.subadd"]
                    sums = [
                        profile_e[n1 - 1] + profile_e[n - n1 - 1]
                        for n1 in range(1, n)
                        if min(n1, n - n1) > first
                    ]
                    if sums:
                        assert rep.outcome != NOT_APPLICABLE, (n, first)
                        assert rep.expected == min(sums), (n, first)
                        assert rep.observed == profile_e[n - 1]
                    else:
                        assert rep.outcome == NOT_APPLICABLE, (n, first)


def test_misc_upper_not_applicable_for_zero_prefix(f2):
    seq = Sequence(f2, [0, 0, 0, 1])
    reports = misc(seq, 3)
    assert all(r.outcome == NOT_APPLICABLE for r in reports)


def test_frobenius_parameters_and_witness(f2, f3):
    assert frobenius_parameters(2, 4) == (1, 2)
    assert frobenius_parameters(2, 9) == (3, 8)
    assert frobenius_parameters(3, 10) == (2, 9)
    # every nonzero length-4 binary prefix: bound 2 and the witness vanishes
    for bits in itertools.product((0, 1), repeat=4):
        if not any(bits):
            continue
        seq = Sequence(f2, list(bits))
        assert expansion_value(f2, seq.terms, 4) <= 2
        wit = frobenius_witness(seq, 4)
        assert substitute(wit, seq.prefix_series(4), 4).is_zero()


def test_frobenius_witness_extension_field(f4):
    # over F_4 with k=1 the certificate needs frobenius-twisted coefficients;
    # the plain-coefficient variant does not vanish
    seq = Sequence(f4, [2, 3, 1, 2])
    n = 4  # k=1, p^k=2, bound floor(3/2)*2 = 2
    wit = frobenius_witness(seq, n)
    assert substitute(wit, seq.prefix_series(n), n).is_zero()

    from seqcx.series import BivariatePoly

    plain = {(0, 2): 1}
    for i in range(2):
        plain[(2 * i, 0)] = f4.neg(seq.terms[i])
    untwisted = BivariatePoly(f4, plain)
    assert not substitute(untwisted, seq.prefix_series(n), n).is_zero()


def test_check_theorem1_preperiod_one_branch(f3):
    # 2 then (1,0) repeating: true preperiod 1, L = 3
    seq = Sequence(f3, [2] + [1, 0] * 8, meta=Periodicity(1, 2))
    for n in (4, 8, 12):
        assert all(r.passed for r in t1(seq, n))
    # remark applies for t = 1 once n > (L-t)(L-t+1) = 6
    assert remark(seq, 8).outcome == PASS
    assert remark(seq, 4).outcome == NOT_APPLICABLE


def test_check_theorem1_preperiod_two_branch(f2):
    # 0,0 then all ones: f = x^2, g = 1-x, so t = 2, L = 3, and the
    # bounds pin E_n = L-t+1 = 2 for n > 2
    seq = Sequence(f2, [0, 0] + [1] * 12, meta=Periodicity(2, 1))
    from seqcx.lincomp import berlekamp_massey, rational_form

    rf = rational_form(berlekamp_massey(seq, len(seq.terms)), seq)
    assert (rf.complexity, rf.t) == (3, 2)
    for n in (4, 9, 14):
        reports = by_claim(t1(seq, n))
        assert reports["T1.lower"].expected == 2
        assert reports["T1.upper"].expected == 2
        assert all(r.passed for r in reports.values())
        assert remark(seq, n).outcome == PASS


def test_equality_remark_on_binomial_tail():
    # p=5, k=2: L = 3, t = 0; past the threshold n > L(L+1) = 12 the
    # expansion complexity locks to L+1 = 4
    from seqcx.binomial import BinomialSpec, generate

    seq = generate(BinomialSpec(5, 2), 20)
    for n in range(13, 19):
        rep = remark(seq, n)
        assert rep.outcome == PASS and rep.expected == 4
    assert expansion_value(seq.field, seq.terms, 12) in (3, 4)


def test_run_all_checks_extension_field(f4):
    seq = Sequence(f4, [1, 2, 3] * 6, meta=Periodicity(0, 3))
    reports = run_all(seq, 9)
    assert reports and not any(r.failed for r in reports)


def test_theorem1_exhaustive_periodic_families(f2):
    # every declared (head, cycle) combination with t <= 2, T <= 3 over F_2;
    # rational_form reduces each to its true (L, t) before the bounds run
    checked = 0
    for t in range(3):
        for period in range(1, 4):
            for head_bits in itertools.product((0, 1), repeat=t):
                for cycle_bits in itertools.product((0, 1), repeat=period):
                    if not any(head_bits) and not any(cycle_bits):
                        continue
                    terms = list(head_bits) + [
                        cycle_bits[i % period] for i in range(t + 3 * period + 12)
                    ]
                    seq = Sequence(f2, terms, meta=Periodicity(t, period))
                    for n in (3, 6, 10, 14):
                        for rep in t1(seq, n):
                            if any(terms[:n]):
                                assert rep.passed, (terms[:8], n, rep)
                            else:
                                assert rep.outcome == NOT_APPLICABLE
                        rep = remark(seq, n)
                        assert rep.outcome in (PASS, NOT_APPLICABLE)
                        checked += 1
    assert checked > 300


def test_reports_are_self_contained(f2):
    for bits in itertools.product((0, 1), repeat=6):
        seq = Sequence(f2, list(bits))
        for rep in run_all(seq, 6):
            assert rep.evaluate() == rep.outcome


def test_report_serialization_roundtrip(f2):
    rep = t4(Sequence(f2, [1, 1, 0, 1]), 4)[0]
    d = rep.to_dict()
    assert set(d) == {"claim", "inputs", "relation", "expected", "observed", "outcome"}


def test_run_all_checks_clean_on_samples(f2, f3):
    assert not any(r.failed for r in run_all(ones(f3, 12), 10))
    seq = Sequence(f2, [1, 0, 1, 1, 0, 1, 1, 1])
    assert not any(r.failed for r in run_all(seq, 8))


def test_run_all_checks_establishes_l_t_once(f3, monkeypatch):
    # T1 and its remark grade one (L, t), so the declared periodicity is
    # reconstructed once per call
    calls = []
    real = lincomp.rational_form

    def counting(fit, seq):
        calls.append(fit.n)
        return real(fit, seq)

    monkeypatch.setattr(lincomp, "rational_form", counting)
    seq = Sequence(f3, [2] + [1, 0] * 8, meta=Periodicity(1, 2))
    claims = {r.claim_id for r in run_all(seq, 12)}
    assert {"T1.lower", "T1.upper", "T1.remark"} <= claims
    assert calls == [len(seq.terms)]


@pytest.mark.parametrize("perturbed", [False, True], ids=["certificate", "perturbed"])
@pytest.mark.parametrize("q_spec", [(2, 1), (3, 1), (2, 2), (3, 2), (101, 1)])
def test_frobenius_residuals_match_naive_substitution(q_spec, perturbed, monkeypatch):
    # each k is substituted once, at its longest length, and the certificate
    # at every length m is graded on the first m coefficients of that
    # residual.  A valid certificate leaves only zeros, so the perturbed run
    # adds a fixed x*y^2 term to every certificate: its residual is not
    # zero, and is the same function of the first m terms at every m
    field = Field(*q_spec)
    if perturbed:
        real_witness = theorems.frobenius_witness

        def witness(seq, n):
            terms = dict(real_witness(seq, n).terms)
            terms[(1, 2)] = field.add(terms.get((1, 2), 0), 1)
            return BivariatePoly(field, terms)

        monkeypatch.setattr(theorems, "frobenius_witness", witness)
    rng = random.Random(31 * field.q + perturbed)
    for n, zeros in ((40, 0), (40, 3), (rng.randrange(8, 40), rng.randrange(3))):
        # zero-led prefixes too; x*G^2 mod x^n is not zero while 2*zeros+1 < n
        terms = [0] * zeros + [rng.randrange(1, field.q)]
        terms += [rng.randrange(field.q) for _ in range(n + 1 - zeros)]
        seq = Sequence(field, terms)
        residuals = frobenius_residuals(seq, n)
        assert [r.order for r in residuals] == [
            min(n, field.p ** (k + 1)) for k in range(len(residuals))
        ]
        assert len(residuals) == frobenius_parameters(field.p, n)[0] + 1
        lo = rng.randrange(2, n + 1)  # a sweep leaf grades lengths lo..n only
        assert frobenius_residuals(seq, n, lo) == [
            r if r.order >= lo else None for r in residuals
        ]
        observed = {
            rep.inputs["n"]: rep.observed
            for rep in run_all(seq, n)
            if rep.claim_id == "R.frobenius.witness"
        }
        assert sorted(observed) == list(range(max(2, zeros + 1), n + 1))
        for m in range(2, n + 1):
            k, _ = frobenius_parameters(field.p, m)
            got = list(residuals[k].coeffs[:m])
            certificate = theorems.frobenius_witness(seq, m)
            assert got == naive_substitute(field, certificate.terms, terms, m), m
            if m in observed:
                assert observed[m] == sum(1 for c in got if c), m
        assert any(observed.values()) == perturbed
