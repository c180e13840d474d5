import itertools
import random

import pytest

from seqcx.lincomp import (
    LinearFit,
    _bm_core,
    _fit_from_core,
    Periodicity,
    Sequence,
    berlekamp_massey,
    extend_by_recurrence,
    linear_fits,
    linear_profile,
    preperiod_from_rational,
    rational_form,
)
from seqcx.series import Poly, poly_pow, rational_expand

from oracles import fit_annihilates, min_recurrence_length_gf2


def test_bm_example(f2):
    seq = Sequence(f2, [1, 1, 0, 1, 1, 0])
    fit = berlekamp_massey(seq, 6)
    assert fit.complexity == 2
    assert fit.coeffs == (1, 1)  # s_{i+2} = s_{i+1} + s_i
    assert fit.t == 0
    assert fit_annihilates(seq, fit)


def test_bm_last_term_convention(f3):
    for n in (1, 3, 5):
        for c in (1, 2):
            seq = Sequence(f3, [0] * (n - 1) + [c])
            fit = berlekamp_massey(seq, n)
            assert fit.complexity == n
            assert fit.t == n
            assert fit.coeffs == (0,) * n


def test_bm_zero_convention(f2):
    fit = berlekamp_massey(Sequence(f2, [0] * 6), 6)
    assert (fit.complexity, fit.t, fit.coeffs) == (0, 0, ())


def test_bm_prefix_too_long(f2):
    with pytest.raises(ValueError):
        berlekamp_massey(Sequence(f2, [1, 0]), 3)


def test_bm_matches_bruteforce_oracle_small(f2):
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            seq = Sequence(f2, list(bits))
            fit = berlekamp_massey(seq, n)
            assert fit.complexity == min_recurrence_length_gf2(bits, n)
            assert fit_annihilates(seq, fit)
            assert 0 <= fit.t <= fit.complexity


def test_profile_examples(f2):
    assert linear_profile(Sequence(f2, [1] * 5), 5) == [1, 1, 1, 1, 1]
    assert linear_profile(Sequence(f2, [0, 0, 1]), 3) == [0, 0, 3]
    assert linear_profile(Sequence(f2, [0] * 4), 4) == [0, 0, 0, 0]


def test_profile_consistent_with_isolated_runs(f2, f7):
    rng = random.Random(5)
    cases = [Sequence(f7, [rng.randrange(7) for _ in range(16)]) for _ in range(10)]
    cases += [
        Sequence(f2, list(bits))
        for bits in itertools.product((0, 1), repeat=7)
    ]
    for seq in cases:
        n_max = len(seq.terms)
        profile = linear_profile(seq, n_max)
        assert profile == [
            berlekamp_massey(seq, n).complexity for n in range(1, n_max + 1)
        ]
        assert all(a <= b for a, b in zip(profile, profile[1:]))
        fits = linear_fits(seq, n_max)
        assert fits == [berlekamp_massey(seq, n) for n in range(1, n_max + 1)]
        assert all(fit_annihilates(seq, fit) for fit in fits)


def _gf2_inputs(rng):
    """Bit strings for the packed BM: random, zero-led, constant,
    impulse, Thue-Morse and ultimately periodic."""
    yield [rng.randrange(2) for _ in range(2048)]
    for n in (1, 2, 3, 5, 17, 63, 64, 65, 256, 500):
        yield [rng.randrange(2) for _ in range(n)]
    for lead in (1, 7, 64, 200):
        yield [0] * lead + [rng.randrange(2) for _ in range(300)]
    yield [0] * 300
    yield [1] * 300
    yield [0] * 99 + [1]
    yield [bin(i).count("1") & 1 for i in range(1024)]
    for t, period in ((0, 1), (0, 7), (3, 5), (10, 31), (40, 100)):
        head = [rng.randrange(2) for _ in range(t + period)]
        yield [head[i] if i < t else head[t + (i - t) % period] for i in range(600)]


def test_packed_bm_equals_generic_pass_at_every_length(f2):
    # over F_2 both entries run the bit-packed pass; _bm_core, the pass
    # every other field runs, is its oracle
    rng = random.Random(2048)
    for terms in _gf2_inputs(rng):
        seq = Sequence(f2, terms)
        cores = _bm_core(f2, terms)
        expected = [_fit_from_core(n, *core) for n, core in enumerate(cores)]
        assert linear_fits(seq, len(terms)) == expected[1:]
        for n in {0, 1, len(terms) // 3, len(terms) - 1, len(terms)}:
            assert berlekamp_massey(seq, n) == expected[n], n


def test_profile_growth_law_exhaustive_n12(f2):
    # stay when L_n > n/2, else stay or jump to n+1-L_n; covering every
    # length-12 prefix covers all shorter prefixes as well
    for bits in itertools.product((0, 1), repeat=12):
        profile = linear_profile(Sequence(f2, list(bits)), 12)
        for idx in range(11):
            n, l_n, l_next = idx + 1, profile[idx], profile[idx + 1]
            if 2 * l_n > n:
                assert l_next == l_n
            else:
                assert l_next in (l_n, n + 1 - l_n)


def test_declared_periodicity_bounds_complexity(f2, f3):
    rng = random.Random(9)
    for field in (f2, f3):
        for _ in range(30):
            t = rng.randrange(0, 4)
            period = rng.randrange(1, 5)
            head = [rng.randrange(field.q) for _ in range(t)]
            cycle = [rng.randrange(field.q) for _ in range(period)]
            terms = head + [cycle[i % period] for i in range(3 * period + t + 4)]
            seq = Sequence(field, terms, meta=Periodicity(t, period))
            fit = berlekamp_massey(seq, len(terms))
            assert fit.complexity <= period + t


def test_sequence_meta_validation(f2):
    with pytest.raises(ValueError):
        Sequence(f2, [1, 0, 1, 1], meta=Periodicity(0, 2))
    with pytest.raises(ValueError):
        Sequence(f2, [1, 1], meta=Periodicity(-1, 1))
    with pytest.raises(ValueError):
        Sequence(f2, [1, 2])  # element out of range


def test_rational_form_all_ones(f7):
    seq = Sequence(f7, [1] * 14, meta=Periodicity(0, 1))
    rf = rational_form(berlekamp_massey(seq, 14), seq)
    assert rf.f == Poly(f7, [1])
    assert rf.g == Poly(f7, [1, 6])  # 1 - x
    assert rf.t == 0
    assert rf.complexity == 1


def test_rational_form_binomial_family(f7):
    import math

    terms = [math.comb((i % 7) + 2, 2) % 7 for i in range(21)]
    seq = Sequence(f7, terms, meta=Periodicity(0, 7))
    rf = rational_form(berlekamp_massey(seq, 21), seq)
    assert rf.f == Poly(f7, [1])
    assert rf.g == poly_pow(Poly(f7, [1, 6]), 3)  # (1 - x)^3
    assert rf.t == 0


def test_rational_form_preperiod_two(f2):
    # 1, 0, then all ones: G = 1 + x^2/(1-x) = (1 + x + x^2) / (1 + x) over F_2
    seq = Sequence(f2, [1, 0] + [1] * 10, meta=Periodicity(2, 1))
    rf = rational_form(berlekamp_massey(seq, 12), seq)
    assert rf.f == Poly(f2, [1, 1, 1])
    assert rf.g == Poly(f2, [1, 1])
    assert rf.t == 2
    assert rf.g.degree == rf.complexity - rf.t
    assert preperiod_from_rational(rf) == rf.t


def test_rational_form_rejects_inconsistent_fit(f2):
    seq = Sequence(f2, [1, 0, 1, 1, 1, 1], meta=Periodicity(2, 1))
    # a fit on only t + 2T = 4 terms finds L = 2, which the tail contradicts
    short_fit = berlekamp_massey(seq, 4)
    assert short_fit.complexity == 2
    with pytest.raises(ValueError):
        rational_form(short_fit, seq)


def test_rational_form_requires_meta(f2):
    seq = Sequence(f2, [1] * 8)
    with pytest.raises(ValueError):
        rational_form(berlekamp_massey(seq, 8), seq)


def test_rational_roundtrip_reproduces_prefix(f2, f3, f5):
    rng = random.Random(21)
    for field in (f2, f3, f5):
        for _ in range(20):
            t = rng.randrange(0, 3)
            period = rng.randrange(1, 4)
            head = [rng.randrange(field.q) for _ in range(t)]
            cycle = [rng.randrange(field.q) for _ in range(period)]
            terms = head + [cycle[i % period] for i in range(4 * period + 2 * t + 4)]
            seq = Sequence(field, terms, meta=Periodicity(t, period))
            rf = rational_form(berlekamp_massey(seq, len(terms)), seq)
            assert rf.expand(len(terms)).coeffs == seq.terms
            assert preperiod_from_rational(rf) == rf.t
            # invariants of the normalized form
            assert rf.g.coeff(0) == 1
            assert rf.f.is_zero() or rf.f.degree < rf.complexity


def test_preperiod_examples(f7):
    assert preperiod_from_rational(
        rational_formish(f7, [1], [1, 6], 0)
    ) == 0
    rf = rational_formish(f7, [1, 1, 6], [1, 6], 2)  # (1 + x - x^2) / (1 - x)
    assert preperiod_from_rational(rf) == 2
    assert rational_expand(rf.f, rf.g, 6).coeffs == (1, 2, 1, 1, 1, 1)
    assert preperiod_from_rational(rational_formish(f7, [], [1], 0)) == 0


def rational_formish(field, f_coeffs, g_coeffs, t):
    from seqcx.lincomp import RationalForm

    return RationalForm(Poly(field, f_coeffs), Poly(field, g_coeffs), t)


def test_extend_example(f2):
    seq = Sequence(f2, [1, 1, 0])
    fit = berlekamp_massey(seq, 3)
    ext = extend_by_recurrence(seq, fit, 9)
    assert ext.terms == (1, 1, 0, 1, 1, 0, 1, 1, 0)


def test_extend_zero(f5):
    seq = Sequence(f5, [0, 0])
    ext = extend_by_recurrence(seq, berlekamp_massey(seq, 2), 6)
    assert ext.terms == (0,) * 6


def test_extend_refuses_degenerate(f2):
    seq = Sequence(f2, [0, 0, 1])
    with pytest.raises(ValueError):
        extend_by_recurrence(seq, berlekamp_massey(seq, 3), 6)


def test_extension_is_ultimately_periodic_with_small_preperiod(f2, f3):
    rng = random.Random(2)
    for field in (f2, f3):
        for _ in range(25):
            n = rng.randrange(2, 7)
            terms = [rng.randrange(field.q) for _ in range(n)]
            seq = Sequence(field, terms)
            fit = berlekamp_massey(seq, n)
            if fit.degenerate:
                continue
            # a period must appear within q^L states (pigeonhole), so a
            # window of twice that past the preperiod is enough to see it
            states = field.q**fit.complexity
            ext = extend_by_recurrence(seq, fit, fit.t + 2 * states + n + 4)
            # the recurrence holds everywhere on the extension
            whole = LinearFit(len(ext.terms), fit.complexity, fit.coeffs, fit.t)
            assert fit_annihilates(Sequence(field, ext.terms), whole)
            # and some period repeats after the preperiod t_n
            tail = ext.terms[fit.t:]
            found = False
            for period in range(1, states + 1):
                if all(
                    tail[i] == tail[i + period]
                    for i in range(len(tail) - period)
                ):
                    found = True
                    break
            assert found


def test_unchecked_sequence_equals_validated(f2, f9):
    rng = random.Random("unchecked-sequence")
    for field in (f2, f9):
        terms = [rng.randrange(field.q) for _ in range(20)]
        seq = Sequence._unchecked(field, terms)
        assert seq == Sequence(field, terms)
        assert seq.terms == tuple(terms) and seq.meta is None
        assert linear_fits(seq, 20) == linear_fits(Sequence(field, terms), 20)
