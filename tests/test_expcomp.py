import itertools
import json
import random
from pathlib import Path

import pytest

from seqcx.expcomp import (
    _reduce_generic,
    _reduce_gf2,
    expansion_complexity,
    expansion_profile,
    expansion_value,
    kernel_degree_bound,
    monomial_count,
)
from seqcx.field import Field
from seqcx.lincomp import Sequence
from seqcx.seqfile import witness_triples
from seqcx.series import BivariatePoly, substitute

from oracles import (
    BRUTE_FORCE_CAP,
    brute_force_expansion,
    unshifted_expansion,
)

PROFILES = Path(__file__).parent / "fixtures" / "expansion_profiles.json"


def assert_witness_valid(seq, wit):
    """The independent series-module check every emitted witness must pass."""
    if wit.complexity == 0:
        assert wit.poly is None
        return
    assert wit.poly is not None and not wit.poly.is_zero()
    assert wit.poly.total_degree == wit.complexity
    assert substitute(wit.poly, seq.prefix_series(wit.n), wit.n).is_zero()


def test_zero_prefix(f2):
    wit = expansion_complexity(Sequence(f2, [0, 0, 0]), 3)
    assert wit.complexity == 0
    assert wit.poly is None


def test_all_ones_n3(f2):
    seq = Sequence(f2, [1, 1, 1])
    wit = expansion_complexity(seq, 3)
    assert wit.complexity == 2
    assert_witness_valid(seq, wit)


def test_shifted_impulse(f2):
    seq = Sequence(f2, [0, 0, 1])
    wit = expansion_complexity(seq, 3)
    assert wit.complexity == 2
    # canonical witness for this prefix: y - x^2
    assert wit.poly == BivariatePoly(f2, {(0, 1): 1, (2, 0): 1})
    assert_witness_valid(seq, wit)


def test_first_witness_is_x_for_n1(f2):
    # mod x, any nonzero sequence is annihilated by h = x
    wit = expansion_complexity(Sequence(f2, [1, 0]), 1)
    assert wit.complexity == 1
    assert wit.poly == BivariatePoly(f2, {(1, 0): 1})


def test_profile_examples(f2):
    assert expansion_profile(Sequence(f2, [1] * 5), 5).values == (1, 1, 2, 2, 2)
    assert expansion_profile(Sequence(f2, [0] * 4), 4).values == (0, 0, 0, 0)
    # zero-to-nonzero boundary: 0 -> 2 jump is legitimate
    assert expansion_profile(Sequence(f2, [0, 0, 1]), 3).values == (0, 0, 2)


def test_witness_normalization_leading_coeff_is_one(f7):
    rng = random.Random(13)
    for _ in range(20):
        terms = [rng.randrange(7) for _ in range(8)]
        if not any(terms):
            continue
        wit = expansion_complexity(Sequence(f7, terms), 8)
        first = min(wit.poly.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1], kv[0][0]))
        assert first[1] == 1


def test_diagnostics_fields(f2):
    wit = expansion_complexity(Sequence(f2, [0, 0, 1]), 3)
    assert wit.monomial_count == monomial_count(wit.complexity) == 6
    assert wit.matrix_rank == 3


def reduced_columns(reducer, n):
    """(birth row, {column index: coefficient}) for every column of degree
    up to the kernel bound, whichever row representation produced them."""
    out = []
    width = monomial_count(kernel_degree_bound(n))
    for birth, comb in itertools.islice(reducer, width):
        if isinstance(comb, int):
            comb = {t: 1 for t in range(comb.bit_length()) if (comb >> t) & 1}
        out.append((birth, {t: c for t, c in comb.items() if c}))
    return out


def assert_representations_agree(f2, bits):
    n = len(bits)
    packed = sum(b << i for i, b in enumerate(bits))
    assert reduced_columns(_reduce_gf2(packed, n), n) == reduced_columns(
        _reduce_generic(f2, list(bits), n), n
    )


def test_gf2_and_generic_paths_agree(f2):
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            if not any(bits):
                continue
            assert_representations_agree(f2, bits)


def test_gf2_and_generic_paths_agree_random_n16(f2):
    rng = random.Random(99)
    for _ in range(40):
        bits = [rng.randrange(2) for _ in range(16)]
        if not any(bits):
            continue
        assert_representations_agree(f2, bits)


def test_one_pass_reproduces_per_n_search_fixture():
    # (E_m, witness, rank, monomial count) at every m, recorded from an
    # engine that ran a separate kernel search for each m
    for case in json.loads(PROFILES.read_text()):
        field = Field(case["p"], case["m"])
        seq = Sequence(field, case["terms"])
        n = len(case["terms"])
        profile = expansion_profile(seq, n)
        for m, expected in enumerate(case["profile"], start=1):
            for wit in (profile.witness(m), expansion_complexity(seq, m)):
                poly = witness_triples(wit.poly) if wit.poly else None
                got = [wit.complexity, poly, wit.matrix_rank, wit.monomial_count]
                assert got == expected
            assert expansion_value(field, case["terms"], m) == expected[0]


def test_shifted_reduction_matches_unshifted_oracle():
    # every column's birth row up to the kernel bound, and E_m, the witness
    # and the rank at every m, against columns reduced from scratch
    rng = random.Random(2024)
    cases = [(Field(2), n) for n in (64, 128, 256) for _ in range(3)]
    for p, m in ((3, 1), (2, 2), (101, 1)):
        cases += [(Field(p, m), 40)] * 3
    for field, n in cases:
        zeros = rng.randrange(4)  # some prefixes start with zeros
        terms = [0] * zeros + [rng.randrange(field.q) for _ in range(n - zeros)]
        births, per_m = unshifted_expansion(field, terms, n)
        if field.q == 2:
            packed = sum(1 << i for i, s in enumerate(terms) if s)
            reducer = _reduce_gf2(packed, n)
        else:
            reducer = _reduce_generic(field, terms, n)
        assert [birth for birth, _ in reducer] == births
        profile = expansion_profile(Sequence(field, terms), n)
        for m, (e, poly, rank, count) in enumerate(per_m, start=1):
            wit = profile.witness(m)
            got = (wit.complexity, wit.poly.terms if wit.poly else None,
                   wit.matrix_rank, wit.monomial_count)
            assert got == (e, poly, rank, count), (field, terms, m)


def test_profile_witness_bounds(f2):
    profile = expansion_profile(Sequence(f2, [0, 1, 1]), 3)
    assert profile.witness(1).poly is None
    for m in (0, 4):
        with pytest.raises(ValueError):
            profile.witness(m)


def test_kernel_matches_bruteforce_exhaustive(f2):
    for n in range(1, 6):
        for bits in itertools.product((0, 1), repeat=n):
            seq = Sequence(f2, list(bits))
            wit = expansion_complexity(seq, n)
            oracle = brute_force_expansion(seq, n, 3)
            assert oracle is not None
            assert wit.complexity == oracle.complexity
            assert_witness_valid(seq, wit)
            assert_witness_valid(seq, oracle)


def test_kernel_matches_bruteforce_ternary(f3):
    for n in range(1, 5):
        for digits in itertools.product((0, 1, 2), repeat=n):
            seq = Sequence(f3, list(digits))
            wit = expansion_complexity(seq, n)
            oracle = brute_force_expansion(seq, n, 2)
            if oracle is None:
                assert wit.complexity > 2
                continue
            assert wit.complexity == oracle.complexity
            assert_witness_valid(seq, wit)


def test_extension_field_witness(f4):
    seq = Sequence(f4, [1, 2, 3, 1, 2, 3])
    wit = expansion_complexity(seq, 6)
    assert wit.complexity == 2
    assert_witness_valid(seq, wit)
    oracle = brute_force_expansion(seq, 6, 2)
    assert oracle is not None and oracle.complexity == wit.complexity


def test_bruteforce_examples(f2):
    seq = Sequence(f2, [1, 0, 0, 0])
    wit = brute_force_expansion(seq, 4, 1)
    assert wit.complexity == 1
    assert wit.poly == BivariatePoly(f2, {(0, 0): 1, (0, 1): 1})  # y - 1

    seq = Sequence(f2, [0, 1, 0, 0])
    wit = brute_force_expansion(seq, 4, 1)
    assert wit.complexity == 1
    assert wit.poly == BivariatePoly(f2, {(1, 0): 1, (0, 1): 1})  # y - x

    assert brute_force_expansion(Sequence(f2, [0, 0]), 2, 1).complexity == 0


def test_bruteforce_none_when_degree_capped(f2):
    # E_3([0,0,1]) = 2, so no witness of degree <= 1 exists
    assert brute_force_expansion(Sequence(f2, [0, 0, 1]), 3, 1) is None


def test_bruteforce_cap(f2):
    with pytest.raises(ValueError):
        brute_force_expansion(Sequence(f2, [1] * 8), 8, 5)
    assert 2 ** monomial_count(4) <= BRUTE_FORCE_CAP


def test_kernel_degree_bound_values():
    assert [kernel_degree_bound(n) for n in (1, 2, 3, 4, 6, 16, 64)] == [
        1, 1, 2, 2, 3, 5, 10,
    ]


def test_expansion_below_kernel_bound_exhaustive(f2, f3):
    for field, n_max in ((f2, 8), (f3, 5)):
        for digits in itertools.product(range(field.q), repeat=n_max):
            e = expansion_value(field, list(digits), n_max)
            assert e <= kernel_degree_bound(n_max)


def test_profile_growth_adjusted_law(f2):
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(2, 11)
        terms = [rng.randrange(2) for _ in range(n)]
        values = expansion_profile(Sequence(f2, terms), n).values
        for a, b in zip(values, values[1:]):
            assert a <= b <= max(a, 1) + 1


def test_e_zero_iff_zero_prefix_exhaustive(f2):
    for n in range(1, 5):
        for bits in itertools.product((0, 1), repeat=n):
            wit = expansion_complexity(Sequence(f2, list(bits)), n)
            assert (wit.complexity == 0) == (not any(bits))
            assert (wit.poly is None) == (wit.complexity == 0)


def test_invalid_n(f2):
    seq = Sequence(f2, [1, 0])
    with pytest.raises(ValueError):
        expansion_complexity(seq, 0)
    with pytest.raises(ValueError):
        expansion_complexity(seq, 3)
