import itertools
import json
import random
from pathlib import Path

import pytest

from seqcx import expcomp
from seqcx.expcomp import (
    _kernel_pass,
    _profile,
    _sigma_pass,
    _witness_from_combo,
    expansion_complexity,
    expansion_profile,
    expansion_value,
    kernel_degree_bound,
    lane_profiles,
    monomial_count,
)
from seqcx.experiments import LANE_LENGTH_BOUND
from seqcx.field import Field
from seqcx.lincomp import Sequence
from seqcx.seqfile import witness_triples
from seqcx.series import BivariatePoly, substitute

from oracles import (
    BRUTE_FORCE_CAP,
    _OnlineKernel,
    _reduce_generic,
    brute_force_expansion,
    raised_key_start,
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


def nonzero_terms(comb):
    """{key: coefficient} of the nonzero terms of a combination, whichever
    row representation produced it."""
    if isinstance(comb, int):
        return {t: 1 for t in range(comb.bit_length()) if (comb >> t) & 1}
    return {t: c for t, c in comb.items() if c}


def assert_representations_agree(f2, bits):
    # the same _kernel_pass over F_2, once on each reducer
    n = len(bits)
    packed_births, packed_combs = _kernel_pass(f2, bits, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            expcomp, "_reduce_gf2",
            lambda _bits, _n: _reduce_generic(f2, list(bits), n),
        )
        births, combs = _kernel_pass(f2, bits, n)
    assert births == packed_births
    assert len(combs) == len(packed_combs) == births.index(n) + 1
    assert list(map(nonzero_terms, combs)) == list(map(nonzero_terms, packed_combs))


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
        got, _ = _kernel_pass(field, terms, n)
        assert list(got) == births[: len(got)]
        # the pass ends on the end of the block holding the first column
        # born at row n
        last = kernel_degree_bound(len(got) - 1)
        assert len(got) == monomial_count(last)
        assert kernel_degree_bound(got.index(n)) == last
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
    # every entry checks 0 <= n <= len(terms) the same way
    for n in (-1, 3):
        with pytest.raises(ValueError):
            expansion_complexity(seq, n)
        with pytest.raises(ValueError):
            expansion_value(f2, seq.terms, n)
        with pytest.raises(ValueError):
            expansion_profile(seq, n)
    assert expansion_value(f2, seq.terms, 0) == 0
    assert expansion_profile(seq, 0).values == ()


@pytest.mark.parametrize("p, m", [(3, 2), (101, 1)])
def test_profile_keeps_no_combination_past_first_dependency(p, m):
    # combinations after the first column born at row n are not kept
    # current, so the profile must not hold them
    field = Field(p, m)
    rng = random.Random(7)
    for n in (4, 9, 24, 32):
        terms = [1] + [rng.randrange(field.q) for _ in range(n - 1)]
        profile = expansion_profile(Sequence(field, terms), n)
        assert len(profile.combs) == profile.births.index(n) + 1


@pytest.mark.parametrize(
    "field,terms",
    [
        (Field(2), [2, 0, 1, 1]),
        (Field(2), [1, 0, 1, -1]),
        (Field(3), [1, 5, 0, 2]),
        (Field(2, 2), [0, 3, 4, 1]),
    ],
    ids=["q2-two", "q2-negative", "q3-five", "q4-four"],
)
def test_expansion_value_rejects_out_of_range_terms(field, terms):
    # the bit-packed F_2 kernel reads any nonzero as 1, so the check must
    # come before it
    with pytest.raises(ValueError, match="not an element index"):
        expansion_value(field, terms, 4)
    # terms past n are not read
    assert expansion_value(field, [1] * 4 + [field.q], 4) == expansion_value(
        field, [1] * 4, 4
    )


# -- the online kernel of the exhaustive sweep --------------------------------


@pytest.mark.parametrize(
    "p, m, modulus, n",
    [(2, 1, None, 10), (3, 1, None, 6), (2, 2, (1, 1, 1), 4), (3, 2, None, 4),
     (5, 1, None, 4), (2, 1, None, 12)],
)
def test_online_kernel_equals_column_pass_at_every_node(p, m, modulus, n, monkeypatch):
    # a depth-first walk pushes and pops one term per node; at every node
    # of depth k the kernel gives E_k and its witness as the row echelon
    # and the column pass over that prefix do
    monkeypatch.setattr(expcomp, "_sigma_pass", _reduce_generic)
    field = Field(p, m, modulus)
    kernel = expcomp.online_kernel(field, n)
    oracle = _OnlineKernel(field, n)
    nodes = 0

    def visit(depth):
        nonlocal nodes
        for s in range(field.q):
            e = kernel.push(s)
            assert oracle.push(s) == e
            nodes += 1
            want = expansion_profile(Sequence(field, kernel.terms), depth + 1)
            assert kernel.values == oracle.values == list(want.values)
            poly = kernel.witness_poly()
            assert poly == oracle.witness_poly(), kernel.terms
            assert poly == want.witness(depth + 1).poly, kernel.terms
            if depth + 1 < n:
                visit(depth + 1)
            kernel.pop()
            oracle.pop()
            assert len(kernel.terms) == len(kernel.values) == depth

    visit(0)
    assert nodes == sum(field.q**k for k in range(1, n + 1))


@pytest.mark.parametrize("p, m, n", [(3, 1, 5), (2, 2, 4), (5, 1, 4), (2, 1, 9)])
def test_sigma_basis_pop_restores_rows_keys_and_best(p, m, n):
    # pop undoes one push exactly: the rows, their keys, the least row and
    # the residual carried to the next push; over F_2 also the packed
    # window, reversed prefix and powers (the dict rows' powers are
    # rewritten before they are read, so pop may leave them)
    field = Field(p, m)
    kernel = expcomp.online_kernel(field, n)
    packed = field.q == 2
    assert type(kernel) is (expcomp._SigmaBasisGF2 if packed else expcomp._SigmaBasis)

    def state():
        if packed:
            window, rev, powers = kernel.series
            rows, series = list(kernel.rows), (window, rev, list(powers))
        else:
            rows, series = [dict(row) for row in kernel.rows], None
        return rows, list(kernel.keys), kernel.best, kernel._carry, series

    def visit(depth):
        before = state()
        for s in range(field.q):
            kernel.push(s)
            if depth + 1 < n:
                visit(depth + 1)
            kernel.pop()
            assert state() == before, (kernel.terms, s)

    visit(0)


def test_online_kernel_guards_its_invariants():
    expcomp._growth_guard([], 1, 1)
    expcomp._growth_guard([0, 0], 3, 2)  # leaving the zero prefix
    with pytest.raises(RuntimeError, match="growth violated at n=5: 1 -> 3"):
        expcomp._growth_guard([1, 1, 1, 1, 1], 6, 3)
    with pytest.raises(RuntimeError, match="growth violated at n=3: 2 -> 1"):
        expcomp._growth_guard([1, 1, 2], 4, 1)
    with pytest.raises(RuntimeError, match="overran its counting bound"):
        expcomp._growth_guard([1, 2], 3, 3)


# -- the elimination orders past n = 64 ----------------------------------------


def assert_online_equals_column_pass(kernel, field, terms):
    # the online engine pushes one term at a time; the column pass oracle
    # reduces whole columns over all n terms at once
    n = len(terms)
    with pytest.MonkeyPatch.context() as patch:
        if field.q != 2:
            patch.setattr(expcomp, "_sigma_pass", _reduce_generic)
        profile = expansion_profile(Sequence(field, terms), n)
    for m, s in enumerate(terms, start=1):
        kernel.push(s)
        if m in (n // 4, n // 2, n):
            assert kernel.witness_poly() == profile.witness(m).poly, m
    assert kernel.values == list(profile.values)


@pytest.mark.parametrize("p, m, n", [(101, 1, 128), (3, 2, 128), (5, 1, 160)])
def test_online_kernel_equals_column_pass_on_long_prefixes(p, m, n):
    field = Field(p, m)
    rng = random.Random(field.q * n)
    terms = [rng.randrange(field.q) for _ in range(n)]
    kernel = expcomp.online_kernel(field, n)
    assert type(kernel) is expcomp._SigmaBasis
    assert_online_equals_column_pass(kernel, field, terms)


def test_generic_online_kernel_equals_packed_column_pass_over_f2(f2):
    # expansion_profile runs _reduce_gf2 over F_2; no online engine shares
    # its packing or its elimination order
    rng = random.Random(256)
    terms = [rng.randrange(2) for _ in range(256)]
    for engine in (_OnlineKernel, expcomp._SigmaBasis, expcomp._SigmaBasisGF2):
        assert_online_equals_column_pass(engine(f2, 256), f2, terms)


def test_packed_online_kernel_walks_2048_terms(f2):
    # D = 63: a table of 2^span entries per power could not be built here
    rng = random.Random(2048)
    terms = [rng.randrange(2) for _ in range(2048)]
    kernel = expcomp.online_kernel(f2, 2048)
    assert type(kernel) is expcomp._SigmaBasisGF2
    assert_online_equals_column_pass(kernel, f2, terms)


def test_packed_sigma_basis_changes_only_the_row_arithmetic():
    # push, pop, witness_poly and the pivot, key, carry and last-term logic
    # of _extend are _SigmaBasis's own
    packed = expcomp._SigmaBasisGF2
    assert packed.__bases__ == (expcomp._SigmaBasis,)
    own = {name for name in vars(packed) if not name.startswith("__")}
    assert own == {"_start", "_window", "_residual", "_eliminate"}


def _sigma_pass_inputs(field, rng):
    for n in (1, 2, 5, 17, 40, 90):
        yield [rng.randrange(field.q) for _ in range(n)]
        # zero-led: zeros - 1 zeros, then a nonzero term
        zeros = rng.randrange(1, n + 1)
        yield [0] * (zeros - 1) + [rng.randrange(1, field.q)] + [
            rng.randrange(field.q) for _ in range(n - zeros)
        ]
        sparse = [rng.randrange(1, field.q) if rng.random() < 0.1 else 0
                  for _ in range(n)]
        sparse[rng.randrange(n)] = 1
        yield sparse


@pytest.mark.parametrize("p, m", [(3, 1), (2, 2), (5, 1), (3, 2), (101, 1), (2, 1)])
def test_sigma_pass_equals_column_pass(p, m):
    # births of every column through the end of the decisive block, and the
    # combination of every decisive column up to scale, against the column
    # pass on random, zero-led and sparse prefixes
    field = Field(p, m)
    rng = random.Random(p * 100 + m)
    for terms in _sigma_pass_inputs(field, rng):
        if not any(terms):
            continue
        n = len(terms)
        births, combs = _sigma_pass(field, terms, n)
        want_births, want_combs = _reduce_generic(field, terms, n)
        assert births[: len(want_births)] == want_births, terms
        width = kernel_degree_bound(n) + 1
        zeros = next(i for i, s in enumerate(terms) if s)
        for m_ in range(zeros + 1, n + 1):
            k = next(k for k, birth in enumerate(births) if birth >= m_)
            got = _witness_from_combo(field, combs[k], width)
            assert got == _witness_from_combo(field, want_combs[k], width), (terms, m_)


def test_packed_sigma_pass_equals_packed_column_pass(f2):
    # the packed sigma-basis against _reduce_gf2, which single F_2 sequences
    # run: births through the end of the decisive block, and every decisive
    # combination (over F_2, scale is 1)
    rng = random.Random(2)
    for terms in _sigma_pass_inputs(f2, rng):
        if not any(terms):
            continue
        n = len(terms)
        births, combs = _sigma_pass(f2, terms, n)
        bits = sum(1 << idx for idx, s in enumerate(terms) if s)
        want_births, want_combs = expcomp._reduce_gf2(bits, n)
        assert births[: len(want_births)] == want_births, terms
        zeros = next(i for i, s in enumerate(terms) if s)
        for m in range(zeros + 1, n + 1):
            k = next(k for k, birth in enumerate(births) if birth >= m)
            assert isinstance(combs[k], int)
            assert combs[k] == want_combs[k], (terms, m)


# -- the lane-parallel sigma-basis over F_2 -------------------------------------


def lane_prefixes(rng, n, count):
    """count prefixes of n terms over F_2, cycling through five kinds: terms
    of density 0.5, 0.1 and 0.02, all zero, and zero but for a dense last
    third (a first nonzero term that comes late, where E_m jumps 0 -> 2)."""
    prefixes = []
    for lane in range(count):
        kind = lane % 5
        if kind == 3:
            prefixes.append([0] * n)
        elif kind == 4:
            late = 2 * n // 3
            prefixes.append([0] * late + [rng.randrange(2) for _ in range(n - late)])
        else:
            density = (0.5, 0.1, 0.02)[kind]
            prefixes.append([int(rng.random() < density) for _ in range(n)])
    return prefixes


def lane_columns(prefixes, n):
    """Bit l of column i is term i of prefix l."""
    return [sum(s[i] << lane for lane, s in enumerate(prefixes)) for i in range(n)]


def lane_values(columns, count):
    """E_1..E_n of every lane, read off lane_profiles' one-hot masks; a lane
    in no mask or in two gets a list of the wrong length."""
    values = [[] for _ in range(count)]
    for onehot in lane_profiles(columns, count):
        for e, mask in enumerate(onehot):
            for lane in range(count):
                if mask >> lane & 1:
                    values[lane].append(e)
    return values


@pytest.mark.parametrize("count", [1, 63, 64, 65])
def test_lane_profiles_equal_the_profile_of_every_lane(f2, count):
    rng = random.Random(f"lanes:{count}")
    jumps = 0
    for n in range(1, 41):
        prefixes = lane_prefixes(rng, n, count)
        got = lane_values(lane_columns(prefixes, n), count)
        want = [list(_profile(f2, s, n).values) for s in prefixes]
        assert got == want, n
        jumps += sum((0, 2) in zip(v, v[1:]) for v in want)
    assert jumps > 0 or count == 1


def test_lane_profiles_equal_the_profile_of_every_lane_at_the_bound(f2):
    n = LANE_LENGTH_BOUND
    prefixes = lane_prefixes(random.Random("lanes:bound"), n, 5)
    got = lane_values(lane_columns(prefixes, n), 5)
    assert got == [list(_profile(f2, s, n).values) for s in prefixes]


def test_a_lane_with_raised_keys_breaks_the_growth_law(monkeypatch):
    # lane 2 is zero for 10 terms; rows y..y^3 keep keys 3..5 (D = 5 at
    # n = 16) while x^r outgrows D, so the first 1 pivots y to key 4 and
    # E_11 = 4 > 2, inside the counting bound
    prefixes = [[1] * 16, [0, 1] * 8, [0] * 10 + [1] * 6]
    corrupted = raised_key_start(lambda columns: 1 << 2, 2, range(1, 6))
    monkeypatch.setattr(expcomp, "_lane_start", corrupted)
    profiles = lane_profiles(lane_columns(prefixes, 16), 3)
    for _ in range(10):
        next(profiles)
    with pytest.raises(RuntimeError) as info:
        next(profiles)
    assert str(info.value) == "expansion profile growth violated at n=10: 0 -> 4"


def test_a_lane_with_raised_keys_overruns_the_counting_bound(monkeypatch):
    # every row of lane 1 starts one key up, so s_0 = 1 pivots 1 to key 2
    # and E_1 = 2: the growth law allows 0 -> 2, the counting bound does not
    prefixes = [[1] * 16, [1, 0] * 8]
    monkeypatch.setattr(expcomp, "_lane_start", raised_key_start(lambda columns: 1 << 1, 1))
    with pytest.raises(RuntimeError) as info:
        next(lane_profiles(lane_columns(prefixes, 16), 2))
    assert str(info.value) == "kernel search overran its counting bound"
