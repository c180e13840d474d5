import random
from itertools import product
from pathlib import Path

import pytest

from oracles import (
    PolyBasisField,
    default_modulus_unfiltered,
    is_irreducible_lists,
    log_tables_coset_walk,
    log_tables_poly_basis,
    zech_table_loop,
)
from seqcx.field import PRIME_POWER_CAP, TABLE_CAP, Field, is_prime

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


def all_small_fields():
    return [Field(p, m) for p, m in SMALL_FIELDS]


def test_make_field_prime():
    f = Field(7, 1)
    assert (f.p, f.m, f.q) == (7, 1, 7)
    assert f.modulus == ()


def test_make_field_f4_modulus():
    f = Field(2, 2, [1, 1, 1])
    assert f.q == 4
    # and the default picks the same polynomial
    assert Field(2, 2).modulus == (1, 1, 1)


def test_make_field_rejects_reducible():
    with pytest.raises(ValueError):
        Field(2, 2, [0, 0, 1])  # x^2 = x * x


def test_make_field_rejects_nonprime():
    with pytest.raises(ValueError):
        Field(4, 1)


def test_make_field_rejects_cap():
    with pytest.raises(ValueError):
        Field(2, 21)
    assert 2**20 == PRIME_POWER_CAP
    # rejected before trial division (2^61 - 1 is prime) or computing p^m
    for p, m in ((2**61 - 1, 1), (2, 10**12), (PRIME_POWER_CAP + 1, 1)):
        with pytest.raises(ValueError, match="exceeds cap"):
            Field(p, m)


def test_make_field_rejects_wrong_degree_modulus():
    with pytest.raises(ValueError):
        Field(2, 2, [1, 1])
    with pytest.raises(ValueError):
        Field(2, 2, [1, 1, 1, 1])


def test_default_modulus_is_lex_smallest():
    # degree-3 over F_2, ordered by (c_0, c_1, c_2): every tuple below
    # (1,0,1) is reducible, and 1 + x^2 + x^3 has no roots
    assert Field(2, 3).modulus == (1, 0, 1, 1)
    # degree-2 over F_3: x^2 + 1 has no roots
    assert Field(3, 2).modulus == (1, 0, 1)


def test_arith_examples(f2, f7, f4):
    assert f2.add(1, 1) == 0
    assert f7.inv(3) == 5
    # x * (1+x) = x^2 + x = 1 modulo 1+x+x^2
    assert f4.mul(2, 3) == 1


def test_frobenius_examples(f7, f4):
    assert f7.frobenius(3, 1) == 3
    assert f4.frobenius(2, 1) == 3  # x^2 = 1+x
    for field in (f7, f4):
        assert field.frobenius(0, 5) == 0


def test_frobenius_rejects_negative(f7):
    with pytest.raises(ValueError):
        f7.frobenius(3, -1)


@pytest.mark.parametrize("field", all_small_fields(), ids=lambda f: f"q{f.q}")
def test_field_axioms_exhaustive(field):
    elems = list(range(field.q))
    for a in elems:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in elems:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


@pytest.mark.parametrize("field", all_small_fields(), ids=lambda f: f"q{f.q}")
def test_inverses_exhaustive(field):
    for a in range(1, field.q):
        assert field.mul(a, field.inv(a)) == 1
        assert field.div(a, a) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    with pytest.raises(ZeroDivisionError):
        field.div(1, 0)


@pytest.mark.parametrize("field", all_small_fields(), ids=lambda f: f"q{f.q}")
def test_frobenius_is_field_homomorphism(field):
    for k in (1, 2):
        for a in range(field.q):
            for b in range(field.q):
                assert field.frobenius(field.add(a, b), k) == field.add(
                    field.frobenius(a, k), field.frobenius(b, k)
                )
                assert field.frobenius(field.mul(a, b), k) == field.mul(
                    field.frobenius(a, k), field.frobenius(b, k)
                )


def test_frobenius_fixes_prime_fields():
    for p in (2, 3, 5, 7, 11):
        field = Field(p)
        for k in range(4):
            for a in range(field.q):
                assert field.frobenius(a, k) == a


def test_pow_matches_repeated_mul(f9):
    for a in range(f9.q):
        acc = 1
        for e in range(6):
            assert f9.pow(a, e) == acc
            acc = f9.mul(acc, a)


def test_coeff_roundtrip(f9):
    for a in range(f9.q):
        assert f9.from_coeffs(f9.to_coeffs(a)) == a


def test_is_prime():
    # every n up to 2^16 against the sieve of Eratosthenes (0 and 1 included),
    # a negative n, and the edge of PRIME_POWER_CAP = 2^20, whose largest
    # prime below is 2^20 - 3
    limit = 1 << 16
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    assert [n for n in range(limit + 1) if is_prime(n)] == [
        n for n in range(limit + 1) if sieve[n]
    ]
    assert not is_prime(-7)
    assert is_prime(1048573)
    assert not is_prime(1048575) and not is_prime(PRIME_POWER_CAP)


# -- table-driven arithmetic against the polynomial-basis oracle -------------

TABLE_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


def _check_against_oracle(field, pairs, rng, powers_every=1):
    """Every operation on every pair; pow and frobenius on every
    `powers_every`-th pair, since the oracle's square-and-multiply is slow.
    inv and div are checked through the oracle's product, which pins them."""
    ref = PolyBasisField(field)
    for idx, (a, b) in enumerate(pairs):
        assert field.add(a, b) == ref.add(a, b), (a, b)
        assert field.sub(a, b) == ref.sub(a, b), (a, b)
        assert field.mul(a, b) == ref.mul(a, b), (a, b)
        assert field.neg(a) == ref.neg(a), a
        if b:
            assert ref.mul(field.inv(b), b) == 1, b
            assert ref.mul(field.div(a, b), b) == a, (a, b)
        if idx % powers_every == 0:
            e = rng.randrange(-field.q, 2 * field.q)
            if a or e >= 0:
                assert field.pow(a, e) == ref.pow(a, e), (a, e)
            k = rng.randrange(2 * field.m + 1)
            assert field.frobenius(a, k) == ref.frobenius(a, k), (a, k)


def test_oracle_inverse_matches_table_inverse(f9):
    ref = PolyBasisField(f9)
    for a in range(1, f9.q):
        assert ref.inv(a) == f9.inv(a)


@pytest.mark.parametrize("p,m", TABLE_FIELDS, ids=lambda v: str(v))
def test_tables_match_polynomial_basis_every_pair(p, m):
    field = Field(p, m)
    pairs = [(a, b) for a in range(field.q) for b in range(field.q)]
    _check_against_oracle(field, pairs, random.Random(f"pairs:{p}^{m}"))


@pytest.mark.parametrize(
    "p,m,count",
    [
        pytest.param(p, m, count, id=f"{p}-{m}")
        for p, m, count in [
            (2, 16, 20000),
            (3, 10, 20000),
            # the largest digit sums of the odd-p walk; odd m splits the
            # digits unevenly
            (1021, 2, 2000),
            (101, 3, 2000),
            (3, 12, 2000),
            (7, 7, 2000),
        ]
    ],
)
def test_tables_match_polynomial_basis_random_pairs(p, m, count):
    field = Field(p, m)
    rng = random.Random(f"random-pairs:{p}^{m}")
    pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(count)]
    pairs += [(0, 0), (0, 1), (1, 0), (field.q - 1, field.q - 1)]
    _check_against_oracle(field, pairs, rng, powers_every=20)


def test_tables_with_nonprimitive_given_modulus():
    # x has order 5 modulo 1 + x + x^2 + x^3 + x^4, so the tables are
    # walked over a generator other than x
    field = Field(2, 4, [1, 1, 1, 1, 1])
    assert field.pow(2, 5) == 1
    pairs = [(a, b) for a in range(field.q) for b in range(field.q)]
    _check_against_oracle(field, pairs, random.Random("all-ones modulus"))


@pytest.mark.parametrize(
    "p,m",
    [(2, m) for m in range(2, 21)]
    + [(3, m) for m in range(2, 6)]
    + [(5, 2), (5, 3), (7, 2)],
    ids=lambda v: str(v),
)
def test_default_modulus_matches_unfiltered_search(p, m):
    assert Field(p, m).modulus == default_modulus_unfiltered(p, m)


# -- binary tables against the coset walk of x ------------------------------


def _assert_tables_match_coset_walk(field):
    exp, log = log_tables_coset_walk(field.modulus)
    assert field._exp.tolist() == exp
    assert field._log.tolist() == log


@pytest.mark.parametrize("m", range(2, 21))
def test_binary_tables_match_coset_walk_default_modulus(m):
    _assert_tables_match_coset_walk(Field(2, m))


def test_binary_tables_match_coset_walk_every_small_modulus():
    # every monic polynomial of degree 2..8 over F_2: the irreducible ones
    # (69 of them, x primitive or not) give the oracle's tables, the others
    # are rejected
    irreducible = 0
    for m in range(2, 9):
        for tail in product(range(2), repeat=m):
            modulus = tail + (1,)
            if is_irreducible_lists(modulus, 2, m):
                irreducible += 1
                _assert_tables_match_coset_walk(Field(2, m, modulus))
            else:
                with pytest.raises(ValueError, match="reducible"):
                    Field(2, m, modulus)
    assert irreducible == 69


@pytest.mark.parametrize("m", [14, 16])
def test_subfield_tables_match_coset_walk_other_moduli(m):
    # F_{2^14} and F_{2^16} build their tables from the subfield of half
    # the degree; besides the default modulus (where x is not primitive),
    # check moduli where x is primitive and where it is not
    rng = random.Random(f"subfield moduli:{m}")
    default = Field(2, m).modulus
    kinds = set()
    while len(kinds) < 2:
        modulus = (1,) + tuple(rng.randrange(2) for _ in range(m - 1)) + (1,)
        if modulus == default or not is_irreducible_lists(modulus, 2, m):
            continue
        field = Field(2, m, modulus)
        kind = field._exp[1] == 2  # x primitive
        if kind not in kinds:
            kinds.add(kind)
            _assert_tables_match_coset_walk(field)


@pytest.mark.parametrize("m, count", [(9, 56), (10, 99)])
def test_binary_moduli_accepted_number_of_irreducibles(m, count):
    # the number of monic irreducibles of degree m over F_2 is
    # (1/m) sum over d | m of mu(d) 2^(m/d): 56 for m = 9, 99 for m = 10
    accepted = 0
    for tail in product(range(2), repeat=m):
        try:
            Field(2, m, tail + (1,))
        except ValueError as exc:
            assert "reducible" in str(exc)
        else:
            accepted += 1
    assert accepted == count


# -- odd-p tables against the powers of g in the polynomial basis -----------


@pytest.mark.parametrize(
    "p, degrees, irreducible",
    [(3, (2, 3, 4), 29), (5, (2, 3), 50), (7, (2,), 21)],
    ids=["F_3", "F_5", "F_7"],
)
def test_odd_tables_match_poly_basis_every_small_modulus(p, degrees, irreducible):
    # every irreducible monic modulus of these degrees, x primitive or not
    count = 0
    for m in degrees:
        for tail in product(range(p), repeat=m):
            modulus = tail + (1,)
            if is_irreducible_lists(modulus, p, m):
                count += 1
                field = Field(p, m, modulus)
                exp, log = log_tables_poly_basis(field)
                assert field._exp.tolist() == exp, modulus
                assert field._log.tolist() == log, modulus
    assert count == irreducible


# -- pickling, as pool workers receive a field ------------------------------


@pytest.mark.parametrize(
    "p, m, modulus",
    [(3, 2, None), (101, 2, None), (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))],
    ids=["F_9", "F_101^2", "F_2^8-aes-modulus"],
)
def test_pickle_round_trip_keeps_modulus_tables_and_ops(p, m, modulus):
    import pickle

    field = Field(p, m, modulus)
    if modulus is not None:
        assert field.modulus == modulus != Field(p, m).modulus
    back = pickle.loads(pickle.dumps(field))
    assert back is not field and back == field
    assert (back.p, back.m, back.q, back.modulus) == (p, m, p**m, field.modulus)
    for name in ("_exp", "_log", "_zech"):
        assert getattr(back, name) == getattr(field, name), name
    rng = random.Random(f"pickle:{p}^{m}")
    pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(3000)]
    pairs += [(0, 0), (0, 1), (1, 0), (field.q - 1, field.q - 1)]
    for a, b in pairs:
        for op in ("add", "sub", "mul"):
            assert getattr(back, op)(a, b) == getattr(field, op)(a, b), (op, a, b)
        assert back.neg(a) == field.neg(a)
        assert back.pow(a, b) == field.pow(a, b)
        assert back.frobenius(a, b % m + 1) == field.frobenius(a, b % m + 1)
        assert back.to_coeffs(a) == field.to_coeffs(a)
        if b:
            assert back.inv(b) == field.inv(b)
            assert back.div(a, b) == field.div(a, b)


# -- operation tables and bulk kernels ----------------------------------------

OP_TABLE_FIELDS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
    (101, 1), (2, 8),
]


@pytest.mark.parametrize("p, m", OP_TABLE_FIELDS, ids=lambda v: str(v))
def test_operation_tables_equal_the_methods(p, m):
    # an extension field builds its tables in __init__; a prime field has
    # none, and its integer kernels give the same tables pair by pair
    field = Field(p, m)
    elements = range(field.q)
    if m == 1:
        assert field._ops is None
        add = [[field.dot([1, 1], [a, b]) for b in elements] for a in elements]
        mul = [[field.dot([a], [b]) for b in elements] for a in elements]
    else:
        add, mul = field._ops
    assert add == [[field.add(a, b) for b in elements] for a in elements]
    assert mul == [[field.mul(a, b) for b in elements] for a in elements]


def test_table_cap_is_the_largest_tabled_q():
    # only extension fields have operation tables; prime fields compute in
    # integers at every p
    assert TABLE_CAP == 256
    assert Field(2, 8)._ops is not None
    for p, m in ((2, 9), (2, 16)):
        assert Field(p, m)._ops is None, (p, m)
    for p in filter(is_prime, range(1030)):
        assert Field(p)._ops is None, p


def _vectors(field, rng, length):
    """A random, a zero-heavy and an all-zero vector of the given length."""
    q = field.q
    return [
        [rng.randrange(q) for _ in range(length)],
        [rng.randrange(1, q) if rng.random() < 0.2 else 0 for _ in range(length)],
        [0] * length,
    ]


@pytest.mark.parametrize(
    "p, m",
    [(2, 8), (257, 1), (2, 9), (3, 2), (2, 1), (7, 1), (251, 1), (1009, 1)],
    ids=str,
)
def test_kernels_equal_a_per_element_loop(p, m):
    # every kernel path: F_256 and F_9 read tables, F_512 calls add and mul,
    # and the prime fields on both sides of TABLE_CAP compute in integers;
    # lengths 0 and 1 and vectors longer than the target too
    field = Field(p, m)
    add, mul = field.add, field.mul
    rng = random.Random(f"kernels:{p}^{m}")
    for length in (0, 1, 5, 40):
        for xs in _vectors(field, rng, length):
            for ys in _vectors(field, rng, length + rng.randrange(3)):
                want = 0
                for a, b in zip(xs, ys):
                    want = add(want, mul(a, b))
                assert field.dot(xs, ys) == want
                assert field.dot(xs, reversed(ys)) == field.dot(xs, ys[::-1])
                for start in (0, 1, length + 2):
                    a = rng.randrange(field.q)
                    out = list(ys)
                    field.axpy(out, start, a, xs)
                    want = list(ys)
                    for k, x in enumerate(xs):
                        if start + k < len(want):
                            want[start + k] = add(want[start + k], mul(a, x))
                    assert out == want, (start, a)
                # rows {index: nonzero coefficient} over the indices of ys
                row = {t: c for t, c in enumerate(xs[: len(ys)]) if c}
                want = 0
                for t, c in row.items():
                    want = add(want, mul(c, ys[t]))
                assert field.sparse_dot(row, ys) == want
                other = {t: c for t, c in enumerate(ys) if c}
                for a in (0, 1, rng.randrange(field.q)):
                    got = dict(row)
                    field.sparse_axpy(got, a, other)
                    dense = [
                        add(row.get(t, 0), mul(a, other.get(t, 0)))
                        for t in range(len(ys))
                    ]
                    assert got == {t: c for t, c in enumerate(dense) if c}, a
    # a row cancelled to nothing, term by term
    row = {0: 1, 3: field.q - 1}
    field.sparse_axpy(row, field.neg(1), dict(row))
    assert row == {}


@pytest.mark.parametrize("p, m", [(3, 2), (2, 8), (101, 1), (2, 9)], ids=str)
def test_pickle_round_trip_with_and_without_tables(p, m):
    # the pickle carries the operation tables, where the field has them
    import pickle

    field = Field(p, m)
    back = pickle.loads(pickle.dumps(field))
    assert back == field and back._ops == field._ops
    assert (back._ops is None) == (m == 1 or field.q > TABLE_CAP)
    rng = random.Random(f"pickle-kernels:{p}^{m}")
    xs = [rng.randrange(field.q) for _ in range(40)]
    ys = [rng.randrange(field.q) for _ in range(40)]
    a = ys[1] or 1
    other = {t: c for t, c in enumerate(ys) if c}
    results = []
    for f in (back, field):
        out = list(ys)
        f.axpy(out, 3, a, xs)
        row = {t: c for t, c in enumerate(xs) if c}
        f.sparse_axpy(row, a, other)
        results.append((f.dot(xs, ys[::-1]), out, f.sparse_dot(row, ys), row))
    assert results[0] == results[1]


@pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (5, 2), (101, 2)], ids=str)
def test_zech_table_equals_the_loop(p, m):
    field = Field(p, m)
    assert field._zech.tolist() == zech_table_loop(p, field.q, field._exp, field._log)


KERNELS = {"dot", "axpy", "sparse_dot", "sparse_axpy", "_ops"}


def test_oracles_do_per_element_arithmetic():
    # the oracles check the engines that use the kernels, so none may use
    # them itself
    import ast

    import oracles

    tree = ast.parse(Path(oracles.__file__).read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not (used | names) & KERNELS
