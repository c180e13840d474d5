import random
from itertools import product

import pytest

from oracles import (
    PolyBasisField,
    default_modulus_unfiltered,
    is_irreducible_lists,
    log_tables_coset_walk,
)
from seqcx.field import PRIME_POWER_CAP, Field, is_prime

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
    elems = list(field.elements())
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
        for a in field.elements():
            for b in field.elements():
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
            for a in field.elements():
                assert field.frobenius(a, k) == a


def test_pow_matches_repeated_mul(f9):
    for a in f9.elements():
        acc = 1
        for e in range(6):
            assert f9.pow(a, e) == acc
            acc = f9.mul(acc, a)


def test_coeff_roundtrip(f9):
    for a in f9.elements():
        assert f9.from_coeffs(f9.to_coeffs(a)) == a


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(2, 32):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)


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
    pairs = [(a, b) for a in field.elements() for b in field.elements()]
    _check_against_oracle(field, pairs, random.Random(f"pairs:{p}^{m}"))


@pytest.mark.parametrize("p,m", [(2, 16), (3, 10)], ids=lambda v: str(v))
def test_tables_match_polynomial_basis_random_pairs(p, m):
    field = Field(p, m)
    rng = random.Random(f"random-pairs:{p}^{m}")
    pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(20000)]
    pairs += [(0, 0), (0, 1), (1, 0), (field.q - 1, field.q - 1)]
    _check_against_oracle(field, pairs, rng, powers_every=20)


def test_tables_with_nonprimitive_given_modulus():
    # x has order 5 modulo 1 + x + x^2 + x^3 + x^4, so the tables are
    # walked over a generator other than x
    field = Field(2, 4, [1, 1, 1, 1, 1])
    assert field.pow(2, 5) == 1
    pairs = [(a, b) for a in field.elements() for b in field.elements()]
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
