import json
import random

import pytest

from seqcx.field import Field
from seqcx.lincomp import Periodicity, Sequence
from seqcx.seqfile import (
    SequenceFileError,
    dump_json,
    format_field_spec,
    format_sequence,
    input_digest,
    parse_field_spec,
    parse_sequence,
    witness_triples,
)
from seqcx.series import BivariatePoly


def test_parse_field_spec():
    assert parse_field_spec("2") == (2, 1)
    assert parse_field_spec("3^2") == (3, 2)
    with pytest.raises(SequenceFileError):
        parse_field_spec("seven")


def test_roundtrip_prime_field(f7):
    seq = Sequence(f7, [1, 3, 6, 3, 1, 0, 0], meta=Periodicity(0, 7))
    text = format_sequence(seq)
    again = parse_sequence(text)
    assert again == seq
    assert input_digest(again) == input_digest(seq)


def test_roundtrip_extension_field():
    field = Field(3, 2, [2, 1, 1])  # non-default modulus x^2 + x + 2
    seq = Sequence(field, [0, 5, 8, 3])
    text = format_sequence(seq)
    assert "q=3^2" in text and "mod=2,1,1" in text
    again = parse_sequence(text)
    assert again.field.modulus == (2, 1, 1)
    assert again == seq


def test_default_modulus_when_mod_line_absent():
    seq = parse_sequence("q=2^2\n0 1 2 3\n")
    assert seq.field.modulus == (1, 1, 1)


def test_comments_and_whitespace(f2):
    text = """
# leading comment
q=2   # trailing comment
meta=t:0,T:3
1 1 0
1 1 0   # body comment
"""
    seq = parse_sequence(text)
    assert seq.terms == (1, 1, 0, 1, 1, 0)
    assert seq.meta == Periodicity(0, 3)


def test_parse_errors():
    for text in (
        "1 0 1\n",                      # missing header
        "q=2\n",                        # empty body
        "q=2\nq=2\n1\n",                # duplicate header
        "q=2\nmeta=bogus\n1\n",         # malformed meta
        "q=2\n0 1 2\n",                 # element out of range
        "q=2\nmod=1,1,1\n0 1\n",        # modulus for a prime field
        "q=2\nx y\n",                   # non-integer body
        "q=2\nmeta=t:0,T:2\n1 0 0\n",   # meta contradicts body
        "q=2^2\nmod=0,0,1\n1 2\n",      # reducible modulus
    ):
        with pytest.raises(SequenceFileError):
            parse_sequence(text)


def test_digest_is_stated_and_stable(f2):
    seq = Sequence(f2, [1, 0, 1])
    digest = input_digest(seq)
    assert digest.startswith("sha256:") and len(digest) == 7 + 64
    assert digest == input_digest(parse_sequence(format_sequence(seq)))
    other = Sequence(f2, [1, 1, 1])
    assert input_digest(other) != digest


def test_field_spec_formatting(f2, f9):
    assert format_field_spec(f2) == "2"
    assert format_field_spec(f9) == "3^2"


def test_witness_triples_order(f5):
    h = BivariatePoly(f5, {(0, 2): 3, (1, 0): 2, (0, 0): 1})
    assert witness_triples(h) == [[0, 0, 1], [1, 0, 2], [0, 2, 3]]


def test_parser_fuzz_raises_only_file_errors(f2):
    import random

    rng = random.Random(77)
    alphabet = "q=mod,meta:T^0123456789 abc#\n"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        try:
            seq = parse_sequence(text)
        except SequenceFileError:
            continue
        assert seq.terms  # parsed successfully: must be a real sequence


def test_long_body_wraps(f2):
    seq = Sequence(f2, [1] * 45)
    text = format_sequence(seq)
    body_lines = [l for l in text.splitlines() if not l.startswith(("q=", "mod=", "meta="))]
    assert len(body_lines) == 3
    assert parse_sequence(text).terms == seq.terms


def _stdlib_dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_STRINGS = ["", "plain", 'quote " and \\ backslash', "\x00\x1f\n\t\x7f",
            "caf\u00e9 \u20ac \U0001f600", "\ud800 lone surrogate", "10", "2"]
_SCALARS = [None, True, False, 0, 1, -7, 2**70, -(3**50), 0.0, -0.0, 0.1,
            -2.5e-8, 1e300, float("nan"), float("inf"), float("-inf")]


def _random_json(rng, depth=0):
    roll = rng.randrange(10 if depth < 4 else 5)
    if roll < 2:
        return rng.choice(_STRINGS)
    if roll < 4:
        return rng.choice(_SCALARS)
    if roll == 4:
        return rng.randrange(-50, 1000)
    if roll == 5:
        return [rng.randrange(-9, 99) for _ in range(rng.randrange(5))]
    if roll in (6, 7):
        items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(5))]
        return tuple(items) if rng.random() < 0.3 else items
    # keys of one kind per dict: sort_keys cannot order mixed kinds
    keys = rng.choice([
        _STRINGS,
        [2, 10, -1, 0, 2**65],
        [0.5, -2.0, 1e300, float("inf"), float("-inf")],
        [True, False],
        [None],
    ])
    return {rng.choice(keys): _random_json(rng, depth + 1)
            for _ in range(rng.randrange(5))}


def test_dump_json_matches_stdlib_on_random_records():
    rng = random.Random(2)
    for _ in range(2000):
        obj = _random_json(rng)
        assert dump_json(obj) == _stdlib_dump(obj), obj
    # int keys 2 and 10 sort as numbers, not as their strings
    obj = {10: [], 2: {}, 3: {10: "a", 2: ("b", 1.5)}}
    assert dump_json({"k": obj}) == _stdlib_dump({"k": obj})
    assert dump_json(["\u00e9"]) == '[\n  "\\u00e9"\n]\n'


def test_dump_json_rejects_what_stdlib_rejects():
    for obj in ({1, 2}, {"k": object()}, [b"bytes"], {(1, 2): 0}, {1: 0, "a": 1}):
        with pytest.raises(TypeError) as ours:
            dump_json(obj)
        with pytest.raises(TypeError) as stdlib:
            _stdlib_dump(obj)
        assert str(ours.value) == str(stdlib.value)
