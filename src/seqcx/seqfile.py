"""Sequence file format and machine-readable result records.

A sequence file is plain text:

    # comments run to end of line
    q=3^2            header: q=<p> or q=<p>^<m>
    mod=1,2,0,1      optional; monic modulus c_0,...,c_m (required to pick a
                     non-default modulus when m > 1)
    meta=t:0,T:7     optional declared preperiod and period
    0 1 2 3 ...      body: whitespace/newline separated element indices

The canonical serialization (exactly what format_sequence emits, without
comments) is also the digest input: input_digest = "sha256:" + the hex digest
of that text encoded as UTF-8.
"""

from __future__ import annotations

import hashlib
import json

from .field import Field, check_field_size
from .lincomp import Periodicity, Sequence
from .series import BivariatePoly


class SequenceFileError(ValueError):
    """Malformed sequence file (distinct from precondition violations)."""


def parse_field_spec(token: str) -> tuple[int, int]:
    """'2' -> (2, 1); '3^2' -> (3, 2)."""
    token = token.strip()
    try:
        if "^" in token:
            p_str, m_str = token.split("^", 1)
            p, m = int(p_str), int(m_str)
        else:
            p, m = int(token), 1
    except ValueError as exc:
        raise SequenceFileError(f"bad field spec {token!r}") from exc
    return p, m


def format_field_spec(field: Field) -> str:
    return f"{field.p}" if field.m == 1 else f"{field.p}^{field.m}"


def parse_sequence(text: str) -> Sequence:
    """Parse a sequence file; raises SequenceFileError on malformed input."""
    header = None
    modulus = None
    meta = None
    body: list[int] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("q="):
            if header is not None:
                raise SequenceFileError("duplicate q= header")
            header = parse_field_spec(line[2:])
            continue
        if line.startswith("mod="):
            if modulus is not None:
                raise SequenceFileError("duplicate mod= line")
            try:
                modulus = [int(c) for c in line[4:].split(",")]
            except ValueError as exc:
                raise SequenceFileError(f"bad modulus line {line!r}") from exc
            continue
        if line.startswith("meta="):
            if meta is not None:
                raise SequenceFileError("duplicate meta= line")
            try:
                fields = dict(
                    part.split(":", 1) for part in line[5:].split(",")
                )
                meta = Periodicity(int(fields["t"]), int(fields["T"]))
            except (ValueError, KeyError) as exc:
                raise SequenceFileError(f"bad meta line {line!r}") from exc
            continue
        for tok in line.split():
            try:
                body.append(int(tok))
            except ValueError as exc:
                raise SequenceFileError(f"bad element {tok!r}") from exc
    if header is None:
        raise SequenceFileError("missing q= header")
    if not body:
        raise SequenceFileError("empty sequence body")
    p, m = header
    # a field above the cap is a precondition violation, not a malformed file
    check_field_size(p, m)
    try:
        field = Field(p, m, modulus)
        return Sequence(field, body, meta=meta)
    except ValueError as exc:
        raise SequenceFileError(str(exc)) from exc


def format_sequence(seq: Sequence, per_line: int = 20) -> str:
    """Canonical serialization; parsing it back yields an equal Sequence."""
    lines = [f"q={format_field_spec(seq.field)}"]
    if seq.field.m > 1:
        lines.append("mod=" + ",".join(str(c) for c in seq.field.modulus))
    if seq.meta is not None:
        lines.append(f"meta=t:{seq.meta.preperiod},T:{seq.meta.period}")
    terms = seq.terms
    for i in range(0, len(terms), per_line):
        lines.append(" ".join(str(c) for c in terms[i : i + per_line]))
    return "\n".join(lines) + "\n"


def input_digest(seq: Sequence) -> str:
    digest = hashlib.sha256(format_sequence(seq).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def witness_triples(poly: BivariatePoly) -> list:
    """[[i, j, coeff], ...] in canonical monomial order."""
    return [[i, j, c] for (i, j), c in poly.items_sorted()]


def field_dict(field: Field) -> dict:
    return {"p": field.p, "m": field.m, "modulus": list(field.modulus)}


def result_record(command: str, seq: Sequence, n: int, **extra) -> dict:
    """Skeleton of the machine-readable result object shared by commands."""
    record = {
        "command": command,
        "field": field_dict(seq.field),
        "input_digest": input_digest(seq),
        "n": n,
    }
    record.update(extra)
    return record


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
