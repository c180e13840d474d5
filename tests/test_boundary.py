"""The names the span tracer wraps exist in the modules it looks them in.

perfbench/spans.py looks up every name in its BOUNDARY table with getattr
on seqcx.<layer>, so a traced run fails at install time if a module loses
one.  The table is read from the file's source, not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _boundary():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "BOUNDARY"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no BOUNDARY")


def test_every_traced_name_exists():
    boundary = _boundary()
    assert "theorems" in boundary
    missing = [
        f"{layer}.{name}"
        for layer, names in boundary.items()
        for name in names
        if not hasattr(importlib.import_module(f"seqcx.{layer}"), name)
    ]
    assert missing == []
