"""Span recording around seqcx's module boundaries, from outside the program.

``Tracer.install()`` replaces every function listed in ``BOUNDARY`` with a
wrapper, in every seqcx module namespace that binds it.  That covers both
``from .series import substitute`` (patched as ``experiments.substitute``
and ``theorems.substitute``) and ``expcomp.expansion_value`` style lookups.

A call opens a span only when it crosses into another layer: a call whose
caller is already inside a span of the same layer (``run_all_checks`` calling
``check_theorem4``, ``substitute`` calling ``series_mul``) just counts.  Each
span is ``[name, start_ns, end_ns, parent index, unit id]``; spans stay in
memory until ``write()``.  A span's self time is its duration minus the
duration of its direct children.

``Field`` methods are not wrapped: they are too fine-grained (millions of
calls per sweep) and are measured by the ``field.*`` micro-runs instead.
O(1) bound formulas (``kernel_degree_bound``, ``periodic_lower_bound``, ...)
and class constructors (``Field``, ``Sequence``) are not wrapped either;
their time counts as the caller's self time.  Spans opened inside pool
worker processes stay in those processes and are not collected.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Functions that another seqcx module, or the command line, calls.
BOUNDARY = {
    "cli": ("main",),
    "seqfile": ("parse_sequence", "format_sequence", "dump_json",
                "result_record", "witness_triples", "parse_field_spec"),
    "lincomp": ("berlekamp_massey", "linear_profile", "rational_form",
                "_bm_core", "_fit_from_core"),
    # every expcomp entry point runs the E_n kernel search
    "expcomp": ("expansion_complexity", "expansion_value", "expansion_profile"),
    "series": ("series_mul", "substitute", "rational_expand", "poly_gcd",
               "poly_pow"),
    "theorems": ("run_all_checks", "check_growth", "check_theorem1",
                 "check_theorem1_remark", "check_theorem4", "check_misc_upper",
                 "_report"),
    "experiments": ("enumerate_all", "count_low_expansion", "monte_carlo",
                    "tn_ambiguity_scan"),
    "binomial": ("analyze", "generate"),
}


def _report_counts(result) -> tuple[int, int]:
    """(reports, failed) in a theorems return value."""
    reports = result if isinstance(result, list) else [result]
    failed = sum(1 for rep in reports if getattr(rep, "failed", False))
    return len(reports), failed


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()  # every call of a wrapped function
        self.counts: Counter = Counter()  # theorems.reports, theorems.failed
        self.unit = -1  # index of the cli.main call being traced
        self._stack: list = []  # (span index, layer) of the open spans
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        spans, stack, calls, counts = self.spans, self._stack, self.calls, self.counts
        is_theorems = layer == "theorems"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span = [key, 0, 0, stack[-1][0] if stack else -1, self.unit]
            stack.append((len(spans), layer))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if is_theorems:
                reports, failed = _report_counts(result)
                counts["theorems.reports"] += reports
                counts["theorems.failed"] += failed
            return result

        return wrapper

    def install(self):
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "seqcx" or name.startswith("seqcx."))]
        for layer, names in BOUNDARY.items():
            home = sys.modules[f"seqcx.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def layer_times(self) -> tuple[Counter, Counter]:
        """(self seconds per layer, inclusive seconds per span name)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_s = Counter()
        inclusive = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            self_s[layer_of(name)] += (end - start - covered) / 1e9
            inclusive[name] += (end - start) / 1e9
        return self_s, inclusive

    def boundary_entries(self) -> Counter:
        """Spans per layer: calls that entered that layer from another one."""
        return Counter(layer_of(span[0]) for span in self.spans)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
