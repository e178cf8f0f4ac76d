"""Spans around the calls into each layer, recorded from outside the package.

The traced run replaces the names that `cli` and `checkers` import from the
other modules with wrappers that record a span per call. Nothing under
`src/` changes; `untrace()` puts the original functions back. Spans carry
their parent's id and stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable

# (span name, module of the package, the names wrapped in that module)
LAYERS = (
    ("cli.load", "cli", ("load_system_file",)),
    ("checkers", "cli", (
        "check_consistency_classical", "check_availability", "check_consistency_dissemination",
        "check_consistency_masking", "check_q3", "check_q4",
    )),
    ("oracle", "cli", (
        "oracle_consistency_classical", "oracle_availability", "oracle_consistency_dissemination",
        "oracle_consistency_masking", "oracle_q3", "oracle_q4",
    )),
    ("algebra.parse_polynomial", "cli", ("parse_polynomial",)),
    ("algebra.format_polynomial", "cli", ("format_polynomial",)),
    ("groebner.buchberger", "cli", ("buchberger",)),
    ("groebner.buchberger", "checkers", ("buchberger",)),
    ("encoding.system_char_poly", "checkers", ("system_char_poly",)),
    ("encoding.cover_poly", "checkers", ("cover_poly",)),
    ("encoding.relation_poly", "checkers", ("overlap_poly", "uncovered_meet_poly", "downset_poly")),
    ("oracle.fstar", "checkers", ("fstar_enumerate",)),
)


UNITS = {
    "encoding.cover_poly_s": "s",
    "encoding.cover_poly_terms": "count",
    "encoding.system_char_poly_s": "s",
    "encoding.relation_poly_s": "s",
    "groebner.gen_terms_in": "count",
    "groebner.buchberger_s": "s",
    "groebner.buchberger_calls": "count",
    "groebner.sm_count_for_s": "s",
    "groebner.basis_len": "count",
    "groebner.basis_terms": "count",
    "groebner.sm_count": "count",
    "oracle.s": "s",
    "oracle.fstar_s": "s",
    "oracle.calls": "count",
    "cli.load_s": "s",
    "cli.self_s": "s",
    "checkers.self_s": "s",
    "algebra.parse_polynomial_s": "s",
    "algebra.format_polynomial_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _terms(args, result) -> dict:
    return {"terms": len(result)}


class Tracer:
    """Records spans as [id, parent, name, start, end, decision, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.certificates: list[tuple[str, object]] = []
        self.decision = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counts: Callable | None = None) -> Callable:
        """fn, recording one span named name per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(), 0.0, self.decision, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if counts is not None:
                rec[6] = counts(args, result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, name: str, counts: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counts))

    def trace(self, qa_modules: dict) -> None:
        """Wrap every layer boundary of the imported package."""
        for name, module, attrs in LAYERS:
            for attr in attrs:
                counts = None
                if name == "encoding.cover_poly":
                    counts = _terms
                elif name == "groebner.buchberger":
                    counts = self._buchberger_counts
                self._patch(qa_modules[module], attr, name, counts)
        cert_class = qa_modules["groebner"].GroebnerCertificate
        self._patch(cert_class, "sm_count_for", "groebner.sm_count_for")

    def untrace(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _buchberger_counts(self, args, cert) -> dict:
        self.certificates.append((self.decision, cert))
        return {
            "gen_terms": sum(len(g) for g in args[0].generators),
            "basis_len": len(cert.basis),
            "basis_terms": sum(len(g) for g in cert.basis),
            "sm_count": cert.sm_count,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, decision, counts in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
                    "decision": decision, "counts": counts,
                }) + "\n")


def layer_metrics(spans: list[list], start: int = 0) -> dict[str, float]:
    """Per-layer totals over spans[start:], which must be whole trees."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_seconds: dict[int, float] = defaultdict(float)
    totals: dict[str, int] = defaultdict(int)
    for sid, parent, name, t0, t1, _decision, counts in spans[start:]:
        seconds[name] += t1 - t0
        calls[name] += 1
        if parent is not None:
            child_seconds[parent] += t1 - t0
        for key, value in (counts or {}).items():
            totals[key] += value
    self_seconds: dict[str, float] = defaultdict(float)
    for sid, parent, name, t0, t1, _decision, _counts in spans[start:]:
        self_seconds[name] += (t1 - t0) - child_seconds[sid]
    return {
        "encoding.cover_poly_s": seconds["encoding.cover_poly"],
        "encoding.cover_poly_terms": totals["terms"],
        "encoding.system_char_poly_s": seconds["encoding.system_char_poly"],
        "encoding.relation_poly_s": seconds["encoding.relation_poly"],
        "groebner.gen_terms_in": totals["gen_terms"],
        "groebner.buchberger_s": seconds["groebner.buchberger"],
        "groebner.buchberger_calls": calls["groebner.buchberger"],
        "groebner.sm_count_for_s": seconds["groebner.sm_count_for"],
        "groebner.basis_len": totals["basis_len"],
        "groebner.basis_terms": totals["basis_terms"],
        "groebner.sm_count": totals["sm_count"],
        "oracle.s": seconds["oracle"],
        "oracle.fstar_s": seconds["oracle.fstar"],
        "oracle.calls": calls["oracle"],
        "cli.load_s": seconds["cli.load"],
        "cli.self_s": self_seconds["cli"],
        "checkers.self_s": self_seconds["checkers"],
        "algebra.parse_polynomial_s": seconds["algebra.parse_polynomial"],
        "algebra.format_polynomial_s": seconds["algebra.format_polynomial"],
    }
