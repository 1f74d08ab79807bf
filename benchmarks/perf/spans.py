"""The benchmark's own span recorder and the self-time arithmetic.

Spans are opened by the benchmark around each call into a layer's public
entry point; the code under test carries no benchmark hooks.  A span is the
record ``{name, id, parent, start, end, attrs}`` with times in seconds
since the recorder was created.  A span's *self time* is its duration
minus the part of its interval that its children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping


class Recorder:
    """Collects spans in memory; one recorder per process phase."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self._next_id = 1
        self.spans: list[dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, /, **attrs: Any) -> Iterator[dict[str, Any]]:
        span_id = self._next_id
        self._next_id += 1
        record = {
            "name": name,
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self._stack.append(span_id)
        record["start"] = time.perf_counter() - self._t0
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            /, **attrs: Any) -> dict[str, Any]:
        """Record a span measured elsewhere, on this recorder's time base
        (``start``/``end`` are ``time.perf_counter()`` readings)."""
        record = {
            "name": name,
            "id": self._next_id,
            "parent": parent,
            "start": start - self._t0,
            "end": end - self._t0,
            "attrs": attrs,
        }
        self._next_id += 1
        self.spans.append(record)
        return record


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Mapping[str, Any]]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    spans = list(spans)
    by_id = {sp["id"]: sp for sp in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        parent = by_id.get(sp["parent"])
        if parent is not None:
            lo = max(sp["start"], parent["start"])
            hi = min(sp["end"], parent["end"])
            if hi > lo:
                children[parent["id"]].append((lo, hi))
    return {
        sp["id"]: (sp["end"] - sp["start"]) - _covered(children[sp["id"]])
        for sp in spans
    }


def totals_by_name(spans: Iterable[Mapping[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration, summed self time and call count."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sp in spans:
        row = out.setdefault(sp["name"], {"total": 0.0, "self": 0.0, "calls": 0})
        row["total"] += sp["end"] - sp["start"]
        row["self"] += own[sp["id"]]
        row["calls"] += 1
    return out


def unattributed(end_to_end: float, layers: Mapping[str, float]) -> float:
    """The part of an end-to-end time that no layer row accounts for."""
    return end_to_end - sum(layers.values())
