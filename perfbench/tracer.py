"""In-memory spans and counters recorded by the benchmark's own code.

Spans wrap the benchmark's calls into the library's public functions; the
library itself is not instrumented.  A span records its name, start, end, the
span that caused it and the id of the op it belongs to.  Spans stay in memory
until the run ends and the runner writes them out once.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Collects spans and named counters; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def span_counts(self) -> dict[str, int]:
        """Number of spans recorded per name."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span["name"]] = counts.get(span["name"], 0) + 1
        return counts

