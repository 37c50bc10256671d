"""Bench-owned spans: name, start, end, parent, shared ids.

The benchmark records a span around every call it makes into a layer of
the program.  Spans stay in memory and are written once, at exit, by the
runner.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, which is system
wide, so spans of different child processes share one time axis.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """Nested spans on one thread (the child's main thread)."""

    def __init__(self, **ids):
        self.ids = ids  # workload / leg / round: shared by every span of a child
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": perf_counter(), "end": None, **self.ids, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def top_level(intervals: list[tuple[float, float, str]]) -> float:
    """Total length of ``(start, end, thread)`` intervals that are not
    nested inside another interval of the same thread."""
    total = 0.0
    for tid in {t for _, _, t in intervals}:
        end = float("-inf")
        for s, e, _ in sorted(iv for iv in intervals if iv[2] == tid):
            if s >= end:
                total += e - s
                end = e
    return total
