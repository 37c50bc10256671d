"""Execution traces produced by the discrete-event simulator.

A trace is a list of :class:`Span` records, one per simulated command,
carrying enough structure to compute the makespan, per-resource busy
time, and communication/computation overlap — the quantities behind the
paper's Fig 7/8 efficiency analysis (e.g. "communication is 49% of the
iteration at 192^3 but 10% at 512^3").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


def _natural_key(name: str) -> tuple:
    """Split digit runs out of a name so ``q2`` sorts before ``q10``."""
    return tuple(int(part) if part.isdigit() else part for part in re.split(r"(\d+)", name))


class SpanKind(Enum):
    """What occupied the resource: a kernel, a DMA copy, or a sync no-op."""

    KERNEL = "kernel"
    COPY = "copy"
    SYNC = "sync"


@dataclass(frozen=True)
class Span:
    kind: SpanKind
    name: str
    queue: str
    device: int
    resource: str
    start: float
    end: float
    #: simulation ordinal (the DES stamps spans in execution order);
    #: -1 for hand-built spans, which carry no dependency links
    seq: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """Timeline of one simulated execution.

    ``links`` is the DES's binding-constraint record: for each span seq,
    ``(predecessor_seq, cause)`` names the single constraint that
    determined the span's start time — queue FIFO order (``"fifo"``),
    an awaited event record (``"event"``), contention on a compute/link
    resource (``"resource"``), or host dispatch (``"dispatch"``,
    predecessor -1).  Walking the links backward from the last-finishing
    span reconstructs the schedule's critical path exactly (see
    :mod:`repro.observability.critpath`).
    """

    def __init__(self, spans: list[Span], links: dict[int, tuple[int, str]] | None = None):
        self.spans = sorted(spans, key=lambda s: (s.start, s.end, s.queue))
        self.links = links or {}
        self._by_seq = {s.seq: s for s in self.spans if s.seq >= 0}

    def span_by_seq(self, seq: int) -> Span | None:
        """The span the DES stamped with ``seq`` (None when absent)."""
        return self._by_seq.get(seq)

    @property
    def makespan(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    def copy_exposed_time(self) -> float:
        """Wall-clock time during which a copy runs but no kernel does.

        This is the communication cost that OCC failed to hide; zero means
        perfect overlap.
        """
        edges: list[tuple[float, int, SpanKind]] = []
        for s in self.spans:
            if s.kind is SpanKind.SYNC or s.duration == 0:
                continue
            edges.append((s.start, +1, s.kind))
            edges.append((s.end, -1, s.kind))
        edges.sort(key=lambda e: (e[0], -e[1]))
        exposed = 0.0
        kernels = copies = 0
        prev = 0.0
        for t, delta, kind in edges:
            if copies > 0 and kernels == 0:
                exposed += t - prev
            prev = t
            if kind is SpanKind.KERNEL:
                kernels += delta
            else:
                copies += delta
        return exposed

    def to_chrome_trace(self) -> list[dict]:
        """Chrome ``chrome://tracing`` / Perfetto event list.

        Each queue becomes a track (``tid``), each device a process
        (``pid``); load the JSON dump of the returned list directly.
        """
        events = []
        for s in self.spans:
            if s.duration == 0:
                continue
            events.append(
                {
                    "name": s.name,
                    "cat": s.kind.value,
                    "ph": "X",
                    "ts": s.start * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": f"device{s.device}",
                    "tid": s.queue,
                    "args": {"resource": s.resource},
                }
            )
        return events

    def gantt(self, width: int = 80) -> str:
        """ASCII Gantt chart, one row per queue, for debugging schedules."""
        if not self.spans:
            return "(empty trace)"
        total = self.makespan or 1.0
        rows: dict[str, list[str]] = {}
        row_device: dict[str, int] = {}
        for s in self.spans:
            row = rows.setdefault(s.queue, [" "] * width)
            row_device[s.queue] = min(row_device.get(s.queue, s.device), s.device)
            a = min(width - 1, int(s.start / total * width))
            b = min(width, max(a + 1, int(s.end / total * width)))
            ch = {"kernel": "#", "copy": "=", "sync": "|"}[s.kind.value]
            for i in range(a, b):
                row[i] = ch
        # natural (device, queue-index) order: q2 before q10, device 0 first
        ordered = sorted(rows.items(), key=lambda kv: (row_device[kv[0]], _natural_key(kv[0])))
        lines = [f"{name:>12} |{''.join(cells)}|" for name, cells in ordered]
        lines.append(f"{'':>12}  makespan = {total:.3e} s  (# kernel, = copy, | sync)")
        return "\n".join(lines)
