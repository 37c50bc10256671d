"""Critical-path analysis of simulated schedules.

Answers the three questions a Gantt chart only hints at:

* **which chain of commands sets the makespan** —
  :func:`critical_path` walks the DES's binding-constraint links
  (:attr:`repro.sim.trace.Trace.links`) backward from the last-finishing
  span.  Each simulated command starts exactly when its binding
  constraint releases, so the reconstructed chain's durations plus its
  host-dispatch gaps sum to the makespan *by construction* — the path
  total is exact, not an estimate;
* **what the makespan is made of** — the path's per-kind breakdown
  attributes the simulated makespan to {kernel, copy, wait, dispatch};
* **where each device's time goes** — :func:`device_utilization` splits
  every device's timeline into busy / blocked (waiting on another
  device's event or a contended resource) / idle fractions that sum
  to 1.

:func:`dependency_chain` is the schedule-independent companion: the
longest weighted chain through the happens-before closure (FIFO + event
edges, via :mod:`repro.sanitizer.hb`), ignoring resource contention and
host dispatch.  It lower-bounds any replay's makespan — the gap between
the two is time lost to contention and dispatch rather than to the
algorithm's dependency structure.

Like the rest of the package this module is import-free at load time;
the ``repro.sim`` / ``repro.sanitizer`` imports happen inside the
functions that need them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CriticalPath",
    "DependencyChain",
    "PathSegment",
    "critical_path",
    "dependency_chain",
    "device_utilization",
]


@dataclass(frozen=True)
class PathSegment:
    """One span on the critical path, plus how it was bound to its start."""

    name: str
    kind: str  # "kernel" | "copy" | "sync"
    device: int
    queue: str
    start: float
    end: float
    cause: str  # binding constraint: "fifo" | "event" | "resource" | "dispatch" | ""
    gap: float  # idle time between the binding predecessor's finish and start

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The longest scheduled chain: segments, exact total, attribution."""

    segments: list[PathSegment]
    total: float  # == trace.makespan, by construction
    breakdown: dict[str, float]  # kernel/copy/wait durations + dispatch gaps

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "breakdown": dict(self.breakdown),
            "segments": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "device": s.device,
                    "queue": s.queue,
                    "start": s.start,
                    "end": s.end,
                    "cause": s.cause,
                    "gap": s.gap,
                }
                for s in self.segments
            ],
        }


@dataclass(frozen=True)
class DependencyChain:
    """Longest weighted happens-before chain (a makespan lower bound)."""

    total: float
    commands: tuple[str, ...]


def critical_path(trace) -> CriticalPath:
    """Walk the binding links backward from the last-finishing span.

    ``trace`` is a :class:`repro.sim.trace.Trace`.  For traces without
    links (hand-built span lists) the path degenerates to the single
    last-finishing span with its start attributed to dispatch.
    """
    if not trace.spans:
        return CriticalPath(segments=[], total=0.0, breakdown=_empty_breakdown())
    span = max(trace.spans, key=lambda s: (s.end, s.seq))
    total = span.end
    segments: list[PathSegment] = []
    hops = 0
    while span is not None:
        pred_seq, cause = trace.links.get(span.seq, (-1, ""))
        pred = trace.span_by_seq(pred_seq) if pred_seq >= 0 else None
        gap = span.start - (pred.end if pred is not None else 0.0)
        segments.append(
            PathSegment(
                name=span.name,
                kind=span.kind.value,
                device=span.device,
                queue=span.queue,
                start=span.start,
                end=span.end,
                cause=cause,
                gap=max(0.0, gap),
            )
        )
        span = pred
        hops += 1
        if hops > len(trace.spans):  # pragma: no cover - defensive
            raise RuntimeError("cycle in trace links; DES bookkeeping is broken")
    segments.reverse()
    breakdown = _empty_breakdown()
    for seg in segments:
        breakdown[{"kernel": "kernel", "copy": "copy", "sync": "wait"}[seg.kind]] += seg.duration
        breakdown["dispatch"] += seg.gap
    return CriticalPath(segments=segments, total=total, breakdown=breakdown)


def _empty_breakdown() -> dict[str, float]:
    return {"kernel": 0.0, "copy": 0.0, "wait": 0.0, "dispatch": 0.0}


def device_utilization(trace) -> dict[int, dict[str, float]]:
    """Busy / blocked / idle fractions of each device's timeline.

    *Busy* is the union coverage of the device's kernel and copy spans
    (overlapping streams do not double-count).  A gap before a span
    whose binding constraint is another device's event or a contended
    resource counts as *blocked*; gaps bound by host dispatch or queue
    order, and the tail after the device's last span, count as *idle*.
    The three fractions sum to 1 per device by construction.
    """
    makespan = trace.makespan
    out: dict[int, dict[str, float]] = {}
    for dev in sorted({s.device for s in trace.spans}):
        if makespan <= 0.0:
            out[dev] = {"busy": 0.0, "blocked": 0.0, "idle": 1.0}
            continue
        busy = blocked = 0.0
        frontier = 0.0
        for s in sorted(
            (s for s in trace.spans if s.device == dev), key=lambda s: (s.start, s.end)
        ):
            if s.start > frontier:
                _, cause = trace.links.get(s.seq, (-1, ""))
                if cause in ("event", "resource"):
                    blocked += s.start - frontier
                frontier = s.start
            if s.end > frontier:
                busy += s.end - frontier
                frontier = s.end
        out[dev] = {
            "busy": busy / makespan,
            "blocked": blocked / makespan,
            "idle": (makespan - busy - blocked) / makespan,
        }
    return out


def dependency_chain(queues, machine) -> DependencyChain:
    """Longest weighted chain through the happens-before closure.

    Reuses the sanitizer's edge model (:func:`repro.sanitizer.hb.build_hb`
    validates the wiring and resolves event records): FIFO order within
    each queue plus record→wait edges, each command weighted by its
    modeled duration on ``machine``.  No resource contention and no host
    dispatch — the result lower-bounds the makespan of *any* replay of
    these queues.
    """
    from collections import deque  # noqa: PLC0415

    from repro.sanitizer.hb import build_hb  # noqa: PLC0415 - lazy: keeps this package import-free
    from repro.sim.costmodel import kernel_duration  # noqa: PLC0415
    from repro.system.queue import CopyCommand, KernelCommand, WaitEventCommand  # noqa: PLC0415

    hb = build_hb(queues)

    def weight(cmd, device_index: int) -> float:
        if isinstance(cmd, KernelCommand):
            return kernel_duration(cmd.cost, machine.device_spec(device_index))
        if isinstance(cmd, CopyCommand):
            return machine.topology.link(cmd.src.index, cmd.dst.index).transfer_time(cmd.nbytes)
        return 0.0

    preds: dict = {}
    for q in hb.queues:
        for pos, cmd in enumerate(q.commands):
            preds[cmd] = [q.commands[pos - 1]] if pos > 0 else []
            if isinstance(cmd, WaitEventCommand):
                rec = hb.records.get(cmd.event.uid)
                if rec is not None:
                    preds[cmd].append(rec)

    succs: dict = {}
    indeg = {cmd: len(ps) for cmd, ps in preds.items()}
    for cmd, ps in preds.items():
        for p in ps:
            succs.setdefault(p, []).append(cmd)

    finish: dict = {}
    via: dict = {}
    ready = deque(cmd for cmd, d in indeg.items() if d == 0)
    processed = 0
    while ready:
        cmd = ready.popleft()
        processed += 1
        qi, _pos = hb.loc[cmd]
        best_pred, best_t = None, 0.0
        for p in preds[cmd]:
            if finish[p] > best_t:
                best_pred, best_t = p, finish[p]
        finish[cmd] = best_t + weight(cmd, hb.queues[qi].device.index)
        via[cmd] = best_pred
        for s in succs.get(cmd, ()):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if processed < len(preds):
        raise ValueError(
            "queue wiring contains a record/wait cycle; "
            f"events involved: {hb.cycle_events or 'unknown'}"
        )

    if not finish:
        return DependencyChain(total=0.0, commands=())
    end = max(finish, key=lambda c: finish[c])
    chain: list[str] = []
    cmd = end
    while cmd is not None:
        chain.append(cmd.name)
        cmd = via[cmd]
    chain.reverse()
    return DependencyChain(total=finish[end], commands=tuple(chain))

