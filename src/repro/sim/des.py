"""Discrete-event simulator for recorded command queues.

Replays the per-device command queues produced by the Skeleton executor
against a :class:`~repro.sim.machine.MachineSpec`, honouring exactly the
semantics of the queue-based runtime model:

* commands in one queue execute in issue order,
* a ``wait`` command blocks its queue until the awaited event's ``record``
  command has completed in its own queue,
* each device serialises kernels on a single compute engine,
* each directed device pair serialises copies on its own link (so copies
  to the left and right neighbours, and copies on different devices, all
  overlap with each other and with kernels).

The last two bullets are what makes OCC measurable: hiding a copy needs a
kernel running *concurrently on the same device*, which only happens if
the schedule launched the internal-view kernel on another stream before
blocking on the halo transfer.
"""

from __future__ import annotations

from repro.system.queue import (
    Command,
    CommandQueue,
    CopyCommand,
    KernelCommand,
    RecordEventCommand,
    WaitEventCommand,
)

from .costmodel import kernel_duration
from .machine import MachineSpec
from .trace import Span, SpanKind, Trace


class SimulationDeadlock(RuntimeError):
    """The queues cannot make progress (wait on a never-recorded event)."""


def simulate(
    queues: list[CommandQueue],
    machine: MachineSpec,
    issue_times: dict[int, float] | None = None,
) -> Trace:
    """Simulate the queues to completion and return the timing trace.

    ``issue_times`` (keyed by ``Command.issue_seq``) optionally models the
    host side: a command cannot *start* before the host issued it.  The
    replay helpers use this to distinguish serial host dispatch (one
    thread issues everything in task-list order) from parallel dispatch
    (one worker per device); without it, issue is treated as free.
    """
    pcs = [0] * len(queues)
    last_finish = [0.0] * len(queues)
    event_done: dict[int, float] = {}
    resource_avail: dict[str, float] = {}
    spans: list[Span] = []
    # binding-constraint bookkeeping for the critical-path analyzer:
    # which span last released each queue / resource / event
    links: dict[int, tuple[int, str]] = {}
    queue_last_seq = [-1] * len(queues)
    resource_last_seq: dict[str, int] = {}
    event_record_seq: dict[int, int] = {}

    recorded_anywhere = {
        cmd.event.uid for q in queues for cmd in q.commands if isinstance(cmd, RecordEventCommand)
    }

    total = sum(len(q) for q in queues)
    done = 0
    while done < total:
        best: tuple[float, int, int] | None = None  # (start, queue uid, queue idx)
        best_plan: tuple[float, float, str, SpanKind] | None = None
        for qi, q in enumerate(queues):
            pc = pcs[qi]
            if pc >= len(q):
                continue
            cmd = q.commands[pc]
            ready = last_finish[qi]
            if issue_times is not None:
                ready = max(ready, issue_times.get(cmd.issue_seq, 0.0))
            if isinstance(cmd, WaitEventCommand):
                if cmd.event.uid not in recorded_anywhere:
                    raise SimulationDeadlock(
                        f"queue {q.name} waits on {cmd.event!r} which is never recorded"
                    )
                if cmd.event.uid not in event_done:
                    continue  # record not simulated yet
                start, dur, resource, kind = max(ready, event_done[cmd.event.uid]), 0.0, "", SpanKind.SYNC
            elif isinstance(cmd, RecordEventCommand):
                start, dur, resource, kind = ready, 0.0, "", SpanKind.SYNC
            elif isinstance(cmd, KernelCommand):
                resource = f"compute:{q.device.uid}"
                start = max(ready, resource_avail.get(resource, 0.0))
                dur = kernel_duration(cmd.cost, machine.device_spec(q.device.index))
                kind = SpanKind.KERNEL
            elif isinstance(cmd, CopyCommand):
                resource = f"link:{cmd.src.index}->{cmd.dst.index}"
                start = max(ready, resource_avail.get(resource, 0.0))
                dur = machine.topology.link(cmd.src.index, cmd.dst.index).transfer_time(cmd.nbytes)
                kind = SpanKind.COPY
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown command type {type(cmd)!r}")

            key = (start, cmd.issue_seq, qi)
            if best is None or key < best:
                best = key
                best_plan = (start, dur, resource, kind)

        if best is None:
            stuck = [q.name for qi, q in enumerate(queues) if pcs[qi] < len(q)]
            raise SimulationDeadlock(f"no queue can progress; stuck queues: {stuck}")

        start, dur, resource, kind = best_plan
        qi = best[2]
        q = queues[qi]
        cmd: Command = q.commands[pcs[qi]]
        finish = start + dur
        seq = len(spans)

        # which constraint actually set ``start``?  The latest-releasing
        # one binds; ties prefer a real predecessor span over the host.
        cands: list[tuple[float, int, str]] = [(last_finish[qi], queue_last_seq[qi], "fifo")]
        if issue_times is not None:
            cands.append((issue_times.get(cmd.issue_seq, 0.0), -1, "dispatch"))
        if isinstance(cmd, WaitEventCommand):
            cands.append(
                (event_done[cmd.event.uid], event_record_seq.get(cmd.event.uid, -1), "event")
            )
        if resource:
            cands.append((resource_avail.get(resource, 0.0), resource_last_seq.get(resource, -1), "resource"))
        _, bind_pred, bind_cause = max(cands, key=lambda c: (c[0], c[1] >= 0))
        links[seq] = (bind_pred, bind_cause)

        spans.append(
            Span(
                kind=kind,
                name=cmd.name,
                queue=q.name,
                device=q.device.index,
                resource=resource,
                start=start,
                end=finish,
                seq=seq,
            )
        )
        if resource:
            resource_avail[resource] = finish
            resource_last_seq[resource] = seq
        if isinstance(cmd, RecordEventCommand):
            event_done[cmd.event.uid] = finish
            event_record_seq[cmd.event.uid] = seq
        last_finish[qi] = finish
        queue_last_seq[qi] = seq
        pcs[qi] += 1
        done += 1

    return Trace(spans, links=links)
