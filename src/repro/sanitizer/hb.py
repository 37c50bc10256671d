"""Vector-clock happens-before analysis over recorded queue wiring.

The ordering guarantees a stream/event schedule actually provides are
exactly two:

* **FIFO** — commands in one queue retire in list order;
* **events** — a ``WaitEventCommand`` cannot pass until the matching
  ``RecordEventCommand`` (and, by FIFO, everything before it in the
  recording queue) has retired.

Everything else — host enqueue order across queues, task-list levels,
timing luck of a particular replay — is *not* a guarantee, and the
parallel engine will eventually violate it.  This module computes the
transitive closure of the two real guarantees as one vector clock per
command: ``clock[c][q]`` is the number of commands of queue ``q`` that
must have retired before ``c`` may start (counting ``c`` itself on its
own queue).  ``a`` happens-before ``b`` iff ``clock[b]`` has advanced
past ``a``'s position on ``a``'s queue — an O(1) query after one
O(commands x queues) pass, the textbook vector-clock framing (Fidge/
Mattern) applied to a static schedule instead of a live trace.

Degenerate wiring is reported, not assumed away: waits on events whose
record is absent from the program, and record/wait cycles (both arise
under schedule mutation) come back as findings while the analysis
continues on the acyclic remainder.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.system.queue import RecordEventCommand, WaitEventCommand


@dataclass
class HBAnalysis:
    """Happens-before closure of one program's queue/event wiring."""

    queues: list
    loc: dict = field(default_factory=dict)  # cmd -> (queue_index, position)
    clocks: dict = field(default_factory=dict)  # cmd -> list[int] per queue
    records: dict = field(default_factory=dict)  # event uid -> RecordEventCommand
    waits: dict = field(default_factory=dict)  # event uid -> [WaitEventCommand]
    unrecorded_waits: list = field(default_factory=list)  # (wait_cmd, queue_name)
    cycle_events: list = field(default_factory=list)  # event names on broken cycles

    def ordered(self, a, b) -> bool:
        """True iff ``a`` happens-before ``b`` under the wiring (strict)."""
        if a is b:
            return False
        qi, pos = self.loc[a]
        return self.clocks[b][qi] >= pos + 1

    def ordered_either(self, a, b) -> bool:
        return self.ordered(a, b) or self.ordered(b, a)


def build_hb(queues) -> HBAnalysis:
    """Compute vector clocks for every command of ``queues``.

    ``queues`` is anything exposing ``.commands`` / ``.name`` (real
    :class:`~repro.system.queue.CommandQueue` objects or the analysis
    :class:`~repro.sanitizer.program.QueueView` clones).
    """
    hb = HBAnalysis(queues=list(queues))
    for qi, q in enumerate(hb.queues):
        for pos, cmd in enumerate(q.commands):
            if cmd in hb.loc:
                raise ValueError(f"command {cmd.name!r} appears twice in the program")
            hb.loc[cmd] = (qi, pos)
            if isinstance(cmd, RecordEventCommand):
                # one-shot recording: first occurrence defines completion
                hb.records.setdefault(cmd.event.uid, cmd)
            elif isinstance(cmd, WaitEventCommand):
                hb.waits.setdefault(cmd.event.uid, []).append(cmd)

    preds: dict = {}
    for q in hb.queues:
        for pos, cmd in enumerate(q.commands):
            preds[cmd] = []
            if pos > 0:
                preds[cmd].append(q.commands[pos - 1])
    for uid, wait_list in hb.waits.items():
        rec = hb.records.get(uid)
        for w in wait_list:
            if rec is None:
                hb.unrecorded_waits.append((w, hb.queues[hb.loc[w][0]].name))
            else:
                preds[w].append(rec)

    def kahn() -> tuple[list, dict]:
        """Topological order of ``preds`` and the in-degrees left unmet."""
        indeg = {cmd: len(ps) for cmd, ps in preds.items()}
        succs: dict = {}
        for cmd, ps in preds.items():
            for p in ps:
                succs.setdefault(p, []).append(cmd)
        order: list = []
        ready = deque(cmd for cmd, d in indeg.items() if d == 0)
        while ready:
            cmd = ready.popleft()
            order.append(cmd)
            for s in succs.get(cmd, ()):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        return order, indeg

    order, indeg = kahn()
    if len(order) < len(hb.loc):
        # a record/wait cycle (only schedule mutation produces one):
        # report the events involved, drop their edges, close the rest
        stuck = {cmd for cmd, d in indeg.items() if d > 0}
        names = set()
        for cmd in stuck:
            if isinstance(cmd, (RecordEventCommand, WaitEventCommand)):
                names.add(cmd.event.name)
            if isinstance(cmd, WaitEventCommand):
                rec = hb.records.get(cmd.event.uid)
                if rec in stuck and rec in preds[cmd]:
                    preds[cmd].remove(rec)
        hb.cycle_events = sorted(names)
        order, _ = kahn()

    nq = len(hb.queues)
    for cmd in order:
        clock = [0] * nq
        for p in preds[cmd]:
            pc = hb.clocks[p]
            for i in range(nq):
                if pc[i] > clock[i]:
                    clock[i] = pc[i]
        qi, pos = hb.loc[cmd]
        clock[qi] = max(clock[qi], pos + 1)
        hb.clocks[cmd] = clock
    return hb
