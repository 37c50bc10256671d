"""Schedule mutation: deliberately broken programs the sanitizer must flag.

Mutation testing keeps the sanitizer honest in both directions.  The
zero-violation runs show it does not cry wolf on valid OCC schedules;
the mutants show it has teeth — every emitted mutant carries a real
schedule defect, and the suite asserts the detector flags 100% of them.

Six mutant kinds, covering the two defect families the detector exists
for (missing/mis-placed synchronisation, broken halo coherency):

* ``drop-wait``      — delete one :class:`WaitEventCommand`;
* ``delay-wait``     — move a wait *after* the kernel/copy it guards;
* ``drop-record``    — delete one :class:`RecordEventCommand`;
* ``advance-record`` — move a record *before* the kernel/copy whose
  completion it is supposed to publish;
* ``drop-copy``      — delete one halo message;
* ``truncate-copy``  — replace a halo message with a half-size payload
  (the classic partial-update bug: the tail of the ghost slab stays
  stale).

**Equivalent-mutant discipline.**  Not every candidate edit breaks the
schedule: a wait can be redundant (an alternative event path or FIFO
chain already orders the pair — common once empty border pieces flow
their dependencies through), and a copy nobody reads is dead weight.
Asserting "the sanitizer flags everything we emit" is only meaningful if
emission is filtered by *independent* evidence that the mutant is broken:

* wait/record-reorder mutants are confirmed by the DES oracle — the
  mutated queues are simulated (:mod:`repro.sim.des` honours only FIFO +
  events, and knows nothing of vector clocks) and the plan's own
  dependency checker (:func:`~repro.skeleton.executor.check_trace_dependencies`)
  must report an ordering violation;
* ``drop-record`` is structurally broken whenever the event has waiters
  (they can never be satisfied), which is always true here because the
  scheduler only records events that have consumers;
* copy mutants are emitted only when some stencil kernel reads the halo
  atom the dropped/truncated message was to fill.

The oracles never consult :mod:`repro.sanitizer.hb` or the detector, so
the mutation matrix is evidence, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from repro.domain.halo import HaloMsg
from repro.sim import SimulationDeadlock, simulate
from repro.system.queue import CopyCommand, RecordEventCommand, WaitEventCommand

from .access import step_accesses
from .program import ProgramView


@dataclass(frozen=True)
class Mutant:
    """One deliberately broken program and how it was broken."""

    mid: str
    kind: str
    description: str
    view: ProgramView


def _des_confirms_breakage(plan, view: ProgramView) -> bool:
    """Independent oracle: DES-simulate the mutated queues, check deps."""
    from repro.skeleton.executor import check_trace_dependencies

    try:
        trace = simulate(view.queues, plan.backend.machine)
    except SimulationDeadlock:
        return True  # the mutated wiring cannot even be replayed
    shim = SimpleNamespace(plan=plan)
    return bool(check_trace_dependencies(shim, trace))


def _halo_read_regions(view: ProgramView) -> set[tuple]:
    """Halo atoms some kernel of the program actually reads."""
    regions: set[tuple] = set()
    for q in view.queues:
        for cmd in q.commands:
            info = view.step_info(cmd)
            if info is None or info.kind != "kernel":
                continue
            for a in step_accesses(info):
                if not a.write and a.region[0] == "halo":
                    regions.add(a.region)
    return regions


def _is_exec(cmd) -> bool:
    return not isinstance(cmd, (RecordEventCommand, WaitEventCommand))


def generate_mutants(plan, max_per_kind: int | None = None) -> list[Mutant]:
    """Every confirmed-broken single-edit mutant of a plan's compiled program.

    ``plan`` supplies the program, and the DES machine model and
    dependency ground truth for the reorder oracles.  ``max_per_kind``
    caps emission per mutant kind (first-come in queue order) to bound
    matrix runtime.
    """
    base = ProgramView.from_compiled(plan._ensure_program())
    halo_reads = _halo_read_regions(base)
    waited_uids = {
        cmd.event.uid for q in base.queues for cmd in q.commands if isinstance(cmd, WaitEventCommand)
    }

    mutants: list[Mutant] = []
    counts: dict[str, int] = {}

    def emit(kind: str, description: str, view: ProgramView) -> None:
        if max_per_kind is not None and counts.get(kind, 0) >= max_per_kind:
            return
        counts[kind] = counts.get(kind, 0) + 1
        mutants.append(Mutant(f"{kind}#{len(mutants)}:{description}", kind, description, view))

    for qi, q in enumerate(base.queues):
        for pos, cmd in enumerate(q.commands):
            if isinstance(cmd, WaitEventCommand):
                # drop-wait: the consumer no longer waits for its producer
                view = base.clone()
                del view.queues[qi].commands[pos]
                if _des_confirms_breakage(plan, view):
                    emit("drop-wait", f"{cmd.name}@{q.name}", view)
                # delay-wait: the guarded command now runs before the wait
                if pos + 1 < len(q.commands) and _is_exec(q.commands[pos + 1]):
                    view = base.clone()
                    cmds = view.queues[qi].commands
                    cmds[pos], cmds[pos + 1] = cmds[pos + 1], cmds[pos]
                    if _des_confirms_breakage(plan, view):
                        emit("delay-wait", f"{cmd.name}@{q.name}", view)
            elif isinstance(cmd, RecordEventCommand):
                # drop-record: waiters elsewhere can never be satisfied
                if cmd.event.uid in waited_uids:
                    view = base.clone()
                    del view.queues[qi].commands[pos]
                    emit("drop-record", f"{cmd.name}@{q.name}", view)
                # advance-record: completion published before the work runs
                if pos > 0 and _is_exec(q.commands[pos - 1]) and cmd.event.uid in waited_uids:
                    view = base.clone()
                    cmds = view.queues[qi].commands
                    cmds[pos - 1], cmds[pos] = cmds[pos], cmds[pos - 1]
                    if _des_confirms_breakage(plan, view):
                        emit("advance-record", f"{cmd.name}@{q.name}", view)
            elif isinstance(cmd, CopyCommand):
                info = base.step_info(cmd)
                if info is None or info.halo_field is None:
                    continue
                msg = info.msg
                target = ("halo", info.halo_field.uid, msg.dst_rank, msg.side)
                if target not in halo_reads:
                    continue  # nobody reads these ghost cells: equivalent mutant
                # drop-copy: the ghost slab is never filled
                view = base.clone()
                del view.queues[qi].commands[pos]
                emit("drop-copy", f"{cmd.name}@{q.name}", view)
                # truncate-copy: half the slab arrives, the tail stays stale
                if msg.nbytes >= 2:
                    view = base.clone()
                    short = HaloMsg(msg.name, msg.src_rank, msg.dst_rank, msg.nbytes // 2, msg.fn)
                    stub = CopyCommand(cmd.name, cmd.fn, cmd.src, cmd.dst, short.nbytes)
                    view.queues[qi].commands[pos] = stub
                    view.add_info(stub, info, msg=short)
                    emit("truncate-copy", f"{cmd.name}@{q.name}", view)
    return mutants
