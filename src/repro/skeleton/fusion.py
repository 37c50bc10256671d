"""Fusion: batch the frozen step list into coalesced dispatch units.

The dashboards put the problem on the table: a 4-device LBM miniature
spends ~50x more wall-clock in per-step Python dispatch than its
simulated makespan (``python -m repro trace lbm --devices 4``; the
benchmark's ``skeleton.fusion_speedup`` measures what this pass buys,
see docs/runtime.md).  This pass runs at every ``CompiledProgram``
freeze and collapses the step list into *dispatch units*: maximal
chains of same-queue, same-kind steps whose recorded wiring proves the
batch is reordering-free, each executing one precomposed closure.  With
fusion off every step is its own unspecialised unit, so replay has one
shape — a walk over ``program.dispatch`` — whatever the setting.

**It is a pure plan-to-plan transform.**  The recorded queues, commands,
events and per-step metadata are untouched — the DES timing model, the
sanitizer's :class:`~repro.sanitizer.program.ProgramView`, the tuner's
cost extraction and the mutation matrix all keep reading the same
objects (a fused unit's DES cost is the sum of its constituents by
construction, because the constituents *are* the commands the simulator
sees).  Only replay dispatch changes: serial replay walks
``program.dispatch``; parallel replay executes a whole unit when the
engine reaches its head command and skips the member commands at their
original positions (event records stay in place, so completion signals
still fire only after the batched work — which ran at or before the
head position — is done).

**Legality.**  A chain may grow from step ``t`` to the next same-queue,
same-kind step ``s`` only when:

1. *records-only interior* — between ``t`` and ``s`` on their queue sit
   only :class:`RecordEventCommand`s.  A ``WaitEventCommand`` there is a
   wired dependency entering the chain (the scheduler places consumer
   waits immediately before the consuming command), and a foreign data
   command is an ordering constraint we will not reorder across; either
   breaks the chain.  Because every cross-queue dependency — including
   same-device ones — is event-wired by the scheduler, "no interior
   waits" already proves no step that executes between the unit's head
   and tail positions depends on, or is depended on by, a member that
   the batching moves.
2. *disjoint interleavings* — the unit runs at its head's position, so
   ``s`` moves ahead of every step of another queue issued since the
   chain's head.  ``s`` is checked against each of them with the
   sanitizer's region-atom access model
   (:func:`repro.sanitizer.access.step_accesses`); a shared atom with a
   write on either side vetoes the extension.  Only ``s`` is checked: the
   head does not move, and each earlier member passed the same check,
   against every step interleaved before it, when it joined.

**Precomposition.**  Copy chains that form a complete SoA component
family collapse into one multi-component staged copy
(:meth:`DenseField.batched_halo_fn`), kernel steps whose container
registered a ``specialize`` hook get an ahead-of-time compiled,
pre-bound kernel (:mod:`repro.codegen`), and everything else runs its
already-frozen command closures back to back.

**Lowering.**  A replay runs :meth:`FusedStep.lower` of each unit for
the armed layer set: bare, the precomposed closure itself; otherwise the
constituents' *own* closures — the same specialised kernels — each
wrapped once by :func:`repro.system.layers.lower`, so fault sites,
sanitizer records and per-kernel spans are those of the unfused program.
Either way the always-on flight recorder (:mod:`repro.observability.flight`)
gets one ring slot per host call bare and one per step instrumented; no
lowering runs without it.  A specialised kernel or dense halo copy is an
op table (:mod:`repro.codegen.table`), and a bare *serial* replay goes
one step further (:func:`lower_serial`): every maximal run of consecutive
table-carrying units becomes one table — one host call — with the units
whose closure is still Python left in place between the runs.  Inside such
a table each rank's map -> stencil -> reduce chain runs plane by plane
(:mod:`repro.codegen.pipeline`), so a plane a kernel wrote is still in
cache when the next one reads it.

Fusion is **on by default**; ``--no-fuse`` CLI flags and the
:func:`disabled` context manager (or ``Plan.fuse = False`` before first
execute) opt out per run.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial

from repro import observability as _obs
from repro.codegen import pipeline as _pipeline
from repro.codegen.table import Table, concat
from repro.observability.flight import FLIGHT as _FLIGHT
from repro.sanitizer.access import step_accesses
from repro.system import layers as _layers
from repro.system.queue import RecordEventCommand


class _FusionConfig:
    """Process-global default; consulted at program-freeze time."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True


FUSION = _FusionConfig()
_config_lock = threading.Lock()


@contextmanager
def disabled():
    """Freeze plans without fusion inside the block (CLI --no-fuse)."""
    with _config_lock:
        prev, FUSION.enabled = FUSION.enabled, False
    try:
        yield
    finally:
        with _config_lock:
            FUSION.enabled = prev


@dataclass
class FusedStep:
    """One replay dispatch unit: a chain of steps behind one closure.

    ``steps`` are the constituent ``_Step``s in issue order (length 1 is
    common — a lone kernel still gains any specialized codegen).  ``fn``
    is the precomposed closure a bare replay calls, ``fns`` the
    constituents' own closures an instrumented one wraps, ``kind`` the
    flight-ring kind of a bare replay's slot.
    """

    steps: list
    queue: object
    pid: str
    label: str
    site: str
    fn: Callable[[], None]
    fns: tuple = ()
    specialized: bool = False
    kind: str = "fused"
    sites: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.sites:
            self.sites = tuple(s.site for s in self.steps)

    def lower(self, layers: Mapping[str, object]) -> Callable[[], None]:
        """The callable that runs this unit under ``layers``: bare, ``fn``
        behind one flight-ring slot for the unit; otherwise each constituent
        instrumented as its own step behind its own slot, inside a
        ``cat="fused"`` envelope span when observability sees a batch."""
        if not layers:
            return partial(_ringed, (self.pid, self.kind, self.site), self.fn)
        runs = []
        for s, fn in zip(self.steps, self.fns):
            run = _layers.lower(s.command, s.queue, layers, fn, halo=s.kind == "copy")
            runs.append(partial(_ringed, (s.pid, s.kind, s.site), run))
        if len(runs) == 1:
            return runs[0]
        if "obs" not in layers:
            return partial(_chain, nullcontext, runs)
        args = {"cat": "fused", "pid": self.pid, "tid": self.queue.name, "fused": len(runs)}
        return partial(_chain, partial(_obs.tracer().span, self.label, **args), runs)


def _ringed(slot: tuple, fn: Callable[[], None]) -> None:
    _FLIGHT.record(*slot)
    fn()


def segments(dispatch: list) -> list[list[FusedStep]]:
    """``dispatch`` cut into the host calls of a bare serial replay: maximal
    runs of consecutive units whose closure is an op table, and every unit
    whose closure is Python on its own."""
    out: list[list[FusedStep]] = []
    for unit in dispatch:
        if isinstance(unit.fn, Table) and out and isinstance(out[-1][-1].fn, Table):
            out[-1].append(unit)
        else:
            out.append([unit])
    return out


def lower_serial(dispatch: list) -> list[Callable[[], None]]:
    """The bare serial lowering: one callable per segment, in dispatch order.

    A run of table units is their tables as one table behind one ring slot
    (kind ``program``: first site + op count — ops cannot raise, so no
    post-mortem ring ever ends inside one), its ops walked plane by plane
    where a rank chains them (:func:`repro.codegen.pipeline.lower`); a
    Python unit lowers as it always did.  Scalars are read at segment
    entry, which equals per launch because only a Python unit could change
    one, and it ends the segment.
    """
    runs = []
    for units in segments(dispatch):
        head = units[0]
        if not isinstance(head.fn, Table):
            runs.append(head.lower({}))
            continue
        table = _pipeline.lower([u.fn for u in units])
        slot = (head.pid, "program", f"{head.sites[0]}+{len(table.ops)}ops")
        runs.append(partial(_ringed, slot, table))
    return runs


def _chain(envelope, runs: list) -> None:
    with envelope():
        for run in runs:
            run()


def _accesses(step):
    try:
        return step_accesses(step)
    except Exception:  # noqa: BLE001 - unknown step shape: assume the worst
        return None


def _conflicts(chain_acc, other_acc) -> bool:
    """Do two access sets share a region atom with a write on either side?"""
    if chain_acc is None or other_acc is None:
        return True  # could not prove the footprint: veto the fusion
    writes = {a.region for a in chain_acc if a.write}
    touched = {a.region for a in chain_acc}
    for a in other_acc:
        if a.region in writes or (a.write and a.region in touched):
            return True
    return False


def _records_only_between(queue, pos_of, a_cmd, b_cmd) -> bool:
    lo, hi = pos_of[a_cmd], pos_of[b_cmd]
    return all(isinstance(c, RecordEventCommand) for c in queue.commands[lo + 1 : hi])


def build_chains(program) -> list[list]:
    """Group ``program.steps`` into maximal legal fusion chains.

    One chain may stay *open* per queue while other queues' steps issue
    in between (the interleaved steps are what the access-token check
    guards against); a chain closes when its queue issues a step that
    cannot legally extend it, or at end of program.  Chains are returned
    in head-issue order, which is the serial dispatch order.
    """
    # per-queue command positions, for the records-only interior test
    pos_of: dict = {}
    for q in program.queues:
        for i, cmd in enumerate(q.commands):
            pos_of[cmd] = i
    acc_cache: dict[int, list | None] = {}

    def acc_of(step):
        key = id(step)
        if key not in acc_cache:
            acc_cache[key] = _accesses(step)
        return acc_cache[key]

    chains: list[list] = []
    # queue identity -> {steps, steps of other queues issued since the head}
    open_chains: dict[int, dict] = {}

    def close(qid: int) -> None:
        state = open_chains.pop(qid, None)
        if state is not None:
            chains.append(state["steps"])

    def note_interleaving(step, qid: int) -> None:
        for other_qid, state in open_chains.items():
            if other_qid != qid:
                state["pending"].append(step)

    # program.steps is already in enqueue == issue_seq order
    for step in program.steps:
        qid = id(step.queue)
        state = open_chains.get(qid)
        if state is not None:
            tail = state["steps"][-1]
            legal = step.kind == tail.kind and _records_only_between(
                step.queue, pos_of, tail.command, step.command
            )
            if legal:
                step_acc = acc_of(step)
                legal = not any(_conflicts(step_acc, acc_of(other)) for other in state["pending"])
            if legal:
                state["steps"].append(step)
                note_interleaving(step, qid)
                continue
            close(qid)
        open_chains[qid] = {"steps": [step], "pending": []}
        note_interleaving(step, qid)
    for qid in list(open_chains):
        close(qid)
    chains.sort(key=lambda c: c[0].command.issue_seq)
    return chains


def _compose(steps) -> tuple[Callable[[], None], tuple, bool]:
    """``(fn, fns, specialized)`` for one chain: the composed closure, the
    per-constituent ones, and whether codegen produced any of them."""
    fns: list[Callable[[], None]] = []
    specialized = False
    for s in steps:
        fn = None
        if s.kind == "kernel" and not s.virtual and s.container is not None:
            hook = getattr(s.container, "specialize", None)
            if hook is not None:
                span = s.container.index_data.span_for(s.rank, s.view)
                fn = hook(s.rank, s.view, span)
                specialized = specialized or fn is not None
        fns.append(fn if fn is not None else s.command.fn)
    if len(fns) == 1:
        return fns[0], tuple(fns), specialized
    if all(s.kind == "copy" for s in steps):
        fld = steps[0].halo_field
        batched = getattr(fld, "batched_halo_fn", None)
        if batched is not None and all(s.halo_field is fld for s in steps):
            fn = batched([s.msg for s in steps])
            if fn is not None:
                return fn, tuple(fns), False
    if all(isinstance(f, Table) for f in fns):
        return concat(fns), tuple(fns), specialized

    def run_chain(fns=tuple(fns)):
        for f in fns:
            f()

    return run_chain, tuple(fns), specialized


def fuse_program(program, fuse: bool = True) -> None:
    """Annotate a compiled program with its dispatch plan, in place.

    Populates ``program.dispatch`` (list of :class:`FusedStep`),
    ``program.fused_heads`` (head command -> unit, in dispatch order; a
    member command has no entry, which is how the parallel engine
    callback skips it) and the ``fused_steps`` / ``dispatch_units`` /
    ``host_calls`` / ``pipelined_chains`` / ``fusion_ratio`` schedule
    stats.  ``fuse=False`` makes every step a singleton unit around its own
    command closure: no chains, no hooks.
    """
    dispatch: list[FusedStep] = []
    for chain in build_chains(program) if fuse else ([s] for s in program.steps):
        head = chain[0]
        fn, fns, specialized = _compose(chain) if fuse else (head.command.fn, (head.command.fn,), False)
        dispatch.append(
            FusedStep(
                steps=chain,
                queue=head.queue,
                pid=head.pid,
                label=head.label if len(chain) == 1 else f"fused[{len(chain)}]:{head.label}",
                site=head.site if len(chain) == 1 else f"fused:{head.site}+{len(chain) - 1}",
                fn=fn,
                fns=fns,
                specialized=specialized,
                kind="fused" if fuse else head.kind,
            )
        )
    program.dispatch = dispatch
    program.fused_heads = {u.steps[0].command: u for u in dispatch}
    stats = program.stats
    stats.fused_steps = sum(len(u.steps) for u in dispatch if len(u.steps) > 1)
    stats.dispatch_units = len(dispatch)
    runs = [[u.fn for u in units] for units in segments(dispatch)]
    stats.host_calls = len(runs)
    stats.pipelined_chains = sum(len(_pipeline.chains(fns)) for fns in runs if isinstance(fns[0], Table))
    stats.fusion_ratio = (len(program.steps) / len(dispatch)) if dispatch else 1.0
