"""Scheduling a multi-GPU graph onto streams and events (paper V-C).

The greedy three-phase algorithm of the paper:

a) *Mapping nodes to streams* — BFS levels over the data-dependency
   arrows; the widest level sets the stream count; nodes prefer a
   parent's stream to save synchronisations.
b) *Organising event synchronisation* — for every data dependency whose
   producer and consumer pieces land on different queues, the producer
   records a completion event and the consumer waits on it; same-queue
   dependencies ride on stream FIFO order for free.
c) *Task-list order* — BFS levels again, this time over data + hint
   edges; the host enqueues tasks level by level, which is what turns
   the OCC hints into an actual launch order.

Everything is wired at *piece* granularity: a compute node contributes
one piece per device rank (its view-restricted launch), a halo node one
piece per transfer message.  Scopes on the graph edges say which ranks a
dependency couples (same-rank for compute-compute, message source/
destination for halo edges).  A piece that is empty on some rank (e.g. a
BOUNDARY launch on a border device) is transparent: its dependencies
flow through to its consumers.

Replay has one shape: freezing always yields dispatch units
(:mod:`repro.skeleton.fusion`), and ``Plan.execute`` reads the armed
layers (process-wide observability; the fault session and sanitizer log
of its own backend) once per call, then calls the program's lowering for
that set — one callable per unit, wrappers and flight-ring slot already
composed.  A layer armed or disarmed *during* a replay takes
effect at the next one.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import threading

from repro import observability as _obs
from repro.sets import Container, DataView, ReduceMode
from repro.sets.loader import Loader
from repro.system import (
    EXECUTION_MODES,
    Backend,
    Command,
    CommandQueue,
    Event,
    ParallelEngine,
)
from repro.system import layers as _layers

from .depgraph import DepGraph, GraphNode, NodeKind, Scope
from .fusion import FUSION, FusedStep, fuse_program, lower_serial

PieceKey = tuple  # ("c", node_uid, rank) | ("h", node_uid, msg_index)


@dataclass
class ScheduleStats:
    num_streams: int = 0
    num_kernels: int = 0
    num_copies: int = 0
    num_events: int = 0
    num_waits: int = 0
    waits_skipped_same_queue: int = 0
    kernel_bytes: float = 0.0
    kernel_flops: float = 0.0
    copy_bytes: int = 0
    # fusion annotations (populated by repro.skeleton.fusion.fuse_program)
    fused_steps: int = 0  # constituent steps living inside multi-step units
    dispatch_units: int = 0  # len(program.dispatch)
    host_calls: int = 0  # callables a bare serial replay runs: table segments + Python units
    pipelined_chains: int = 0  # rank chains those segments replay plane by plane (codegen.pipeline)
    fusion_ratio: float = 1.0  # steps per dispatch unit (>= 1.0)


@dataclass
class ExecutionResult:
    queues: list[CommandQueue]
    stats: ScheduleStats
    plan: "Plan"


@dataclass(frozen=True)
class _Step:
    """One replayable kernel or copy of a compiled program.

    Everything a replay needs is resolved at freeze time: the target
    queue, the trace / flight track and the resilience injection-site
    key (:func:`repro.system.layers.describe`, which the eager enqueue
    path shares, so seeded fault plans reproduce identically on either).
    The sanitizer reads the same frozen record as a command's access
    metadata (:mod:`repro.sanitizer.access`).
    """

    kind: str  # "kernel" | "copy"
    queue: CommandQueue
    label: str
    pid: str
    site: str
    command: Command | None = None
    # kernel steps only
    container: Container | None = None
    rank: int = -1
    virtual: bool = False
    view: DataView | None = None
    # copy steps only
    msg: object | None = None
    halo_field: object | None = None


@dataclass
class CompiledProgram:
    """A frozen stream/event schedule, replayable without re-derivation.

    Queues, commands and events are created exactly once; every
    ``Plan.execute()`` replays the same objects.  Event *signals* are
    runtime state reset per parallel replay; the recording metadata and
    dependency wiring never change.

    ``dispatch`` holds the replay plan (see :mod:`repro.skeleton.fusion`;
    one unit per step with fusion off); ``steps`` / ``step_of`` /
    ``queues`` stay per-constituent either way, so the DES, sanitizer
    and tuner views of the program are fusion-invariant.
    """

    queues: list[CommandQueue]
    steps: list[_Step]
    step_of: dict[Command, _Step]
    events: dict[PieceKey, Event]
    stats: ScheduleStats
    dispatch: list[FusedStep] = field(default_factory=list)
    fused_heads: dict[Command, FusedStep] = field(default_factory=dict)
    # bool(layers) -> (layers, runners): only the bare lowering and the
    # latest instrumented one are kept, so dead registries are never accumulated
    _lowered: dict[bool, tuple] = field(default_factory=dict, repr=False)

    def runners(self, layers: Mapping[str, object]) -> tuple[dict[Command, Callable[[], None]], list]:
        """``(by_head, host_calls)``: head command -> the callable that runs
        its unit, in dispatch order (what the engine looks up), and the
        callables a serial replay runs — the same ones under any layer, the
        segment tables of :func:`repro.skeleton.fusion.lower_serial` bare.
        Re-lowered when ``layers`` (:meth:`repro.system.layers.Session.layers`:
        the armed layers and the tracer / registry / fault session / log
        their wrappers close over) has changed since the last replay."""
        cached = self._lowered.get(bool(layers))
        if cached is None or cached[0] != layers:
            by_head = {cmd: unit.lower(layers) for cmd, unit in self.fused_heads.items()}
            host_calls = list(by_head.values()) if layers else lower_serial(self.dispatch)
            cached = self._lowered[bool(layers)] = (layers, by_head, host_calls)
        return cached[1:]


def _member() -> None:
    """What the engine runs at a member command: its unit's head already did the work."""


class Plan:
    """A compiled schedule for one multi-GPU graph on one backend.

    The stream mapping, piece dependencies and task order are derived
    once in ``__init__``; the first ``execute()`` freezes them into a
    :class:`CompiledProgram` (queues, commands, events, per-step replay
    metadata), and every execution — including the first — replays that
    program.  A 1000-iteration solver loop therefore pays the graph and
    enqueue cost once, not per iteration.

    ``execute(mode="serial")`` replays on the host in task-list order
    (exact historical semantics); ``mode="parallel"`` hands the frozen
    queues to a :class:`~repro.system.ParallelEngine`, which runs one
    worker thread per device and honours only the recorded stream/event
    wiring.  The returned queues feed the DES either way.
    """

    def __init__(self, graph: DepGraph, backend: Backend, reuse_parent_streams: bool = True):
        self.graph = graph
        self.backend = backend
        self.reuse_parent_streams = reuse_parent_streams
        #: tri-state fusion override: None follows the process default
        #: (``fusion.FUSION.enabled``) at freeze time; set True/False
        #: before the first ``execute()`` to pin this plan either way
        self.fuse: bool | None = None
        self.levels = graph.bfs_levels(with_hints=False)
        self.num_streams = max(len(lvl) for lvl in self.levels)
        self.stream_of: dict[int, int] = {}
        self._assign_streams()
        self.order: list[GraphNode] = [n for lvl in graph.bfs_levels(with_hints=True) for n in lvl]
        self._nodes_by_uid: dict[int, GraphNode] = {n.uid: n for n in graph.nodes}
        self._halo_msgs: dict[int, list] = {
            n.uid: n.halo_field.halo_messages() for n in graph.nodes if n.kind is NodeKind.HALO
        }
        self._pieces: dict[int, list[PieceKey]] = {}
        self._empty: set[PieceKey] = set()
        self._build_pieces()
        self._raw_deps: dict[PieceKey, set[PieceKey]] = {}
        self._build_raw_deps()
        self._deps: dict[PieceKey, set[PieceKey]] = {}
        self._resolve_empty_pieces()
        self._program: CompiledProgram | None = None
        self._engine: ParallelEngine | None = None
        self._engine_lock = threading.Lock()

    # -- phase a: stream mapping ----------------------------------------------
    def _assign_streams(self) -> None:
        for li, level in enumerate(self.levels):
            used: set[int] = set()
            for node in level:
                choice = None
                if self.reuse_parent_streams:
                    # prefer a parent's stream: a same-stream dependency
                    # rides on FIFO order and needs no event (paper V-C a)
                    for p in self.graph.parents(node):
                        s = self.stream_of.get(p.uid)
                        if s is not None and s not in used:
                            choice = s
                            break
                if choice is None:
                    # round-robin ablation baseline when reuse is disabled
                    start = li % self.num_streams if not self.reuse_parent_streams else 0
                    choice = next(
                        (start + s) % self.num_streams
                        for s in range(self.num_streams)
                        if (start + s) % self.num_streams not in used
                    )
                self.stream_of[node.uid] = choice
                used.add(choice)

    # -- pieces -------------------------------------------------------------
    def _build_pieces(self) -> None:
        for node in self.graph.nodes:
            pieces: list[PieceKey] = []
            if node.kind is NodeKind.COMPUTE:
                for rank in range(self.backend.num_devices):
                    key = ("c", node.uid, rank)
                    pieces.append(key)
                    if node.container.index_data.span_for(rank, node.view).is_empty:
                        self._empty.add(key)
            else:
                msgs = self._halo_msgs[node.uid]
                for i in range(len(msgs)):
                    pieces.append(("h", node.uid, i))
                if not msgs:
                    # degenerate halo node (e.g. empty sparse boundary):
                    # represent it with empty per-rank pieces so deps flow
                    for rank in range(self.backend.num_devices):
                        key = ("c", node.uid, rank)
                        pieces.append(key)
                        self._empty.add(key)
            self._pieces[node.uid] = pieces

    def _queue_key(self, piece: PieceKey):
        kind, uid, idx = piece
        if kind == "c":
            node = self._node_by_uid(uid)
            if node.kind is NodeKind.HALO:  # degenerate empty halo piece
                return ("halo", uid, "none", idx)
            return ("stream", self.stream_of[uid], idx)
        msg = self._halo_msgs[uid][idx]
        direction = "up" if msg.dst_rank > msg.src_rank else "down"
        return ("halo", uid, direction, msg.src_rank)

    def _node_by_uid(self, uid: int) -> GraphNode:
        return self._nodes_by_uid[uid]

    # -- phase b: dependency wiring ----------------------------------------
    def _pairs_for_edge(self, a: GraphNode, b: GraphNode, scopes: set[Scope]):
        n = self.backend.num_devices
        a_halo = a.kind is NodeKind.HALO and self._halo_msgs[a.uid]
        b_halo = b.kind is NodeKind.HALO and self._halo_msgs[b.uid]
        if (a_halo or b_halo) and Scope.LOCAL in scopes:
            # defensive: a LOCAL-scoped edge touching a halo node should
            # not arise; if it ever does, couple both endpoints fully
            scopes = scopes | {Scope.HALO_SRC, Scope.HALO_DST}
        pairs: list[tuple[PieceKey, PieceKey]] = []
        if not a_halo and not b_halo:
            for r in range(n):
                pairs.append((("c", a.uid, r), ("c", b.uid, r)))
        elif b_halo and not a_halo:
            for i, msg in enumerate(self._halo_msgs[b.uid]):
                if Scope.HALO_SRC in scopes:
                    pairs.append((("c", a.uid, msg.src_rank), ("h", b.uid, i)))
                if Scope.HALO_DST in scopes:
                    pairs.append((("c", a.uid, msg.dst_rank), ("h", b.uid, i)))
        elif a_halo and not b_halo:
            for i, msg in enumerate(self._halo_msgs[a.uid]):
                if Scope.HALO_DST in scopes:
                    pairs.append((("h", a.uid, i), ("c", b.uid, msg.dst_rank)))
                if Scope.HALO_SRC in scopes:
                    pairs.append((("h", a.uid, i), ("c", b.uid, msg.src_rank)))
        else:  # halo -> halo: conservative full coupling
            for i in range(len(self._halo_msgs[a.uid])):
                for j in range(len(self._halo_msgs[b.uid])):
                    pairs.append((("h", a.uid, i), ("h", b.uid, j)))
        return pairs

    def _build_raw_deps(self) -> None:
        for node in self.graph.nodes:
            for piece in self._pieces[node.uid]:
                self._raw_deps.setdefault(piece, set())
        for a, b, _kinds, scopes in self.graph.data_edges():
            for dep, cons in self._pairs_for_edge(a, b, scopes):
                if dep in self._raw_deps.get(cons, set()):
                    continue
                self._raw_deps.setdefault(cons, set()).add(dep)

    def _resolve_empty_pieces(self) -> None:
        """Dependencies of an empty piece flow through to its consumers."""
        resolved: dict[PieceKey, set[PieceKey]] = {}
        for node in self.order:
            for piece in self._pieces[node.uid]:
                out: set[PieceKey] = set()
                for dep in self._raw_deps.get(piece, ()):
                    if dep in self._empty:
                        out |= resolved.get(dep, set())
                    else:
                        out.add(dep)
                resolved[piece] = out
        self._deps = resolved

    def dependencies(self, piece: PieceKey) -> set[PieceKey]:
        """Effective (non-empty) dependency pieces of a piece."""
        return set(self._deps.get(piece, ()))

    # -- compilation to a frozen program --------------------------------------
    @staticmethod
    def _make_kernel_fn(
        container: Container, rank: int, view: DataView, reduce_mode: ReduceMode, span
    ) -> Callable[[], None]:
        """Build the replayable kernel closure for one compute piece.

        The *loading* lambda runs inside the closure, per launch: scalar
        parameters flow into containers through mutable cells read at
        load time (see :mod:`repro.solvers.cg`), so freezing ``compute``
        itself would pin iteration-0 scalars forever.
        """

        def kernel() -> None:
            loader = Loader(rank=rank, view=view, reduce_mode=reduce_mode)
            compute = container.loading(loader)
            for piece in span.pieces():
                compute(piece)

        return kernel

    def _compile_program(self) -> CompiledProgram:
        """Freeze the schedule: queues, commands, events, replay steps.

        Runs once, lazily, on the first ``execute()``.  All queues are
        recorded (``eager=False``) — nothing computes here; the per-step
        metadata produced is what both replay modes consume.
        """
        stats = ScheduleStats(num_streams=self.num_streams)
        queues: dict[tuple, CommandQueue] = {}
        events: dict[PieceKey, Event] = {}
        steps: list[_Step] = []
        step_of: dict[Command, _Step] = {}

        # precompute which producer pieces need completion events
        needs_event: set[PieceKey] = set()
        for cons, deps in self._deps.items():
            if cons in self._empty:
                continue
            cq = self._queue_key(cons)
            for dep in deps:
                if self._queue_key(dep) != cq:
                    needs_event.add(dep)

        def get_queue(qkey) -> CommandQueue:
            if qkey not in queues:
                if qkey[0] == "stream":
                    _, sid, rank = qkey
                    name = f"s{sid}[{rank}]"
                else:
                    _, uid, direction, rank = qkey
                    name = f"h{uid}.{direction}[{rank}]"
                queues[qkey] = self.backend.new_queue(rank, name=name, eager=False)
            return queues[qkey]

        for node in self.order:
            for piece in self._pieces[node.uid]:
                if piece in self._empty:
                    continue
                qkey = self._queue_key(piece)
                q = get_queue(qkey)
                for dep in sorted(self._deps[piece], key=repr):
                    if self._queue_key(dep) == qkey:
                        stats.waits_skipped_same_queue += 1
                        continue
                    q.wait_event(events[dep])
                    stats.num_waits += 1
                kind, uid, idx = piece
                if kind == "c":
                    label = f"{node.name}[{idx}]"
                    cost = node.container.cost_for(idx, node.view)
                    virtual = bool(getattr(node.container.index_data, "virtual", False))
                    if virtual:
                        fn = lambda: None  # noqa: E731 - timing-only record
                    else:
                        fn = self._make_kernel_fn(
                            node.container,
                            idx,
                            node.view,
                            node.reduce_mode,
                            node.container.index_data.span_for(idx, node.view),
                        )
                    cmd = q.enqueue_kernel(label, fn, cost, container=None if virtual else node.container)
                    extra = {"container": node.container, "rank": idx, "virtual": virtual, "view": node.view}
                    stats.num_kernels += 1
                    stats.kernel_bytes += cost.bytes_moved
                    stats.kernel_flops += cost.flops
                else:
                    msg = self._halo_msgs[uid][idx]
                    # node uid disambiguates repeated halo updates of one field
                    name = f"{msg.name}#{uid}"
                    cmd = q.enqueue_copy(
                        name,
                        msg.fn,
                        self.backend.device(msg.src_rank),
                        self.backend.device(msg.dst_rank),
                        msg.nbytes,
                    )
                    extra = {"msg": msg, "halo_field": node.halo_field}
                    stats.num_copies += 1
                    stats.copy_bytes += msg.nbytes
                pid, site, _ = _layers.describe(cmd, q)
                step = _Step(kind=cmd.kind, queue=q, label=cmd.name, pid=pid, site=site, command=cmd, **extra)
                steps.append(step)
                step_of[cmd] = step
                if piece in needs_event:
                    ev = Event(f"{node.name}:{idx}")
                    q.record_event(ev)
                    events[piece] = ev
                    stats.num_events += 1

        return CompiledProgram(
            queues=list(queues.values()), steps=steps, step_of=step_of, events=events, stats=stats
        )

    def _ensure_program(self) -> CompiledProgram:
        if self._program is None:
            with _obs.span("plan.compile_program", cat="phase"):
                program = self._compile_program()
                with _obs.span("plan.fuse_program", cat="phase"):
                    fuse_program(program, FUSION.enabled if self.fuse is None else self.fuse)
                self._program = program
        return self._program

    # -- replay ----------------------------------------------------------------
    def _replay_parallel(self, program: CompiledProgram, runners: dict[Command, Callable[[], None]]) -> None:
        """Engine replay: one worker per device, event-wired synchronisation.

        Commands are batched by unit: the head command runs the whole
        unit, member commands have no runner and are no-ops at their
        original positions (their event records stay in place, so
        signals still fire only after the batched work completed at or
        before head position).
        """
        if self._engine is None:
            # double-checked: two threads replaying one plan concurrently
            # must share a single engine, whose batch lock then serialises
            # their replays — two engines would race each other's event
            # signal resets mid-batch (caught by the replay stress test)
            with self._engine_lock:
                if self._engine is None:
                    self._engine = ParallelEngine()
        self._engine.execute(program.queues, run_command=lambda cmd: runners.get(cmd, _member)())

    def close_engines(self) -> None:
        """Retire this plan's parallel engine deterministically (idempotent).

        Worker threads are daemons, so skipping this is safe — but
        long-lived drivers and test teardown should call it under
        ``try/finally`` so idle workers never outlive the plan they
        serve.  The plan stays usable: the next replay lazily builds a
        fresh engine.
        """
        with self._engine_lock:
            engine, self._engine = self._engine, None
        if engine is not None:
            engine.close()

    # -- phase c: execution -----------------------------------------------------
    def execute(self, eager: bool = True, mode: str = "serial") -> ExecutionResult:
        """Replay the compiled program (freezing it on first use).

        ``eager=False`` returns the recorded queues without running any
        kernel (timing-only).  ``mode="serial"`` replays on the host in
        task-list order; ``mode="parallel"`` uses the per-device worker
        thread engine; any other value raises ``ValueError``.  The armed
        layers are read once, here; a fault raised in a parallel worker
        aborts the batch and re-raises on the host, where recovery takes
        it from.
        """
        if mode not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}")
        with _obs.span("plan.execute", cat="phase", eager=eager, mode=mode):
            program = self._ensure_program()
            if eager:
                runners, host_calls = program.runners(self.backend.session.layers())
                with _obs.span(f"plan.replay.{mode}", cat="phase") as sp:
                    if mode == "parallel":
                        self._replay_parallel(program, runners)
                    else:
                        # host order: each unit at its head's task-list position,
                        # which the fusion legality rules prove order-equivalent
                        for run in host_calls:
                            run()
                if sp is not None:
                    m = _obs.OBS.metrics
                    m.counter("plan_replays", mode=mode).inc()
                    m.histogram("replay_seconds", mode=mode).observe(sp.duration)
            return ExecutionResult(queues=list(program.queues), stats=program.stats, plan=self)
