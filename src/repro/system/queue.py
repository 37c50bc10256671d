"""Queue-based runtime model: commands, events and command queues.

This is the System-level contract the paper requires from any back end
(section IV-A): asynchronous command queues per device (CUDA streams) and
events to inject cross-queue dependencies (CUDA events).

Three consumers share these objects, and the contract between them is
worth spelling out:

* the *eager* functional path runs each kernel/copy inline at enqueue
  time (the host issues commands in a dependency-respecting order,
  exactly as the Skeleton's ordered task list guarantees in the paper),
  under the layers armed at that moment (:mod:`repro.system.layers`).
  Events are pure markers here — the host order already serialises
  everything;
* the *recorded* path (``eager=False``) appends commands without running
  them.  The timing simulator (:mod:`repro.sim.des`) replays recorded
  queues against a machine model, honouring only stream FIFO order and
  event waits — which is also how the schedule validity checker proves
  the generated synchronisation is sufficient;
* the *parallel engine* (:mod:`repro.system.engine`) replays recorded
  queues with one worker thread per device.  Here
  :class:`RecordEventCommand` / :class:`WaitEventCommand` become real
  cross-thread synchronisation through each event's ``signal()`` /
  ``wait_signal()`` runtime state, so a correct result is a live proof
  that the stream/event wiring alone enforces every dependency.

Because the engine shares command objects across threads, the process-
global uid counters (event uids, queue uids, ``Command.issue_seq``) are
lock-guarded rather than bare ``itertools.count`` iterators, and each
:class:`Event` carries a resettable :class:`threading.Event` runtime
flag alongside its one-shot *recording* metadata: recording (which queue
position defines completion) happens once when a schedule is frozen;
signalling happens once per replay and is cleared by ``reset_signal()``
before the next one.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from . import layers as _layers
from .device import Device


class _SeqCounter:
    """A thread-safe monotonically increasing counter.

    Commands and events are created from worker threads once the parallel
    engine exists (e.g. Set-level code recording from a callback), so the
    process-global sequence counters must not rely on the atomicity of
    any particular ``itertools.count`` implementation.
    """

    __slots__ = ("_lock", "_next")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def __next__(self) -> int:
        with self._lock:
            value = self._next
            self._next = value + 1
            return value


_event_ids = _SeqCounter()
_queue_ids = _SeqCounter()


class Event:
    """A one-shot synchronisation marker, recorded into one queue.

    Mirrors a CUDA event restricted to single recording, which is all the
    Skeleton scheduler needs (it records one completion event per task
    when a schedule is frozen).

    Recording and signalling are distinct lifecycles.  *Recording* is
    one-shot schedule metadata: which queue position defines completion.
    The *signal* is replay-time runtime state, backed by a
    :class:`threading.Event` so the parallel engine's worker threads can
    block on cross-device dependencies; a compiled plan resets every
    signal (``reset_signal()``) at the start of each replay and the
    recording queue's worker sets it (``signal()``) when the record
    command retires.
    """

    def __init__(self, name: str = ""):
        self.uid = next(_event_ids)
        self.name = name or f"ev{self.uid}"
        self.recorded_in: CommandQueue | None = None
        self.record_position: int | None = None
        self._signal = threading.Event()

    @property
    def is_recorded(self) -> bool:
        return self.recorded_in is not None

    def signal(self) -> None:
        """Mark the event complete for the current replay (thread-safe)."""
        self._signal.set()

    def wait_signal(self, timeout: float | None = None) -> bool:
        """Block until the event is signalled; False on timeout."""
        return self._signal.wait(timeout)

    def reset_signal(self) -> None:
        """Clear runtime completion state so the event can be replayed."""
        self._signal.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = f"@{self.recorded_in.name}[{self.record_position}]" if self.is_recorded else "(unrecorded)"
        return f"Event({self.name}{where})"


@dataclass(frozen=True)
class KernelCost:
    """Inputs to the roofline-style kernel duration model.

    ``bytes_moved`` is the total DRAM traffic of the kernel on its device,
    ``flops`` its arithmetic work, ``indirection`` a multiplier (>1) for
    gather/scatter-heavy access such as the element-sparse connectivity
    walk, and ``launches`` the number of hardware launches folded into the
    command (normally 1).
    """

    bytes_moved: float
    flops: float = 0.0
    indirection: float = 1.0
    launches: int = 1

    def __post_init__(self) -> None:
        if self.bytes_moved < 0 or self.flops < 0 or self.indirection < 1.0 or self.launches < 1:
            raise ValueError(f"invalid KernelCost: {self}")


_issue_counter = _SeqCounter()


class Command:
    """Base class for queue entries.

    ``issue_seq`` is the host-side enqueue order across all queues; the
    simulator uses it to break resource-contention ties the way hardware
    FIFO dispatch would — which is what lets the Skeleton's task-list
    order (and thus the OCC scheduling hints) take effect.  The parallel
    engine relies on the same property: merging one device's queues in
    ``issue_seq`` order reproduces the host task list projected onto
    that device, and because every event record precedes its waits in
    host order, per-device issue order is deadlock-free by construction.
    """

    __slots__ = ("name", "issue_seq")

    def __init__(self, name: str):
        self.name = name
        self.issue_seq = next(_issue_counter)


class KernelCommand(Command):
    """A device kernel launch: runs ``fn`` and costs ``cost`` in the model.

    ``container`` is the Container a real (non-virtual) launch runs: the
    resilience layer corrupts one of its written fields after the kernel.
    """

    __slots__ = ("fn", "cost", "container")
    kind = "kernel"

    def __init__(self, name: str, fn: Callable[[], None], cost: KernelCost, container=None):
        super().__init__(name)
        self.fn = fn
        self.cost = cost
        self.container = container


class CopyCommand(Command):
    """A DMA transfer between two devices (or host<->device)."""

    __slots__ = ("fn", "src", "dst", "nbytes")
    kind = "copy"

    def __init__(self, name: str, fn: Callable[[], None], src: Device, dst: Device, nbytes: int):
        super().__init__(name)
        if nbytes < 0:
            raise ValueError("negative transfer size")
        self.fn = fn
        self.src = src
        self.dst = dst
        self.nbytes = nbytes


class RecordEventCommand(Command):
    """Marks an event complete once all prior commands in the queue finish."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        super().__init__(f"record:{event.name}")
        self.event = event


class WaitEventCommand(Command):
    """Blocks the queue until the awaited event's record has completed."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        super().__init__(f"wait:{event.name}")
        self.event = event


class CommandQueue:
    """An in-order asynchronous queue bound to one device (a stream)."""

    def __init__(self, device: Device, name: str = "", eager: bool = True, session: _layers.Session | None = None):
        self.device = device
        self.uid = next(_queue_ids)
        self.name = name or f"q{self.uid}"
        self.eager = eager
        #: what is armed on the backend that created this queue
        self.session = session if session is not None else _layers.Session()
        self.commands: list[Command] = []

    def enqueue_kernel(self, name: str, fn: Callable[[], None], cost: KernelCost, container=None) -> KernelCommand:
        cmd = KernelCommand(name, fn, cost, container)
        self.commands.append(cmd)
        if self.eager:
            _layers.lower(cmd, self, self.session.layers())()
        return cmd

    def enqueue_copy(
        self, name: str, fn: Callable[[], None], src: Device, dst: Device, nbytes: int, halo: bool = False
    ) -> CopyCommand:
        """Enqueue a copy; run at once on an eager queue, a ``halo`` copy
        there also counting as a halo message (see ``layers.lower``)."""
        cmd = CopyCommand(name, fn, src, dst, nbytes)
        self.commands.append(cmd)
        if self.eager:
            _layers.lower(cmd, self, self.session.layers(), halo=halo)()
        return cmd

    def record_event(self, event: Event) -> RecordEventCommand:
        if event.is_recorded:
            raise RuntimeError(f"{event!r} already recorded; events are one-shot")
        cmd = RecordEventCommand(event)
        self.commands.append(cmd)
        event.recorded_in = self
        event.record_position = len(self.commands) - 1
        return cmd

    def wait_event(self, event: Event) -> WaitEventCommand:
        cmd = WaitEventCommand(event)
        self.commands.append(cmd)
        return cmd

    def __len__(self) -> int:
        return len(self.commands)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CommandQueue({self.name}, dev={self.device.index}, {len(self)} cmds)"
