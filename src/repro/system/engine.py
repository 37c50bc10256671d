"""Concurrent functional execution: worker threads, each serving a block of devices.

The functional plane historically ran every kernel inline on the host in
task-list order — correct, but serial, so ``run()`` wall-clock scaled
with total work rather than with the critical path the paper's OCC
schedules are designed to shorten.  This module replays *recorded*
command queues on ``min(devices, usable_cpu_count())`` worker threads (NumPy
and generated-C kernels release the GIL, the standard parallelism
mechanism in NumPy-backed runtimes), turning ``RecordEventCommand`` /
``WaitEventCommand`` into real cross-thread synchronisation.  Devices map
onto workers in contiguous blocks: slab neighbours share a worker, so
most halo events never cross a thread, and more threads than cores would
only hand one GIL back and forth.

The engine honours exactly the stream/event wiring:

* all queues of one worker's devices are merged into a single program
  ordered by ``Command.issue_seq`` (the host task-list order projected
  onto those devices — this mirrors the DES machine model, which also
  serialises kernels through one compute engine per device);
* a ``WaitEventCommand`` blocks the worker until the event's signal is
  set; a ``RecordEventCommand`` sets it; kernel and copy commands run
  through a caller-supplied ``run_command`` callback (default: call the
  command's ``fn``).

Fused replay (:mod:`repro.skeleton.fusion`) batches dispatch through
this same callback: the Plan's ``run_command`` executes a whole fused
unit when the engine reaches the unit's *head* command and treats the
remaining member commands as no-ops at their original positions.  The
engine itself needs no special casing — member commands still occupy
their slots in the per-device program, so every interleaved wait and
record executes exactly where the recording placed it, and the
preflight/watchdog deadlock checks see the unmodified wiring.  The
contract the fusion pass upholds is that no wait sits between a unit's
members on their queue, which makes running the unit early (at head
position) indistinguishable, dependency-wise, from running the members
at their own positions.

No host-order crutch is consulted between devices, so a bitwise-correct
parallel run is a live proof that the Plan's synchronisation alone
enforces every dependency — the executor's checker claim
(:func:`repro.skeleton.executor.check_trace_dependencies`), exercised
for real.

Deadlock-freedom within the supported usage: the Skeleton enqueues in a
topological order where every event record precedes all of its waits in
``issue_seq``; take the blocked wait with the smallest ``issue_seq`` —
its record has a smaller seq on another device, whose worker must then
be blocked at an even smaller wait, a contradiction.  Hand-built
schedules that violate record-before-wait host order are rejected by a
pre-flight check (waits on events never recorded in the batch, or
recorded only after the wait in issue order — on one worker that wait
could never retire, and how many workers there are is the machine's
business, not the schedule's); the watchdog timeout is the backstop.
"""

from __future__ import annotations

import os
import queue as _queue
import threading
from collections.abc import Callable
from time import perf_counter

from repro import observability as _obs
from repro.modes import EXECUTION_MODES  # noqa: F401  (re-exported)
from repro.observability import flight as _flight

from . import layers as _layers
from .queue import Command, CommandQueue, RecordEventCommand, WaitEventCommand


def usable_cpu_count() -> int:
    """CPU cores this process may run on (affinity-aware, unlike ``os.cpu_count()``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class EngineDeadlock(RuntimeError):
    """A worker blocked on an event that can no longer be signalled."""


class _Worker:
    """A persistent thread draining a job inbox.

    Jobs are zero-argument callables that never raise (the engine wraps
    each batch so errors are collected and the completion latch is
    always released); ``None`` is the shutdown sentinel.
    """

    def __init__(self, name: str):
        self.inbox: _queue.SimpleQueue = _queue.SimpleQueue()
        self.thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        while True:
            job = self.inbox.get()
            if job is None:
                return
            job()
            # drop the closure before blocking on the next get(): a live
            # thread frame is a GC root, and the job chains to commands,
            # kernel closures, fields and ultimately every device
            # payload — holding it would pin all of that for as long as
            # this idle worker exists
            del job

    def submit(self, job: Callable[[], None]) -> None:
        self.inbox.put(job)

    def stop(self) -> None:
        self.inbox.put(None)


class ParallelEngine:
    """Replays recorded command queues on up to :func:`usable_cpu_count` worker threads.

    Workers are *persistent*: the first replay that needs a worker slot
    spawns its thread, and every later replay reuses it, so a
    1000-iteration loop pays thread-creation cost once (the same
    amortisation the compiled replay plans give the graph cost).  Keep
    one engine and reuse it across replays of the same (or different)
    queue sets; ``close()`` retires the workers (daemon threads, so
    skipping it merely leaves idle threads until process exit).

    Parameters
    ----------
    deadlock_timeout:
        Seconds a worker may block on one event before the replay is
        declared deadlocked.  Generous by default — it is a watchdog for
        broken hand-built schedules, not a pacing mechanism.
    """

    def __init__(self, deadlock_timeout: float = 30.0):
        if deadlock_timeout <= 0:
            raise ValueError("deadlock_timeout must be positive")
        self.deadlock_timeout = deadlock_timeout
        self._workers: dict[int, _Worker] = {}
        self._batch_lock = threading.Lock()  # one batch in flight per engine

    def execute(
        self,
        queues: list[CommandQueue],
        run_command: Callable[[Command], None] | None = None,
    ) -> None:
        """Run every command of ``queues`` on the worker threads.

        ``run_command`` receives each :class:`KernelCommand` /
        :class:`CopyCommand` (event commands are handled by the engine);
        when omitted each command's own ``fn`` runs under the layers
        armed on its queue's backend at this call.  Exceptions in any worker
        abort the replay and re-raise in the calling thread.
        """
        programs = self._build_programs(queues)
        if not programs:
            return
        if run_command is None:
            armed = [(q, q.session.layers()) for q in queues]
            runners = {c: _layers.lower(c, q, on) for q, on in armed for c in q.commands if hasattr(c, "fn")}
            run_command = lambda cmd: runners[cmd]()  # noqa: E731 - a command kind without ``fn`` fails loudly
        log = queues[0].session.log  # a batch replays one backend's queues
        t0 = perf_counter() if _obs.OBS.active else 0.0

        abort = threading.Event()
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        done = threading.Semaphore(0)

        def make_job(program: list[Command]) -> Callable[[], None]:
            def job() -> None:
                try:
                    for cmd in program:
                        if abort.is_set():
                            break
                        self._step(cmd, run_command, abort, log)
                except BaseException as exc:  # noqa: BLE001 - propagated to caller
                    with errors_lock:
                        errors.append(exc)
                    abort.set()
                finally:
                    done.release()

            return job

        # The event-signal reset MUST happen inside the batch lock: a
        # concurrent replay of the same compiled program through this
        # engine would otherwise clear signals the in-flight batch has
        # already set, stranding its waiters until the watchdog fires
        # (pinned down by tests/system/test_event_replay_stress.py).
        # The single-device inline path holds the lock for the same
        # reason — its commands share the batch's event objects.
        with self._batch_lock:
            self._reset_and_check_events(programs)
            if len(programs) == 1:
                # one worker's worth (a single device, or a one-CPU host): no
                # cross-thread dependencies are possible, run inline and
                # keep the exception story trivial
                for cmd in next(iter(programs.values())):
                    self._step(cmd, run_command, None, log)
                self._observe_batch(t0, queues)
                return
            for slot, program in programs.items():
                self._worker(slot).submit(make_job(program))
            for _ in programs:
                done.acquire()
        if errors:
            raise errors[0]
        self._observe_batch(t0, queues)

    def close(self) -> None:
        """Retire every persistent worker thread (idempotent)."""
        with self._batch_lock:
            workers, self._workers = self._workers, {}
        for w in workers.values():
            w.stop()
        for w in workers.values():
            w.thread.join()

    # -- internals ----------------------------------------------------------
    @staticmethod
    def _observe_batch(t0: float, queues: list[CommandQueue]) -> None:
        """Record one successful batch replay into the metrics registry."""
        if not _obs.OBS.active:
            return
        m = _obs.OBS.metrics
        devices = str(len({q.device.uid for q in queues}))
        m.counter("engine_batches", devices=devices).inc()
        m.histogram("engine_batch_seconds", devices=devices).observe(perf_counter() - t0)

    def _worker(self, slot: int) -> _Worker:
        w = self._workers.get(slot)
        if w is None:
            w = self._workers[slot] = _Worker(f"engine-w{slot}")
        return w

    @staticmethod
    def _build_programs(queues: list[CommandQueue]) -> dict[int, list[Command]]:
        """Worker slot -> the issue-ordered program of its block of devices."""
        devices = sorted({q.device.uid for q in queues})
        workers = min(len(devices), usable_cpu_count())
        slot_of = {uid: i * workers // len(devices) for i, uid in enumerate(devices)}
        programs: dict[int, list[Command]] = {}
        for q in queues:
            programs.setdefault(slot_of[q.device.uid], []).extend(q.commands)
        for program in programs.values():
            program.sort(key=lambda cmd: cmd.issue_seq)
        return programs

    @staticmethod
    def _reset_and_check_events(programs: dict[int, list[Command]]) -> None:
        """Reset every event signal and reject waits that could never retire."""
        recorded: dict[int, int] = {}  # event uid -> issue seq of its record
        waits: list[Command] = []
        for program in programs.values():
            for cmd in program:
                if isinstance(cmd, RecordEventCommand):
                    cmd.event.reset_signal()
                    recorded[cmd.event.uid] = cmd.issue_seq
                elif isinstance(cmd, WaitEventCommand):
                    waits.append(cmd)
        missing = [cmd for cmd in waits if recorded.get(cmd.event.uid, cmd.issue_seq) >= cmd.issue_seq]
        if missing:
            names = ", ".join(cmd.name for cmd in missing[:5])
            _flight.record("host", "deadlock", "engine.preflight", {"missing_waits": names})
            _flight.dump("engine_deadlock", {"stage": "preflight", "missing": len(missing)})
            raise EngineDeadlock(
                f"{len(missing)} wait(s) on events never recorded in this batch, or recorded "
                f"after the wait in issue order ({names}); the replay would block forever"
            )

    def _step(self, cmd: Command, run_command: Callable[[Command], None], abort: threading.Event | None, log) -> None:
        if isinstance(cmd, WaitEventCommand):
            deadline = self.deadlock_timeout
            # poll in short slices so an abort elsewhere unblocks us promptly
            while not cmd.event.wait_signal(0.05):
                if abort is not None and abort.is_set():
                    return
                deadline -= 0.05
                if deadline <= 0:
                    worker = threading.current_thread().name
                    _flight.record(worker, "deadlock", cmd.name, {"timeout": self.deadlock_timeout})
                    _flight.dump("engine_deadlock", {"stage": "watchdog", "command": cmd.name})
                    raise EngineDeadlock(
                        f"worker stalled {self.deadlock_timeout:.0f}s on {cmd.name}; "
                        "the recording queue made no progress"
                    )
            if log is not None:
                log.record(cmd, "wait")
        elif isinstance(cmd, RecordEventCommand):
            cmd.event.signal()
            if log is not None:
                log.record(cmd, "signal")
        else:
            run_command(cmd)
