"""The sanitizer's execution log, and the scope that arms it on one backend.

Like :mod:`repro.observability`, this module is stdlib-only and imports
nothing from ``repro``.  A log sits in the ``session`` slot of the
:class:`~repro.system.Backend` that :func:`recording` armed, so the hot
runtime paths (scheduler replay, the parallel engine's workers, eager
queues) guard on a single attribute read — ``session.log`` — of their own
backend, without import cycles or measurable disabled overhead.  The
heavy analysis modules (:mod:`repro.sanitizer.detector`,
:mod:`repro.sanitizer.mutate`) live downstream and are only imported by
the CLI and tests.

The log records *what actually executed*, in completion order per
recording thread: one entry per retired kernel/copy command plus the
event signal/wait operations the parallel engine performs.  The
detector's happens-before analysis works on the static queue wiring; the
log adds the dynamic half — coverage (every compiled command really ran)
and which replay mode produced the run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class ExecRecord:
    """One retired operation of a sanitized run."""

    seq: int  # global completion order (log append order)
    thread: int  # ident of the executing thread
    op: str  # "run" | "signal" | "wait"
    command: object  # the Command (or Event for signal/wait ops)


class ExecLog:
    """The retired operations of one recording scope (thread-safe)."""

    __slots__ = ("_lock", "_log")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._log: list[ExecRecord] = []

    def record(self, command: object, op: str = "run") -> None:
        """Append one retired operation (called from engine workers too)."""
        with self._lock:
            self._log.append(ExecRecord(len(self._log), threading.get_ident(), op, command))

    def drain(self) -> list[ExecRecord]:
        """Return and clear the accumulated log."""
        with self._lock:
            log, self._log = self._log, []
            return log

    def __len__(self) -> int:
        with self._lock:
            return len(self._log)


def recording(backend):
    """Context manager logging what ``backend`` — and nothing else — executes
    inside the block; yields the :class:`ExecLog` (``drain()`` it after)."""
    return backend.session.arm("log", ExecLog())
