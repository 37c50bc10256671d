"""Flight recorder: always-on bounded ring of recent runtime events.

Post-mortems used to require "re-run with tracing enabled" — useless
when the failure was a once-in-a-thousand injected device loss or an
engine deadlock three hours into a serving run.  The flight recorder
fixes that by keeping the last :data:`FlightRecorder.DEFAULT_CAPACITY`
events *per track* (one track per device, plus ``host``) in fixed-size
ring buffers, **always**, independent of the ``OBS.active`` switch.  A
ring append is one tuple construction plus one ``deque.append`` — cheap
enough to leave on unconditionally while still honouring the <2%
disabled-overhead CI bound (the overhead test accounts for it).

When the runtime hits a terminal failure — :class:`ResilientDriver`
exhausts its retry/rollback budget, the parallel engine raises
``EngineDeadlock``, or the sanitizer reports happens-before violations —
the instrumented site calls :func:`dump`, which writes a
``FLIGHT_<reason>_<seq>.json`` artifact with every surviving ring event,
newest last.  The artifact is what CI uploads and what a human opens
first.

Event shape (one tuple per ring slot, JSON-ified on dump)::

    (seq, kind, name, detail)

``seq`` is a process-global monotonic ordinal so events from different
tracks can be interleaved into one timeline; ``kind`` is one of
``kernel | copy | fused | program | wait | fault | violation | deadlock |
rollback | degrade | note`` (``program``: one C call running a
whole run of op-table units, named ``<first site>+<n>ops``); ``detail``
is a small dict (site key, ranks, bytes, attempt number...) or ``None``.

Like the rest of this package, the module imports no other ``repro``
modules; instrumented sites import it lazily.
"""

from __future__ import annotations

import json
import os
from collections import deque

__all__ = ["FLIGHT", "FlightRecorder", "record", "dump", "reset"]


class FlightRecorder:
    """Per-track bounded ring buffers plus the dump machinery.

    Slotted, like ``_ObsState``: the hot path is :meth:`record`;
    everything else is cold.
    """

    __slots__ = ("capacity", "dump_dir", "tracks", "records", "dumps", "_seq")

    DEFAULT_CAPACITY = 64

    def __init__(self, capacity: int = DEFAULT_CAPACITY, dump_dir: str = ".") -> None:
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.tracks: dict[str, deque] = {}
        self.records = 0  # plain int, counted against the overhead budget
        self.dumps: list[str] = []
        self._seq = 0

    # -- hot path ----------------------------------------------------------
    def record(self, track: str, kind: str, name: str, detail: dict | None = None) -> None:
        """Append one event to ``track``'s ring (oldest slot evicted)."""
        ring = self.tracks.get(track)
        if ring is None:
            ring = self.tracks[track] = deque(maxlen=self.capacity)
        self._seq += 1
        self.records += 1
        ring.append((self._seq, kind, name, detail))

    # -- cold path ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able view of every ring, events interleaved per track."""
        return {
            track: [
                {"seq": seq, "kind": kind, "name": name, **({"detail": detail} if detail else {})}
                for seq, kind, name, detail in ring
            ]
            for track, ring in sorted(self.tracks.items())
        }

    def kind_counts(self) -> dict[str, int]:
        """Surviving ring events tallied by kind, across all tracks.

        Only what the rings still hold (capacity-bounded), so this is a
        recent-history summary, not a lifetime counter — chaos reports
        pair it with ``events_recorded`` for the total.
        """
        counts: dict[str, int] = {}
        for ring in self.tracks.values():
            for _seq, kind, _name, _detail in ring:
                counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def dump(self, reason: str, context: dict | None = None) -> str:
        """Write ``FLIGHT_<reason>_<n>.json`` and return its path."""
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in reason) or "unknown"
        path = os.path.join(self.dump_dir, f"FLIGHT_{safe}_{len(self.dumps)}.json")
        doc = {
            "schema": "repro-flight/1",
            "reason": reason,
            "context": context or {},
            "capacity": self.capacity,
            "events_recorded": self.records,
            "tracks": self.snapshot(),
        }
        os.makedirs(self.dump_dir, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        self.dumps.append(path)
        return path

    def reset(self) -> None:
        self.tracks.clear()
        self.records = 0
        self.dumps.clear()
        self._seq = 0


FLIGHT = FlightRecorder()
"""The process-global recorder; it is always on."""


def record(track: str, kind: str, name: str, detail: dict | None = None) -> None:
    """Module-level convenience: append one event to :data:`FLIGHT`."""
    FLIGHT.record(track, kind, name, detail)


def dump(reason: str, context: dict | None = None) -> str:
    """Dump the rings to a ``FLIGHT_*.json`` artifact; return its path."""
    return FLIGHT.dump(reason, context)


def reset() -> None:
    """Drop all rings and dump bookkeeping (used by the test fixture)."""
    FLIGHT.reset()
