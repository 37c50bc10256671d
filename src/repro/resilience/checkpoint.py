"""Checkpoint/restore of Field state for rollback-and-replay recovery.

A checkpoint snapshots each field as its *global* array (via
``Field.to_numpy``) plus an optional dict of host-side scalars.  Storing
global arrays — rather than per-device buffers — is what makes one
checkpoint serve both recovery modes:

* **rollback**: restore into the same fields after a failed or
  corrupted step, then replay;
* **migration**: restore into freshly-built fields on a *different*
  (degraded) backend, because ``Field.load_numpy`` re-scatters the
  global array across whatever slab decomposition the field now has.

Checkpoints are **verified**: every array carries a CRC32 checksum taken
at capture time, and :meth:`Checkpoint.restore` re-hashes before writing
a single byte into live fields — a flipped bit in a stored snapshot
raises a typed :class:`~repro.resilience.errors.CheckpointCorrupt`
instead of being silently resurrected.  :class:`CheckpointStore` keeps
the last K generations so rollback itself is fault-tolerant: when the
newest generation fails verification, restore falls back to the next
older one.
"""

from __future__ import annotations

import copy
import zlib

import numpy as np

from repro import observability as _obs

from .errors import CheckpointCorrupt

#: integrity/layout revision of the in-memory checkpoint format
CHECKPOINT_SCHEMA = "repro-checkpoint/2"


def _crc(arr: np.ndarray) -> int:
    """CRC32 of the array payload (C-contiguous view, cheap at MB scale)."""
    return zlib.crc32(np.ascontiguousarray(arr).view(np.uint8).reshape(-1))


class Checkpoint:
    """An immutable snapshot of field state at one step index."""

    def __init__(self, step: int, arrays: list[tuple[str, np.ndarray]], scalars: dict):
        self.step = step
        self.arrays = arrays
        self.scalars = scalars
        self.schema = CHECKPOINT_SCHEMA
        self.checksums: dict[str, int] = {name: _crc(arr) for name, arr in arrays}

    @classmethod
    def capture(cls, fields, scalars: dict | None = None, step: int = 0) -> "Checkpoint":
        """Snapshot ``fields`` (and deep-copied ``scalars``) at ``step``."""
        with _obs.span("resilience.checkpoint", cat="resilience", step=step):
            arrays = [(f.name, f.to_numpy().copy()) for f in fields]
        ck = cls(step, arrays, copy.deepcopy(scalars or {}))
        if _obs.OBS.active:
            m = _obs.OBS.metrics
            m.counter("checkpoints").inc()
            m.counter("checkpoint_bytes").inc(ck.nbytes)
        return ck

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for _, a in self.arrays)

    def header(self) -> dict:
        """JSON-able schema header: layout + integrity metadata.

        This is what an on-disk serialisation would prepend, and what
        post-mortems embed so a human can see which snapshot a rollback
        actually used.
        """
        return {
            "schema": self.schema,
            "step": self.step,
            "fields": [
                {
                    "name": name,
                    "shape": list(arr.shape),
                    "dtype": str(arr.dtype),
                    "nbytes": int(arr.nbytes),
                    "crc32": self.checksums[name],
                }
                for name, arr in self.arrays
            ],
            "scalars": sorted(self.scalars),
        }

    def verify(self) -> list[str]:
        """Names of arrays whose bytes no longer match their checksum."""
        return [name for name, arr in self.arrays if _crc(arr) != self.checksums[name]]

    def restore(self, fields, generation: int = 0) -> dict:
        """Verify the snapshot, then write it back into ``fields``.

        Fields are matched positionally and must carry the same names as
        at capture time; the target fields may live on a different
        backend (migration after device loss).  ``fields`` may also be a
        callable that takes the snapshot's (copied) scalars and returns
        the targets, called once the snapshot verifies: an application
        whose checkpointed fields depend on its loop state (twoPop's live
        population is ``f[parity]``) adopts the scalars there, so the
        snapshot names its own targets (:func:`restore_targets`).  Raises
        :class:`CheckpointCorrupt` — without touching any live field or
        calling ``fields`` — when an array fails its checksum.
        """
        bad = self.verify()
        if bad:
            if _obs.OBS.active:
                _obs.OBS.metrics.counter("checkpoint_corruptions").inc()
            raise CheckpointCorrupt(bad, self.step, generation)
        scalars = copy.deepcopy(self.scalars)
        if callable(fields):
            fields = fields(scalars)
        if len(fields) != len(self.arrays):
            raise ValueError(
                f"checkpoint holds {len(self.arrays)} fields but {len(fields)} were passed"
            )
        with _obs.span("resilience.restore", cat="resilience", step=self.step):
            for field, (name, arr) in zip(fields, self.arrays):
                if field.name != name:
                    raise ValueError(f"checkpoint field '{name}' does not match target '{field.name}'")
                field.load_numpy(arr)
        if _obs.OBS.active:
            _obs.OBS.metrics.counter("checkpoint_restores").inc()
        return scalars

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(n for n, _ in self.arrays)
        return f"Checkpoint(step={self.step}, fields=[{names}], {self.nbytes} B)"


def restore_targets(app):
    """The targets of restoring a checkpoint into a driver-protocol ``app``.

    The app adopts the snapshot's scalars (``on_restore``) *before* it
    names its ``fields()``, so an app whose checkpointed fields depend on
    its loop state gets the snapshot's own: a twoPop checkpoint taken at
    parity 1 holds ``f1`` and restores into ``f1`` of an app at parity 0.
    """

    def targets(scalars: dict) -> list:
        if hasattr(app, "on_restore"):
            app.on_restore(scalars)
        return app.fields()

    return targets


class CheckpointStore:
    """The last K checkpoint generations, newest first.

    One corrupted snapshot must not take recovery down with it: restore
    walks the generations newest-to-oldest, discarding any that fail
    verification, and only gives up — with the *newest* generation's
    :class:`CheckpointCorrupt` — when every stored snapshot is bad.
    """

    def __init__(self, keep: int = 3):
        if keep < 1:
            raise ValueError("a checkpoint store must keep at least one generation")
        self.keep = keep
        self._generations: list[Checkpoint] = []  # newest first
        #: restores that had to skip at least one corrupt generation
        self.fallbacks = 0
        #: generations discarded because they failed verification
        self.corrupt_dropped = 0
        #: generation index actually used by each successful restore
        self.restore_depths: list[int] = []

    def __len__(self) -> int:
        return len(self._generations)

    @property
    def latest(self) -> Checkpoint | None:
        return self._generations[0] if self._generations else None

    @property
    def max_restore_depth(self) -> int:
        return max(self.restore_depths, default=0)

    def push(self, ckpt: Checkpoint) -> None:
        """Add a new newest generation, evicting beyond ``keep``."""
        self._generations.insert(0, ckpt)
        del self._generations[self.keep :]

    def generations(self) -> list[Checkpoint]:
        return list(self._generations)

    def restore_latest_valid(self, fields) -> tuple[Checkpoint, dict, int]:
        """Restore the newest generation that passes verification.

        ``fields`` is what :meth:`Checkpoint.restore` takes: the targets,
        or a callable choosing them from the restoring generation's
        scalars (:func:`restore_targets`).  Returns ``(checkpoint,
        scalars, generation_index)``; corrupt generations are dropped from
        the store (they can never restore) and counted in
        :attr:`corrupt_dropped`.
        """
        if not self._generations:
            raise ValueError("checkpoint store is empty; nothing to restore")
        first_error: CheckpointCorrupt | None = None
        gen = 0
        while self._generations:
            ckpt = self._generations[0]
            try:
                scalars = ckpt.restore(fields, generation=gen)
            except CheckpointCorrupt as exc:
                first_error = first_error or exc
                self._generations.pop(0)
                self.corrupt_dropped += 1
                gen += 1
                continue
            if gen > 0:
                self.fallbacks += 1
                if _obs.OBS.active:
                    _obs.OBS.metrics.counter("checkpoint_fallbacks").inc()
            self.restore_depths.append(gen)
            return ckpt, scalars, gen
        assert first_error is not None
        raise first_error

    def describe(self) -> dict:
        """JSON-able summary for chaos reports and post-mortems."""
        return {
            "generations": len(self._generations),
            "keep": self.keep,
            "steps": [c.step for c in self._generations],
            "fallbacks": self.fallbacks,
            "corrupt_dropped": self.corrupt_dropped,
            "max_restore_depth": self.max_restore_depth,
            "nbytes": self.latest.nbytes if self._generations else 0,
        }
