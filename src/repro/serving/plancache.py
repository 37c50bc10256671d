"""The persistent plan cache: compilation as an amortisable asset.

The paper's compile-once/run-many economics stop at process exit: every
new job pays graph construction, OCC extension and scheduling again.
This module makes the compiled artefacts outlive the job.  A
:class:`PlanKey` names one compilation *exactly* — workload signature ×
machine model × occ × mode × partition weights × fusion flag — and a
:class:`PlanCache` maps keys to three things of very different
lifetimes:

* a **warm program** — the live solver application whose skeletons hold
  frozen :class:`~repro.skeleton.scheduler.CompiledProgram`\\ s.  Pure
  process memory (closures over fields and engines), never serialised;
  reused across jobs in the same server, LRU-evicted past
  ``max_programs`` (eviction retires the replay engines).
* a **TunePlan** — the autotuner's decision for the workload on the
  machine.  JSON all the way down, persisted to disk so a new server
  process skips the DES search entirely.
* a **DES cost estimate** — simulated seconds for the whole job, the
  number the gateway's fair scheduler orders admission by.  Also
  persisted.

On-disk format is one ``<digest>.json`` per key (schema
``repro-plancache/1``) under the cache root; the root comes from the
constructor, else the ``REPRO_PLAN_CACHE`` environment variable, else
the cache is memory-only.  Hits, misses, evictions and persistence
traffic are tracked both on the cache object and — when observability
is enabled — as ``plan_cache_*`` counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

from repro import observability as _obs
from repro.system import EXECUTION_MODES
from repro.tuner import TunePlan

CACHE_SCHEMA = "repro-plancache/1"
ENV_VAR = "REPRO_PLAN_CACHE"


class PlanCacheError(ValueError):
    """A persisted cache entry is unreadable or from an unknown schema."""


@dataclass(frozen=True)
class PlanKey:
    """Content address of one compiled configuration.

    ``workload`` is the canonical workload signature (experiment, domain
    shape, step count and solver parameters — see
    :func:`workload_signature`); the remaining
    fields pin the machine model and every compilation-relevant knob.
    Two keys are equal iff a compiled program for one is exactly
    reusable for the other.
    """

    workload: str
    machine: str
    devices: int
    occ: str
    mode: str
    weights: tuple[float, ...] | None
    fused: bool

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PlanKey":
        weights = d["weights"]
        if d["mode"] not in (*EXECUTION_MODES, "*"):  # "*": tuning_key()
            raise PlanCacheError(f"plan key names unknown execution mode {d['mode']!r}")
        return cls(
            workload=d["workload"],
            machine=d["machine"],
            devices=int(d["devices"]),
            occ=d["occ"],
            mode=d["mode"],
            weights=None if weights is None else tuple(float(w) for w in weights),
            fused=bool(d["fused"]),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, exact float repr — digest input."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @cached_property
    def digest(self) -> str:
        """Content address: SHA-256 of the canonical JSON form, hashed once
        per key (the key is frozen)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def tuning_key(self) -> "PlanKey":
        """The key a :class:`~repro.tuner.TunePlan` is cached under.

        A tune plan *chooses* occ/mode/weights, so it cannot be keyed by
        them; the ``*`` sentinels collapse the configuration axes while
        the workload × machine × devices identity stays exact.  No real
        key collides with a tuning key (``*`` is not a valid occ/mode).
        """
        return PlanKey(
            workload=self.workload,
            machine=self.machine,
            devices=self.devices,
            occ="*",
            mode="*",
            weights=None,
            fused=False,
        )


def workload_signature(spec) -> str:
    """Canonical workload identity of a :class:`~repro.workloads.JobSpec`:
    experiment, domain, steps, params.

    Deliberately excludes devices/occ/mode/weights/fused — those are
    *configuration* axes, separate fields of the :class:`PlanKey` — so
    the same signature under two configurations shares one tuning
    identity.
    """
    dims = "x".join(str(n) for n in spec.shape)
    extras = ";".join(f"{k}={v!r}" for k, v in spec.params)
    return f"{spec.experiment}[{dims}]steps={spec.steps}" + (f";{extras}" if extras else "")


def plan_key(spec, machine: str) -> PlanKey:
    """The plan-cache address of one spec on one machine model."""
    return PlanKey(
        workload=workload_signature(spec),
        machine=machine,
        devices=spec.devices,
        occ=spec.occ,
        mode=spec.mode,
        weights=spec.weights,
        fused=spec.fused,
    )


@dataclass
class CacheEntry:
    """Everything cached for one :class:`PlanKey`.

    ``lock`` serialises use of the warm ``program`` (one live solver
    cannot run two jobs at once); ``release`` is the owner-provided
    teardown called on eviction (retiring replay engines).
    """

    key: PlanKey
    program: object | None = None
    tune_plan: TunePlan | None = None
    estimate_seconds: float | None = None
    release: Callable[[object], None] | None = None
    lock: threading.RLock = field(default_factory=threading.RLock)


class PlanCache:
    """Content-addressed store for plans, estimates and warm programs."""

    def __init__(self, root: str | os.PathLike | None = None, max_programs: int = 8):
        if root is None:
            root = os.environ.get(ENV_VAR) or None
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        if max_programs < 1:
            raise ValueError("max_programs must be >= 1")
        self.max_programs = max_programs
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()  # LRU by digest
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.persisted_writes = 0
        self.persisted_loads = 0

    # -- metrics -------------------------------------------------------------
    def _count(self, name: str, **labels: str) -> None:
        if _obs.OBS.active:
            _obs.OBS.metrics.counter(name, **labels).inc()

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "persisted_writes": self.persisted_writes,
                "persisted_loads": self.persisted_loads,
                "entries": len(self._entries),
                "programs": sum(1 for e in self._entries.values() if e.program is not None),
                "root": str(self.root) if self.root is not None else None,
            }

    # -- disk ----------------------------------------------------------------
    def _path(self, key: PlanKey) -> Path | None:
        return None if self.root is None else self.root / f"{key.digest}.json"

    def _load_persisted(self, key: PlanKey) -> CacheEntry | None:
        path = self._path(key)
        if path is None or not path.exists():
            return None
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise PlanCacheError(f"{path}: corrupt plan-cache entry: {exc}") from exc
        if doc.get("schema") != CACHE_SCHEMA:
            raise PlanCacheError(
                f"{path}: unknown plan-cache schema {doc.get('schema')!r}; expected {CACHE_SCHEMA}"
            )
        stored = PlanKey.from_dict(doc["key"])
        if stored != key:
            raise PlanCacheError(f"{path}: digest collision or tampered entry (key mismatch)")
        plan = doc.get("tune_plan")
        try:
            tune_plan = None if plan is None else TunePlan.from_dict(plan)
        except ValueError as exc:
            raise PlanCacheError(f"{path}: unusable tune plan: {exc}") from exc
        entry = CacheEntry(key=key, tune_plan=tune_plan, estimate_seconds=doc.get("estimate_seconds"))
        self.persisted_loads += 1
        self._count("plan_cache_persisted_loads")
        return entry

    def _persist(self, entry: CacheEntry) -> None:
        path = self._path(entry.key)
        if path is None or (entry.tune_plan is None and entry.estimate_seconds is None):
            return
        doc = {
            "schema": CACHE_SCHEMA,
            "key": entry.key.to_dict(),
            "digest": entry.key.digest,
            "estimate_seconds": entry.estimate_seconds,
            "tune_plan": None if entry.tune_plan is None else entry.tune_plan.to_dict(),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)  # atomic within one filesystem
        self.persisted_writes += 1
        self._count("plan_cache_persisted_writes")

    # -- the cache proper ----------------------------------------------------
    def lookup(self, key: PlanKey) -> CacheEntry | None:
        """The entry for ``key``, or None; counts one hit or miss.

        Memory first, then the persistent store (a disk hit is promoted
        into memory).  The returned entry is live — callers serialise
        program use through ``entry.lock``.
        """
        digest = key.digest
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                self.hits += 1
                kind = "program" if entry.program is not None else "plan"
            else:
                entry = self._load_persisted(key)
                if entry is not None:
                    self._entries[digest] = entry
                    self.hits += 1
                    kind = "persisted"
                else:
                    self.misses += 1
        if entry is None:
            self._count("plan_cache_misses")
            return None
        self._count("plan_cache_hits", kind=kind)
        return entry

    def peek(self, key: PlanKey) -> CacheEntry | None:
        """Like :meth:`lookup` but without touching the hit/miss counters.

        Admission-time cost estimation wants the persisted DES estimate
        if one exists, but a peek at submit time must not double-count
        the real lookup the worker performs when the job runs.
        """
        digest = key.digest
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                return entry
            entry = self._load_persisted(key)
            if entry is not None:
                self._entries[digest] = entry
            return entry

    def store(
        self,
        key: PlanKey,
        *,
        program: object | None = None,
        tune_plan: TunePlan | None = None,
        estimate_seconds: float | None = None,
        release: Callable[[object], None] | None = None,
    ) -> CacheEntry:
        """Merge new artefacts into the entry for ``key`` (creating it).

        Persists the JSON-able parts when a cache root is configured,
        and LRU-evicts the oldest warm program past ``max_programs``
        (eviction calls its ``release`` hook outside the cache lock).
        """
        evicted: list[tuple[CacheEntry, object]] = []
        with self._lock:
            digest = key.digest
            entry = self._entries.get(digest)
            if entry is None:
                entry = CacheEntry(key=key)
                self._entries[digest] = entry
            self._entries.move_to_end(digest)
            if program is not None:
                entry.program = program
            if release is not None:
                entry.release = release
            if tune_plan is not None:
                entry.tune_plan = tune_plan
            if estimate_seconds is not None:
                entry.estimate_seconds = float(estimate_seconds)
            if tune_plan is not None or estimate_seconds is not None:
                self._persist(entry)
            live = [e for e in self._entries.values() if e.program is not None]
            while len(live) > self.max_programs:
                victim = live.pop(0)  # OrderedDict iteration order = LRU order
                # drop the program but keep the (cheap) plan/estimate entry
                evicted.append((victim, victim.program))
                victim.program = None
                self.evictions += 1
        for victim, program in evicted:
            self._count("plan_cache_evictions")
            if victim.release is not None:
                # a job may still be replaying on the evicted program; a
                # *blocking* wait here could deadlock against a peer
                # store() holding that entry's lock, so try-acquire and
                # otherwise leave teardown to the running job (it checks
                # ``entry.program is not app`` after its run and closes
                # the orphan itself — close is idempotent)
                if victim.lock.acquire(blocking=False):
                    try:
                        victim.release(program)
                    finally:
                        victim.lock.release()
        return entry

    def clear(self) -> None:
        """Drop every in-memory entry, releasing all warm programs.

        The persistent store is untouched — ``clear()`` is server
        shutdown, not cache invalidation.
        """
        with self._lock:
            entries, self._entries = list(self._entries.values()), OrderedDict()
        for entry in entries:
            with entry.lock:
                if entry.program is not None and entry.release is not None:
                    entry.release(entry.program)
                entry.program = None


__all__ = [
    "CACHE_SCHEMA",
    "ENV_VAR",
    "CacheEntry",
    "PlanCache",
    "PlanCacheError",
    "PlanKey",
    "plan_key",
    "workload_signature",
]
