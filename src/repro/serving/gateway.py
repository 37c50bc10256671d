"""The multi-tenant job gateway: many jobs, one warm runtime.

``Gateway`` turns the compile-once/run-many runtime into a server.
Tenants submit :class:`~repro.workloads.JobSpec`\\ s; a bounded
queue with admission control feeds a small pool of worker threads that
execute jobs against the shared :class:`~repro.serving.plancache.PlanCache`,
so identical jobs pay compilation exactly once and every later arrival
replays a warm program.

Scheduling policy, in order:

1. **Batching affinity.**  A worker that just ran a job keeps draining
   jobs with the same plan key (up to ``batch_limit`` in a row) — the
   program is warm in that worker's hands, and re-running it beats a
   fair-but-cold switch for small jobs.
2. **Per-tenant fairness.**  Otherwise the worker serves the tenant
   with the least accumulated service time (a virtual-time scheduler);
   within a tenant, jobs are ordered by their **DES cost estimate** —
   simulated seconds for the whole job under the machine model, read
   from the plan cache when persisted, optimistically zero for unknown
   work.  Measured wall time, not the estimate, is what a tenant is
   charged afterwards.

Jobs need no lock between them: a fault job builds and arms its
own backend (:func:`repro.resilience.session` is per backend), and
``fused=False`` is pinned on the job's own plans, so it overlaps plain
jobs like any other.  What stays process-level — the tracer / metrics
registry, the flight recorder — changes what is recorded, never a result
(docs/serving.md).

Per-tenant latency lands in the standard histogram metrics
(``serve_job_seconds{tenant=...}``, ``serve_queue_wait_seconds``), so
``python -m repro serve`` can print p50/p90/p99 per tenant.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from repro import observability as _obs
from repro import resilience as res
from repro.sim import dgx_a100
from repro.system import Backend
from repro.tuner import tune_workload
from repro.workloads import JobSpec, build, resilient_factory

from .plancache import PlanCache, PlanKey, plan_key


class GatewayError(RuntimeError):
    """Base class for gateway failures."""


class AdmissionRejected(GatewayError):
    """The bounded queue is full; the job was never admitted."""


class GatewayClosed(GatewayError):
    """Submission after :meth:`Gateway.close`."""


class JobFailed(GatewayError):
    """The job's execution raised; the cause is chained."""


@dataclass
class JobResult:
    """What a completed job hands back to its tenant."""

    tenant: str
    spec: JobSpec
    fingerprints: dict
    seconds: float
    queue_wait_seconds: float
    cache_hit: bool
    batched: bool = False
    rollbacks: int = 0
    devices_lost: int = 0


class Job:
    """Handle for one submitted job; resolves via :meth:`result`."""

    def __init__(self, tenant: str, spec: JobSpec, key: PlanKey, estimate: float):
        self.tenant = tenant
        self.spec = spec
        self.key = key
        self.digest = key.digest
        self.estimate = estimate
        self.submitted = perf_counter()
        self.faults: res.FaultPlan | None = None
        self.policy: res.RecoveryPolicy | None = None
        self.taken = False  # lazy-deletion flag shared by heap + affinity deque
        self.batched = False
        self._done = threading.Event()
        self._result: JobResult | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block for completion; raises :class:`JobFailed` on job error."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job for tenant '{self.tenant}' still pending after {timeout}s")
        if self._error is not None:
            raise JobFailed(f"{self.spec.experiment} job for '{self.tenant}' failed") from self._error
        assert self._result is not None
        return self._result

    def _resolve(self, result: JobResult | None, error: BaseException | None) -> None:
        self._result, self._error = result, error
        self._done.set()


@dataclass
class _TenantQueue:
    """One tenant's pending jobs + accumulated (wall-clock) service time."""

    heap: list = field(default_factory=list)  # (estimate, seq, Job)
    vtime: float = 0.0


class _WorkerState:
    __slots__ = ("last_digest", "batch_run")

    def __init__(self):
        self.last_digest: str | None = None
        self.batch_run = 0


class Gateway:
    """In-process serving gateway over one shared plan cache.

    Parameters
    ----------
    cache:
        The :class:`PlanCache` to serve from; a fresh (env-configured)
        one is built when omitted.  :meth:`close` releases its warm
        programs either way — the gateway owns program lifetime.
    machine_factory:
        ``devices -> MachineSpec`` for cache addressing and DES cost
        estimates; defaults to :func:`repro.sim.dgx_a100`.
    max_queue:
        Admission bound on *waiting* jobs; beyond it submissions raise
        :class:`AdmissionRejected` rather than queue without bound.
    workers:
        Worker-thread pool size.
    batch_limit:
        Max consecutive same-plan-key jobs one worker drains before
        returning to fair scheduling.
    """

    def __init__(
        self,
        cache: PlanCache | None = None,
        machine_factory=None,
        max_queue: int = 64,
        workers: int = 2,
        batch_limit: int = 4,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_limit < 1:
            raise ValueError("batch_limit must be >= 1")
        self.cache = cache if cache is not None else PlanCache()
        self.machine_factory = machine_factory if machine_factory is not None else dgx_a100
        self.max_queue = max_queue
        self.batch_limit = batch_limit
        self._cv = threading.Condition(threading.Lock())
        self._tenants: dict[str, _TenantQueue] = {}
        self._by_key: dict[str, deque[Job]] = {}
        # spec -> plan key for the specs keyed last: a warm re-submit neither
        # calls the machine factory nor builds (and hashes) a new key
        self._plan_key = functools.lru_cache(maxsize=self.cache.max_programs)(
            lambda spec: plan_key(spec, self.machine_factory(spec.devices).name)
        )
        self._pending = 0
        self._seq = 0
        self._closed = False
        self.jobs_done = 0
        self.jobs_failed = 0
        self.batch_joins = 0
        self.rejected = 0
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- metrics helpers -----------------------------------------------------
    @staticmethod
    def _count(name: str, **labels: str) -> None:
        if _obs.OBS.active:
            _obs.OBS.metrics.counter(name, **labels).inc()

    @staticmethod
    def _observe(name: str, value: float, **labels: str) -> None:
        if _obs.OBS.active:
            _obs.OBS.metrics.histogram(name, **labels).observe(value)

    def _depth_gauge(self) -> None:
        # caller holds self._cv
        if _obs.OBS.active:
            _obs.OBS.metrics.gauge("serve_queue_depth").set(float(self._pending))

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        tenant: str,
        spec: JobSpec,
        *,
        faults: res.FaultPlan | None = None,
        policy: res.RecoveryPolicy | None = None,
    ) -> Job:
        """Admit one job for ``tenant``; returns a :class:`Job` handle.

        ``faults`` routes the job through the resilience layer: a
        :class:`~repro.resilience.ResilientDriver` runs it under that
        seeded plan and the recovery ``policy``.  Such a job solves the
        same spec a plain job would, on a backend of its own; a plan holds
        its draw counters, so give each job a fresh one.
        """
        key = self._plan_key(spec)
        entry = self.cache.peek(key)
        estimate = 0.0  # optimistic: unknown work sorts first within its tenant
        if entry is not None and entry.estimate_seconds is not None:
            estimate = float(entry.estimate_seconds)
        job = Job(tenant, spec, key, estimate)
        job.faults = faults
        job.policy = policy
        with self._cv:
            if self._closed:
                raise GatewayClosed("gateway is closed")
            if self._pending >= self.max_queue:
                self.rejected += 1
                self._count("serve_rejected", tenant=tenant)
                raise AdmissionRejected(
                    f"queue full ({self._pending}/{self.max_queue}); job rejected"
                )
            self._seq += 1
            tq = self._tenants.setdefault(tenant, _TenantQueue())
            heapq.heappush(tq.heap, (job.estimate, self._seq, job))
            self._by_key.setdefault(job.digest, deque()).append(job)
            self._pending += 1
            self._depth_gauge()
            self._cv.notify()
        return job

    def tuned_spec(self, spec: JobSpec) -> JobSpec:
        """The spec rewritten with the autotuner's choice for its workload.

        The :class:`~repro.tuner.TunePlan` is read from the plan cache
        under the workload's *tuning key* (configuration axes collapsed)
        and computed — full DES search — only on a miss, then persisted,
        so every later server process skips the search entirely.
        """
        machine = self.machine_factory(spec.devices)
        tkey = plan_key(spec, machine.name).tuning_key()
        entry = self.cache.lookup(tkey)
        if entry is not None and entry.tune_plan is not None:
            plan = entry.tune_plan
        else:
            plan = tune_workload(spec.experiment, machine, spec.devices)
            self.cache.store(tkey, tune_plan=plan)
        best = plan.best
        return dataclasses.replace(spec, occ=best.occ, mode=best.mode, weights=best.weights)

    # -- scheduling ----------------------------------------------------------
    def _pick(self, ws: _WorkerState) -> Job | None:
        # caller holds self._cv
        if ws.last_digest is not None and ws.batch_run < self.batch_limit:
            dq = self._by_key.get(ws.last_digest)
            while dq:
                job = dq.popleft()
                if not dq:
                    self._by_key.pop(ws.last_digest, None)
                if job.taken:
                    continue
                job.taken = True
                job.batched = True
                ws.batch_run += 1
                self.batch_joins += 1
                self._count("serve_batch_joins", tenant=job.tenant)
                return job
        best: _TenantQueue | None = None
        for tq in self._tenants.values():
            while tq.heap and tq.heap[0][2].taken:
                heapq.heappop(tq.heap)
            if not tq.heap:
                continue
            if best is None or tq.vtime < best.vtime:
                best = tq
        if best is None:
            return None
        _, _, job = heapq.heappop(best.heap)
        job.taken = True
        ws.last_digest = job.digest
        ws.batch_run = 1
        return job

    def _worker(self) -> None:
        ws = _WorkerState()
        while True:
            with self._cv:
                job = self._pick(ws)
                while job is None:
                    if self._closed:
                        return
                    ws.last_digest = None  # nothing to drain; drop the affinity
                    self._cv.wait()
                    job = self._pick(ws)
                self._pending -= 1
                self._depth_gauge()
            self._execute(job)

    # -- execution -----------------------------------------------------------
    def _execute(self, job: Job) -> None:
        queue_wait = perf_counter() - job.submitted
        self._observe("serve_queue_wait_seconds", queue_wait, tenant=job.tenant)
        if _obs.OBS.active:
            _obs.OBS.metrics.gauge("serve_inflight").inc()
        t0 = perf_counter()
        result = error = None
        try:
            if job.faults is not None:
                result = self._run_resilient(job, queue_wait)
            else:
                result = self._run_cached(job, queue_wait)
        except BaseException as exc:  # noqa: BLE001 - resolved into the handle
            error = exc
        elapsed = perf_counter() - t0
        self._count("serve_jobs", tenant=job.tenant, status="ok" if error is None else "error")
        self._observe("serve_job_seconds", elapsed, tenant=job.tenant)
        if _obs.OBS.active:
            _obs.OBS.metrics.gauge("serve_inflight").dec()
        with self._cv:  # the counters are shared by the workers; stats() reads them here
            if error is None:
                self.jobs_done += 1
            else:
                self.jobs_failed += 1
            tq = self._tenants.setdefault(job.tenant, _TenantQueue())
            tq.vtime += elapsed  # charge measured service, not the estimate
        job._resolve(result, error)

    def _run_cached(self, job: Job, queue_wait: float) -> JobResult:
        spec = job.spec
        entry = self.cache.lookup(job.key)
        cache_hit = entry is not None
        if entry is None:
            entry = self.cache.store(job.key)
        t0 = perf_counter()
        with entry.lock:
            app = entry.program
            if app is None:
                cache_hit = False
                app = build(spec, machine=self.machine_factory(spec.devices))
                self.cache.store(
                    job.key,
                    program=app,
                    estimate_seconds=app.estimate_seconds(),
                    release=lambda a: a.close(),
                )
            else:
                app.reset()
            fingerprints = app.run()
        # LRU-evicted out from under us while running: the evictor's
        # try-acquire skipped teardown, so retire the orphan here
        if entry.program is not app:
            app.close()
        return JobResult(
            tenant=job.tenant,
            spec=spec,
            fingerprints=fingerprints,
            seconds=perf_counter() - t0,
            queue_wait_seconds=queue_wait,
            cache_hit=cache_hit,
            batched=job.batched,
        )

    def _run_resilient(self, job: Job, queue_wait: float) -> JobResult:
        spec = job.spec
        policy = job.policy if job.policy is not None else res.RecoveryPolicy()
        backend = Backend.sim_gpus(spec.devices, machine=self.machine_factory(spec.devices))
        driver = res.ResilientDriver(
            resilient_factory(spec), backend, spec.steps, policy=policy, plan=job.faults
        )
        t0 = perf_counter()
        app = driver.run()
        try:
            fingerprints = app.fingerprints()
        finally:
            app.close()
        return JobResult(
            tenant=job.tenant,
            spec=spec,
            fingerprints=fingerprints,
            seconds=perf_counter() - t0,
            queue_wait_seconds=queue_wait,
            cache_hit=False,
            batched=job.batched,
            rollbacks=driver.rollbacks,
            devices_lost=driver.devices_lost,
        )

    # -- shutdown ------------------------------------------------------------
    def close(self) -> None:
        """Drain the queue, stop the workers, release every warm program."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        for t in self._threads:
            t.join()
        self.cache.clear()

    def stats(self) -> dict:
        with self._cv:
            return {
                "pending": self._pending,
                "done": self.jobs_done,
                "failed": self.jobs_failed,
                "rejected": self.rejected,
                "batch_joins": self.batch_joins,
                "tenants": {t: tq.vtime for t, tq in self._tenants.items()},
                "cache": self.cache.stats(),
            }


__all__ = [
    "AdmissionRejected",
    "Gateway",
    "GatewayClosed",
    "GatewayError",
    "Job",
    "JobFailed",
    "JobResult",
]
