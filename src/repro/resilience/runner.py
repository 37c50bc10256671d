"""Recovery orchestration: the adaptive resilient driver.

:class:`ResilientDriver` runs an iterative multi-GPU application under a
:class:`~repro.resilience.faults.FaultPlan`.  It is the closed-loop
controller that unifies the resilience and tuner layers:

* **retry** happens below the driver, at the command-queue layer
  (transient faults never surface here unless exhausted);
* **rollback-and-replay** answers :class:`FaultExhausted` and
  :class:`CorruptionDetected`: restore the newest *verified* checkpoint
  generation into the live fields and re-run from its step — a tampered
  snapshot falls back to an older generation instead of poisoning the
  run (:class:`~repro.resilience.checkpoint.CheckpointStore`);
* **tuned degradation** answers :class:`DeviceLost`: shrink the backend
  to the survivors — each keeping its *own* ``DeviceSpec``
  (:meth:`MachineSpec.without_rank`) — feed the shrunken machine through
  the autotuner, rebuild the application with the water-filled partition
  shares and the DES-chosen OCC level, migrate field state from the
  checkpoint, and resume.  The tuned-vs-uniform makespan delta of the
  degraded plan is recorded in the flight recorder's degrade event.

Every decision above reads the fault plan, the checkpoints and the
machine model, never the tracer: observability only records.

Applications plug in through a small duck-typed protocol::

    app = factory(backend, **tuned)  # tuned kwargs the factory accepts
    app.fields()               # -> list[Field]: checkpointable state
    app.scalars()              # -> dict: host-side loop state (optional)
    app.step(i)                # run iteration i
    app.on_restore(scalars)    # re-seed host state first when restoring (optional)

``factory`` must be deterministic in everything it does not restore from
the checkpoint (boundary conditions, coefficients), so a rebuilt
application is the same computation on a new decomposition.  The tuned
keyword arguments (``partition_weights``, ``occ``) are passed only when
the factory's signature accepts them; a recovery action never changes
the replay mode the job asked for (docs/resilience.md, "Reproducibility").
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

from repro import observability as _obs
from repro.observability import flight as _flight

from .checkpoint import Checkpoint, CheckpointStore, restore_targets
from .errors import (
    CorruptionDetected,
    DegradeOverCapacity,
    DeviceLost,
    FaultExhausted,
    ResilienceError,
)
from .faults import FaultPlan

#: tuned kwargs the driver offers a factory on (re)build
TUNED_KWARGS = ("partition_weights", "occ")


@dataclass
class RecoveryPolicy:
    """Recovery budgets shared by the injection sites and the driver.

    ``max_rollbacks=0`` surfaces the first exhausted fault or detected
    corruption instead of recovering from it.
    """

    checkpoint_interval: int = 8
    max_rollbacks: int = 32
    #: checkpoint generations kept for corrupt-snapshot fallback
    checkpoint_generations: int = 3
    #: attempts per command before a transient fault is exhausted
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be >= 0")
        if self.checkpoint_generations < 1:
            raise ValueError("checkpoint_generations must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


class FaultSession(NamedTuple):
    """What :func:`session` arms on one backend."""

    plan: FaultPlan | None
    policy: RecoveryPolicy


def session(backend, plan: FaultPlan | None = None, policy: RecoveryPolicy | None = None):
    """Context manager arming ``backend`` — its allocator, queues, plans and
    skeletons, and nothing else in the process — for the block; nests."""
    return backend.session.arm("faults", FaultSession(plan, policy or RecoveryPolicy()))


def _backend_like(backend, machine, devices: int | None = None):
    """A fresh backend with ``backend``'s memory limits (and, unless given,
    device count) on ``machine``."""
    from repro.system.backend import Backend  # deferred: keeps this package import-cycle-free
    from repro.system.device import DeviceSet

    return Backend(
        DeviceSet.gpus(backend.num_devices if devices is None else devices),
        machine=machine,
        memory_capacity=backend.allocator.capacity_bytes,
    )


def degraded_backend(backend, lost_rank: int):
    """A new backend on the survivors of ``backend`` after losing one rank.

    Survivors are re-indexed ``0..n-2`` (ranks are positional in a
    DeviceSet) and keep their own per-rank ``DeviceSpec``s via
    :meth:`MachineSpec.without_rank` — on a heterogeneous machine the
    degraded cost model must describe the cards that actually survived,
    not a truncated override table.  Losing the last device is terminal.
    """
    n = backend.num_devices - 1
    if n < 1:
        raise DeviceLost(lost_rank, f"device {lost_rank} lost and no device survives; cannot degrade")
    machine = backend.machine
    if 0 <= lost_rank < machine.num_devices and machine.num_devices > 1:
        machine = machine.without_rank(lost_rank)
    else:  # out-of-model rank: fall back to a plain resize
        machine = machine.with_devices(n)
    return _backend_like(backend, machine, n)


class ResilientDriver:
    """Runs ``steps`` iterations of an application with full recovery.

    ``experiment`` optionally names a tuner workload (``lbm``,
    ``poisson``, ``karman``, ``elasticity``); when set, device-loss
    degradation re-partitions with tuned shares.  Without it the driver
    behaves like the classic uniform-rebuild controller.
    """

    def __init__(
        self,
        factory: Callable,
        backend,
        steps: int,
        policy: RecoveryPolicy | None = None,
        plan=None,
        experiment: str | None = None,
    ):
        if steps < 0:
            raise ValueError("steps must be >= 0")
        self.factory = factory
        self.backend = backend
        self.steps = steps
        self.policy = policy or RecoveryPolicy()
        self.plan = plan
        self.experiment = experiment
        self.rollbacks = 0
        self.devices_lost = 0
        #: cumulative wall-clock seconds spent inside recovery actions
        #: (rollback, degrade, recovery rebuild); measured, never acted on
        self.recovery_seconds = 0.0
        self.store = CheckpointStore(keep=self.policy.checkpoint_generations)
        #: one dict per degrade event: tuned vs uniform DES makespans
        self.degrade_reports: list[dict] = []
        self.last_tune_plan = None
        self._tuned: dict | None = None
        self._recovery_rebuild = False

    # -- recovery actions ---------------------------------------------------
    def _build(self, backend):
        kwargs = self._factory_kwargs()
        with _obs.span(
            "resilience.build", cat="resilience", devices=backend.num_devices, tuned=bool(kwargs)
        ):
            return self.factory(backend, **kwargs)

    def _factory_kwargs(self) -> dict:
        """The tuned kwargs the factory's signature actually accepts."""
        if not self._tuned:
            return {}
        try:
            params = inspect.signature(self.factory).parameters
        except (TypeError, ValueError):  # builtins/partials without signatures
            return {}
        accepts_var_kw = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        )
        return {
            k: v
            for k, v in self._tuned.items()
            if v is not None and (accepts_var_kw or k in params)
        }

    def _capture(self, app, step: int) -> Checkpoint:
        scalars = app.scalars() if hasattr(app, "scalars") else {}
        ckpt = Checkpoint.capture(app.fields(), scalars, step=step)
        self.store.push(ckpt)
        return ckpt

    def _restore(self, app) -> int:
        """Restore the newest *valid* generation; return its step."""
        ckpt, _, generation = self.store.restore_latest_valid(restore_targets(app))
        if generation > 0:
            _flight.record(
                "host",
                "rollback",
                "checkpoint_fallback",
                {"to_step": ckpt.step, "generation": generation, "header": ckpt.header()},
            )
        return ckpt.step

    def _rollback(self, app, cause: Exception) -> int:
        t0 = perf_counter()
        self.rollbacks += 1
        if _obs.OBS.active:
            _obs.OBS.metrics.counter("rollbacks", cause=type(cause).__name__).inc()
        try:
            with _obs.span("resilience.rollback", cat="resilience"):
                step = self._restore(app)
            _flight.record(
                "host", "rollback", type(cause).__name__, {"to_step": step, "n": self.rollbacks}
            )
        finally:  # a restore that exhausts its own retries still spent the time
            self.recovery_seconds += perf_counter() - t0
        return step

    def _degrade(self, lost: DeviceLost):
        t0 = perf_counter()
        self.devices_lost += 1
        if _obs.OBS.active:
            _obs.OBS.metrics.counter("devices_lost", rank=str(lost.rank)).inc()
        with _obs.span("resilience.degrade", cat="resilience", lost_rank=lost.rank):
            new_backend = degraded_backend(self.backend, lost.rank)
            tune = None
            if self.experiment and new_backend.num_devices > 1:
                tune = self._tune_for(new_backend)
            self._check_capacity(lost.rank, new_backend)
            if self.plan is not None:
                self.plan.acknowledge_loss(lost.rank)
        detail = {"survivors": new_backend.num_devices}
        if tune is not None:
            detail.update(
                tuned_makespan=tune["tuned_makespan"],
                uniform_makespan=tune["uniform_makespan"],
                improvement=tune["improvement"],
                occ=tune["occ"],
                mode=tune["mode"],
            )
        _flight.record(f"device{lost.rank}", "degrade", f"device{lost.rank} lost", detail)
        self._recovery_rebuild = True
        self.recovery_seconds += perf_counter() - t0
        return new_backend

    def _tune_for(self, backend) -> dict | None:
        """Autotune the shrunken fleet; adopt shares/OCC for the rebuild.

        Tuning records candidate schedules on *virtual* miniatures, each
        built on a backend of its own that nothing arms: an injection (or
        the next scheduled loss) cannot fire inside the recovery path.
        """
        from repro.tuner.search import tune_workload  # deferred: tuner imports system

        try:
            plan = tune_workload(self.experiment, backend.machine, devices=backend.num_devices)
        except (KeyError, ValueError):
            return None  # not a tuner workload: keep the uniform rebuild
        self.last_tune_plan = plan
        self._tuned = dict(zip(TUNED_KWARGS, (plan.best.weights, plan.best_occ)))
        report = {
            "experiment": self.experiment,
            "machine": backend.machine.name,
            "devices": backend.num_devices,
            "occ": plan.best.occ,
            "mode": plan.best.mode,
            "weights": plan.best.weights,
            "shares": plan.shares,
            "tuned_makespan": plan.best.makespan,
            "uniform_makespan": plan.baseline.makespan,
            "improvement": plan.improvement,
            "uniform_best_makespan": plan.uniform_best.makespan if plan.uniform_best else None,
            "improvement_vs_best_uniform": plan.tuned_vs_uniform,
        }
        self.degrade_reports.append(report)
        if _obs.OBS.active:
            _obs.OBS.metrics.counter("degrade_retunes").inc()
        return report

    def _check_capacity(self, lost_rank: int, backend) -> None:
        """Fail degradation early when survivors cannot hold the state.

        A lower-bound check: the checkpointed global arrays alone,
        distributed by the planned partition shares, must fit the
        worst-loaded survivor's capacity.  Anything tighter (solver
        scratch fields, halos, padding) would still fail later, but this
        catches the hopeless case before a half-built application exists.
        """
        capacity = backend.allocator.capacity_bytes
        ckpt = self.store.latest
        if capacity is None or ckpt is None:
            return
        n = backend.num_devices
        weights = (self._tuned or {}).get("partition_weights")
        worst_share = max(weights) if weights else 1.0 / n
        demand = int(math.ceil(ckpt.nbytes * worst_share))
        if demand > capacity:
            raise DegradeOverCapacity(lost_rank, demand - capacity, demand, capacity)

    # -- the loop -----------------------------------------------------------
    def run(self):
        """Run to completion; return the (possibly rebuilt) application.

        A terminal failure — the retry/rollback budget exhausted, every
        checkpoint generation corrupt, or a device loss that cannot be
        degraded around — dumps the flight recorder's rings to a
        ``FLIGHT_*.json`` post-mortem before the exception propagates.
        """
        try:
            return self._run()
        except ResilienceError as exc:
            _flight.dump(
                f"resilience_{type(exc).__name__}",
                {
                    "error": str(exc),
                    "rollbacks": self.rollbacks,
                    "devices_lost": self.devices_lost,
                    "recovery_seconds": self.recovery_seconds,
                    "checkpoints": self.store.describe(),
                    "steps": self.steps,
                },
            )
            raise

    def _run(self):
        policy = self.policy
        app = None
        i = 0
        owed = None  # the fault whose rollback has not succeeded yet
        with ExitStack() as armed, _obs.span("resilience.run", cat="resilience", steps=self.steps):
            while True:
                try:
                    if app is None:
                        # every backend the job adopts — initial, degraded,
                        # rebuilt — is armed with this driver's plan and
                        # policy until run() returns
                        armed.enter_context(session(self.backend, self.plan, policy))
                        recovery, self._recovery_rebuild = self._recovery_rebuild, False
                        t0 = perf_counter()
                        built = self._build(self.backend)
                        if len(self.store) == 0:
                            self._capture(built, 0)
                        else:
                            i = self._restore(built)
                        app = built
                        if recovery:
                            self.recovery_seconds += perf_counter() - t0
                    elif owed is not None:
                        i = self._rollback(app, owed)
                    owed = None
                    while i < self.steps:
                        app.step(i)
                        i += 1
                        if i % policy.checkpoint_interval == 0 and i < self.steps:
                            self._capture(app, i)
                    return app
                except (FaultExhausted, CorruptionDetected) as exc:
                    # wherever it surfaced — a step, a capture, the factory's
                    # eager halo sync, a restore's halo refresh — it costs one
                    # rollback; the recovery action is retried under advanced
                    # draw counters until the budget says stop
                    if self.rollbacks >= policy.max_rollbacks:
                        raise
                    if app is not None:
                        owed = exc
                    else:  # the (re)build itself failed: start over on a clean backend
                        self.rollbacks += 1
                        _flight.record(
                            "host", "rollback", type(exc).__name__, {"rebuild": True, "n": self.rollbacks}
                        )
                        self._recovery_rebuild = True
                        self.backend = _backend_like(self.backend, self.backend.machine)
                except DeviceLost as exc:
                    self.backend = self._degrade(exc)
                    app = None
