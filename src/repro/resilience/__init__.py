"""Resilience: seeded fault injection, retry, checkpoint/restore, degradation.

The paper's Skeleton argues that the generated stream/event structure
alone enforces correctness; this layer extends that guarantee to a
*faulty* runtime.  Three pieces:

* :mod:`repro.resilience.faults`     — :class:`FaultPlan`: seeded,
  site-keyed injection of transient launch/copy failures, allocation
  errors, NaN/Inf field corruption and permanent device loss;
* :mod:`repro.resilience.retry`      — immediate, bounded retry of
  transient faults at the command-queue layer;
* :mod:`repro.resilience.checkpoint` / :mod:`repro.resilience.runner` —
  checkpoint/restore of Field state with rollback-and-replay, and
  graceful degradation onto surviving devices (re-partition, migrate,
  recompile, resume).

**Off by default, armed per backend.**  A fault session belongs to one
:class:`~repro.system.Backend` — its allocator, queues, plans and
skeletons — and every injection/guardrail site is guarded by a single
attribute read on that backend's ``session`` slot, so an unarmed backend
pays near-zero overhead and two backends in one process never see each
other's faults.  The driver arms every backend it runs on::

    from repro import resilience as res

    plan = res.FaultPlan(seed=7, launch=0.05, copy=0.05, device_loss={2: 40})
    policy = res.RecoveryPolicy(checkpoint_interval=4)
    app = res.ResilientDriver(build_app, backend, steps=100, policy=policy, plan=plan).run()

and ``with res.session(backend, plan, policy):`` arms one by hand.

or from the shell: ``python -m repro chaos poisson --profile transient+loss``.

Import discipline: this package's modules must not import other
``repro`` packages at module import time (``repro.observability``
excepted — it is itself import-free), so ``repro.system`` and
``repro.sets`` can hook into it without cycles.
"""

from __future__ import annotations

from repro import observability as _obs

from .checkpoint import CHECKPOINT_SCHEMA, Checkpoint, CheckpointStore, restore_targets
from .errors import (
    CheckpointCorrupt,
    CopyFault,
    CorruptionDetected,
    DegradeOverCapacity,
    DeviceLost,
    FaultExhausted,
    LaunchFault,
    ResilienceError,
    SolverDiverged,
    TransientFault,
)
from .faults import FaultPlan, unit_draw
from .retry import run_with_retry
from .runner import FaultSession, RecoveryPolicy, ResilientDriver, degraded_backend, session


_FAULT_CLS = {"launch": LaunchFault, "copy": CopyFault}


def execute_command(faults: FaultSession, kind: str, site: str, ranks: tuple[int, ...], fn) -> None:
    """Run one queue command under ``faults``: loss check, inject, retry.

    Called by :func:`repro.system.layers.lower` on an armed backend.  The
    involved device ranks are loss-checked first (a command touching a
    lost device raises :class:`DeviceLost`, which is never retried);
    transient faults are then injected and retried per the policy.
    """
    plan = faults.plan
    if plan is not None:
        for rank in ranks:
            try:
                plan.touch_device(rank)
            except DeviceLost:
                # tag the loss with the command's site key before it
                # propagates — touch_device only knows the rank, and the
                # flight-recorder post-mortem must name the failing site
                from repro.observability import flight as _flight  # noqa: PLC0415 - cold path

                _flight.record(
                    f"device{rank}", "fault", site, {"kind": "device_lost", "rank": rank}
                )
                raise
    run_with_retry(fn, kind, site, faults.policy.max_attempts, plan, _FAULT_CLS.get(kind, TransientFault))


def should_fail_allocation(plan: FaultPlan | None, rank: int, site: str) -> bool:
    """Loss-check ``rank`` and decide whether this allocation fails.

    Called from ``DeviceAllocator`` behind the guard; the caller raises
    its own ``AllocationError`` so the memory layer keeps its exception
    type.
    """
    if plan is None:
        return False
    try:
        plan.touch_device(rank)
    except DeviceLost:
        # same site-tagging as execute_command: the post-mortem must name
        # the allocation that first touched the lost device
        from repro.observability import flight as _flight  # noqa: PLC0415 - cold path

        _flight.record(f"device{rank}", "fault", site, {"kind": "device_lost", "rank": rank})
        raise
    hit = plan.decide("alloc", site)
    if hit and _obs.OBS.active:
        _obs.OBS.metrics.counter("faults_injected", kind="alloc").inc()
    return hit


__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointCorrupt",
    "CheckpointStore",
    "CopyFault",
    "CorruptionDetected",
    "DegradeOverCapacity",
    "DeviceLost",
    "FaultExhausted",
    "FaultPlan",
    "FaultSession",
    "LaunchFault",
    "RecoveryPolicy",
    "ResilienceError",
    "ResilientDriver",
    "SolverDiverged",
    "TransientFault",
    "degraded_backend",
    "execute_command",
    "restore_targets",
    "run_with_retry",
    "session",
    "should_fail_allocation",
    "unit_draw",
]
