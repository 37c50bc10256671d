"""Retry of transient faults at the command-queue layer.

Transient launch/copy faults are absorbed where they occur — at the
command-queue layer — by re-attempting the command up to
:attr:`RecoveryPolicy.max_attempts` times.  A retry re-runs at once:
the faults are injected by a seeded plan, so waiting would change
nothing but the wall clock.
"""

from __future__ import annotations

from collections.abc import Callable

from repro import observability as _obs
from repro.observability import flight as _flight

from .errors import FaultExhausted, TransientFault
from .faults import FaultPlan


def _fault_track(site: str) -> str:
    """Flight-recorder track for a site key (``...@<rank>`` when present)."""
    _, sep, tail = site.rpartition("@")
    return f"device{tail.split('->')[0]}" if sep else "host"


def run_with_retry(
    fn: Callable[[], None],
    kind: str,
    site: str,
    max_attempts: int,
    plan: FaultPlan | None,
    fault_cls: type[TransientFault] = TransientFault,
) -> int:
    """Run ``fn`` under injection + retry; return the attempt that succeeded.

    Each attempt first consults the plan (an injected fault fails the
    attempt *before* the command runs, modelling a launch/DMA error),
    then runs ``fn``; a :class:`TransientFault` raised by either path is
    retried until ``max_attempts`` attempts have failed, at which point
    :class:`FaultExhausted` propagates for checkpoint-level recovery.
    """
    attempt = 1
    while True:
        try:
            if plan is not None and plan.decide(kind, site):
                if _obs.OBS.active:
                    _obs.OBS.metrics.counter("faults_injected", kind=kind).inc()
                _flight.record(
                    _fault_track(site), "fault", site, {"kind": kind, "attempt": attempt}
                )
                raise fault_cls(site, attempt)
            fn()
            return attempt
        except TransientFault as exc:
            if attempt >= max_attempts:
                _flight.record(
                    _fault_track(site), "fault", site, {"kind": f"{kind}_exhausted", "attempts": attempt}
                )
                raise FaultExhausted(kind, site, attempt) from exc
            if _obs.OBS.active:
                _obs.OBS.metrics.counter("retries", kind=kind).inc()
            attempt += 1
