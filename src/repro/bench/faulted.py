"""Fault-matrix miniatures: small real solves under seeded faults.

The Poisson-CG and LBM-cavity experiments of :mod:`repro.workloads`, at
miniature size, driven through the resilience layer under a seeded
:class:`~repro.resilience.FaultPlan`.  Each run produces a *fault-free*
reference first, then replays the workload with faults armed and full
recovery (retry, rollback-and-replay, device-loss degradation), and
reports whether the recovered result is *bitwise identical* to the
reference (``np.array_equal``, the chaos soak's bar) — the end-to-end
guarantee the fault model promises: faults either recover or raise typed
errors, never silent corruption.

Used by ``python -m repro faults`` and the CI fault-matrix job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import resilience as res
from repro.sim import pcie_a100
from repro.skeleton import check_trace_dependencies, simulate_result
from repro.system import Backend
from repro.workloads import JobSpec, build, check_experiment, resilient_factory


@dataclass(frozen=True)
class FaultWorkload:
    """One fault-matrix miniature: what to solve and how to judge it."""

    name: str
    shape: tuple[int, ...]
    steps: int
    #: solver params of the spec (forcing, solver tolerance)
    params: dict
    #: command count on the highest rank at which the loss profile fires
    loss_after: int

    def spec(self, devices: int, mode: str = "serial", steps: int | None = None) -> JobSpec:
        return JobSpec.make(
            self.name, self.shape, self.steps if steps is None else steps,
            devices=devices, mode=mode, **self.params,
        )


WORKLOADS = {
    # Poisson conjugate-gradient miniature (Krylov-state checkpoints)
    "poisson": FaultWorkload(
        "poisson",
        (16, 16, 16),
        steps=80,
        params={"rhs": "bump", "tolerance": 1e-8},
        loss_after=300,
    ),
    # lid-driven-cavity D3Q19 LBM miniature (full-state checkpoints)
    "lbm": FaultWorkload(
        "lbm",
        (12, 12, 12),
        steps=16,
        params={},
        loss_after=350,
    ),
}

PROFILES = ("transient", "transient+loss", "corruption")


def make_plan(workload: FaultWorkload, profile: str, seed: int, devices: int) -> res.FaultPlan:
    """The seeded FaultPlan of one named profile (``workload`` times the loss)."""
    if profile == "transient":
        return res.FaultPlan(seed, launch=0.05, copy=0.05)
    if profile == "transient+loss":
        if devices < 2:
            raise ValueError("the transient+loss profile needs at least 2 devices")
        return res.FaultPlan(
            seed, launch=0.05, copy=0.05, device_loss={devices - 1: workload.loss_after}
        )
    if profile == "corruption":
        # per-launch, and every step is many launches: 0.01 per launch is
        # already a brutal silent-corruption rate (several events per run)
        return res.FaultPlan(seed, corrupt=0.01)
    raise KeyError(f"unknown fault profile '{profile}'; supported: {', '.join(PROFILES)}")


@dataclass
class FaultedRunReport:
    """Outcome of one faulted run, compared against its fault-free twin."""

    workload: str
    profile: str
    devices: int
    surviving_devices: int
    seed: int
    steps: int
    match: bool
    max_abs_error: float
    violations: int
    rollbacks: int
    devices_lost: int
    faults: dict

    @property
    def ok(self) -> bool:
        return self.match and self.violations == 0

    def summary(self) -> str:
        lines = [
            f"{self.workload} under '{self.profile}' (seed {self.seed}): "
            f"{'RECOVERED' if self.ok else 'FAILED'}",
            f"  devices:            {self.devices} -> {self.surviving_devices} surviving",
            f"  injected faults:    {self.faults.get('injected', {})}",
            f"  rollbacks:          {self.rollbacks}; devices lost: {self.devices_lost}",
            f"  result vs fault-free: "
            f"{'bitwise identical' if self.match else f'MISMATCH (max |err| = {self.max_abs_error:.3e})'}",
            f"  dependency violations on recovered schedule: {self.violations}",
        ]
        return "\n".join(lines)


def _backend(devices: int) -> Backend:
    return Backend.sim_gpus(devices, machine=pcie_a100(devices))


def fault_free_result(name: str, devices: int = 3) -> np.ndarray:
    """Reference result of one workload with no faults armed."""
    app = build(WORKLOADS[name].spec(devices), backend=_backend(devices))
    app.run()
    return app.result_array()


def run_faulted(
    name: str,
    profile: str = "transient",
    devices: int = 3,
    seed: int = 1234,
    policy: res.RecoveryPolicy | None = None,
) -> FaultedRunReport:
    """One full fault-matrix run: reference, faulted replay, comparison."""
    wl = WORKLOADS[check_experiment(name, tuple(WORKLOADS))]
    reference = fault_free_result(name, devices)

    plan = make_plan(wl, profile, seed, devices)
    if policy is None:
        # corruption is caught one (possibly two) steps after injection, and
        # each rollback replays the whole interval under fresh draws — short
        # intervals are what lets the checkpoint front advance through a
        # high-SDC run instead of replaying one long interval forever
        policy = (
            res.RecoveryPolicy(checkpoint_interval=2, max_rollbacks=64)
            if profile == "corruption"
            else res.RecoveryPolicy(checkpoint_interval=4)
        )
    driver = res.ResilientDriver(
        resilient_factory(wl.spec(devices)), _backend(devices), wl.steps, policy=policy, plan=plan
    )
    app = driver.run()

    # the recovered schedule must still prove its own synchronisation
    violations = 0
    for sk in app.skeletons:
        recorded = sk.record()
        violations += len(check_trace_dependencies(recorded, simulate_result(recorded)))

    got = app.result_array()
    return FaultedRunReport(
        workload=name,
        profile=profile,
        devices=devices,
        surviving_devices=driver.backend.num_devices,
        seed=seed,
        steps=wl.steps,
        match=bool(np.array_equal(got, reference)),
        max_abs_error=float(np.max(np.abs(got - reference))),
        violations=violations,
        rollbacks=driver.rollbacks,
        devices_lost=driver.devices_lost,
        faults=plan.describe(),
    )
