"""Chaos soak harness: a seeded long-horizon fault storm with a bitwise bar.

The fault matrix (:mod:`repro.bench.faulted`) proves each recovery path
in isolation; the chaos soak composes them.  One run drives a miniature
through the adaptive :class:`~repro.resilience.ResilientDriver` under a
storm of *every* fault class at once — transient launch/copy failures,
silent NaN/Inf corruption, multiple permanent device losses — plus an
attack the fault plan cannot express: seeded byte-flips in the newest
stored checkpoint generation, injected right before a rollback so the
recovery path itself is what gets damaged.

The storm is calibrated, not guessed: a fault-free probe run (armed with
a zero-rate plan) counts the draw opportunities of each fault kind and
the per-rank command touches, and the requested ``--events`` budget is
converted into per-draw rates and loss triggers from those counts.  The
same probe run is the *reference*: because the conformance suite pins
results bitwise across device counts, partition weights, OCC levels and
execution modes — and the CG miniature checkpoints its full Krylov
state — a chaos run that survives the storm must finish **bitwise
identical** to the fault-free run.  ``np.array_equal``, not allclose, is
the bar.

Used by ``python -m repro chaos`` and the CI chaos-soak job:
:meth:`ChaosReport.summary` is the terminal view and
:meth:`ChaosReport.to_json` the ``repro-chaos/1`` document, flight-recorder
sample included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import resilience as res
from repro.observability import flight as _flight
from repro.sim import mixed_pcie
from repro.system import Backend
from repro.workloads import JobSpec, build, check_experiment, resilient_factory

from .faulted import WORKLOADS

CHAOS_SCHEMA = "repro-chaos/1"

#: fraction of the requested event budget aimed at each drawn fault kind
_STORM_SPLIT = {"launch": 0.40, "copy": 0.25, "corrupt": 0.35}

#: per-draw rate ceiling: past this, retries stop converging and the
#: storm degenerates into one endless replay instead of a soak
_MAX_RATE = 0.2

#: rates aim past the budget: realized injections scatter around the
#: expectation, and the soak's contract is a *minimum* event count
_OVERSHOOT = 1.8

#: soak length per fault-matrix miniature (same shapes and forcing, more steps)
CHAOS_STEPS = {"lbm": 20, "poisson": 48}


def _backend(devices: int) -> Backend:
    # the heterogeneous preset: tuned degradation has real shares to win
    return Backend.sim_gpus(devices, machine=mixed_pcie(devices))


def _probe(spec: JobSpec, seed: int):
    """Fault-free reference run that doubles as the storm calibrator.

    Armed with a zero-rate plan (plus never-firing loss triggers on every
    rank), the run injects nothing and computes the bitwise reference —
    while the plan's draw counters and per-rank touch counts record how
    many injection opportunities one clean run offers.  The storm's rates
    and loss triggers are derived from exactly these counts.
    """
    plan = res.FaultPlan(seed, device_loss={r: 10**9 for r in range(spec.devices)})
    app = build(spec, backend=_backend(spec.devices))
    with res.session(app.backend, plan):
        app.run()
    reference = app.result_array()
    draws: dict[str, int] = {}
    for (kind, _site), n in plan._draws.items():
        draws[kind] = draws.get(kind, 0) + n
    return reference, draws, dict(plan._touches)


def make_chaos_plan(
    seed: int,
    events: int,
    draws: dict[str, int],
    touches: dict[int, int],
    devices: int,
    losses: int,
) -> res.FaultPlan:
    """The storm: event budget -> per-draw rates + scheduled loss triggers.

    Rates target ``_STORM_SPLIT`` of the budget against the probe's draw
    counts; replayed steps re-draw with advanced counters, so the real
    run only ever sees *more* opportunities than the probe counted.
    Losses take the top ``losses`` ranks (removing the highest rank never
    re-indexes the remaining scheduled ranks) at staggered fractions of
    each rank's touch count, so the fleet shrinks mid-run, not at the
    edges.
    """
    rates = {}
    for kind, frac in _STORM_SPLIT.items():
        # the zero-rate probe never reaches the corruption wrapper (it is
        # compiled out below rate 0), but corruption draws once per kernel
        # launch — the launch draw count is its opportunity count
        d = draws.get(kind, 0) or (draws.get("launch", 0) if kind == "corrupt" else 0)
        rates[kind] = min(_MAX_RATE, _OVERSHOOT * frac * events / d) if d else 0.0
    device_loss = {}
    for j in range(losses):
        rank = devices - 1 - j
        t = touches.get(rank, devices)
        device_loss[rank] = max(1, int(t * (0.35 + 0.3 * j)))
    # corruption is the expensive kind (every hit is a rollback + replay):
    # cap it near its share of the budget so replay re-draws cannot
    # snowball the storm into an unbounded rollback cascade
    corrupt_cap = int(math.ceil(_STORM_SPLIT["corrupt"] * events)) + 3
    return res.FaultPlan(
        seed,
        launch=rates["launch"],
        copy=rates["copy"],
        corrupt=rates["corrupt"],
        device_loss=device_loss,
        max_injections={"corrupt": corrupt_cap},
    )


class ChaosDriver(res.ResilientDriver):
    """The adaptive driver plus seeded checkpoint tampering.

    Before selected rollbacks the driver flips one byte in the newest
    stored checkpoint generation — damage the :class:`FaultPlan` cannot
    model, aimed at the recovery path itself.  The store must detect the
    mismatched CRC and fall back one generation; a run that restores the
    tampered snapshot would break the bitwise bar and fail the soak.
    """

    def __init__(self, *args, tamper_seed: int = 0, tamper_every: int = 4, **kwargs):
        super().__init__(*args, **kwargs)
        self.tamper_seed = tamper_seed
        self.tamper_every = max(1, tamper_every)
        self.tampers = 0
        self._rollback_seen = 0

    def _rollback(self, app, cause):
        self._rollback_seen += 1
        # tamper only when an older generation exists to fall back to:
        # corrupting the sole snapshot terminates the run instead of
        # exercising the fallback path the soak is here to prove
        if len(self.store) >= 2 and (self._rollback_seen - 1) % self.tamper_every == 0:
            self._tamper_latest()
        return super()._rollback(app, cause)

    def _tamper_latest(self) -> None:
        ckpt = self.store.latest
        name, arr = ckpt.arrays[0]
        flat = arr.view(np.uint8).reshape(-1)
        pos = min(
            int(res.unit_draw(self.tamper_seed, "tamper", self.tampers) * flat.size),
            flat.size - 1,
        )
        flat[pos] ^= 0xFF
        self.tampers += 1
        _flight.record(
            "host",
            "fault",
            "checkpoint_tamper",
            {"field": name, "byte": int(pos), "step": ckpt.step, "n": self.tampers},
        )


@dataclass
class ChaosReport:
    """Outcome of one chaos soak, compared against its fault-free twin."""

    workload: str
    devices: int
    surviving_devices: int
    seed: int
    steps: int
    events_requested: int
    losses_planned: int
    injected: dict
    device_losses: int
    tampers: int
    rollbacks: int
    retunes: int
    recovery_seconds: float
    checkpoints: dict
    degrade_reports: list
    retune_reports: list
    flight_kinds: dict
    flight_sample: dict
    faults: dict
    match: bool
    max_abs_error: float

    @property
    def events_total(self) -> int:
        return sum(self.injected.values()) + self.device_losses + self.tampers

    @property
    def ok(self) -> bool:
        return (
            self.match
            and self.events_total >= self.events_requested
            and self.device_losses >= self.losses_planned
            and self.tampers >= 1
            and self.checkpoints.get("fallbacks", 0) >= 1
        )

    def to_json(self) -> dict:
        return {
            "schema": CHAOS_SCHEMA,
            "workload": self.workload,
            "devices": self.devices,
            "surviving_devices": self.surviving_devices,
            "seed": self.seed,
            "steps": self.steps,
            "events": {
                "requested": self.events_requested,
                "total": self.events_total,
                "injected": dict(self.injected),
                "device_losses": self.device_losses,
                "checkpoint_tampers": self.tampers,
            },
            "recoveries": {
                "rollbacks": self.rollbacks,
                "retunes": self.retunes,
                "recovery_seconds": self.recovery_seconds,
                "checkpoints": dict(self.checkpoints),
            },
            "degrade_reports": list(self.degrade_reports),
            "retune_reports": list(self.retune_reports),
            "flight_kinds": dict(self.flight_kinds),
            "flight_sample": self.flight_sample,
            "faults": dict(self.faults),
            "result": {"match_bitwise": self.match, "max_abs_error": self.max_abs_error},
            "ok": self.ok,
        }

    def summary(self) -> str:
        verdict = "SURVIVED" if self.ok else "FAILED"
        lines = [
            f"chaos soak: {self.workload} (seed {self.seed}): {verdict}",
            f"  events:   {self.events_total} total "
            f"(requested >= {self.events_requested}): {self.injected} "
            f"+ {self.device_losses} device loss(es) + {self.tampers} checkpoint tamper(s)",
            f"  devices:  {self.devices} -> {self.surviving_devices} surviving",
            f"  recovery: {self.rollbacks} rollbacks, "
            f"{self.checkpoints.get('fallbacks', 0)} checkpoint fallback(s) "
            f"(max restore depth {self.checkpoints.get('max_restore_depth', 0)}), "
            f"{self.retunes} online retune(s), {self.recovery_seconds:.3f}s recovering",
        ]
        for rep in self.degrade_reports:
            lines.append(
                f"  degrade -> {rep['devices']} devices: tuned occ={rep['occ']} "
                f"mode={rep['mode']} makespan {rep['tuned_makespan'] * 1e3:.3f} ms "
                f"vs uniform {rep['uniform_makespan'] * 1e3:.3f} ms "
                f"({100 * rep['improvement']:.1f}% better)"
            )
        lines.append(
            f"  result vs fault-free: "
            f"{'bitwise identical' if self.match else f'MISMATCH (max |err| = {self.max_abs_error:.3e})'}"
        )
        return "\n".join(lines)


def run_chaos(
    name: str,
    events: int = 50,
    seed: int = 2026,
    devices: int = 4,
    losses: int = 2,
    policy: res.RecoveryPolicy | None = None,
    mode: str = "serial",
) -> ChaosReport:
    """One full soak: probe/reference, calibrated storm, bitwise verdict.

    ``mode`` is the replay mode of every app step, before and after
    every recovery.  ``serial`` makes the whole report a pure function of
    ``seed``; under ``parallel`` the verdict is the same bitwise one while
    the injected / rollback counts depend on the thread schedule once a
    batch has aborted (docs/resilience.md, "Reproducibility").
    """
    check_experiment(name, tuple(CHAOS_STEPS))
    if events < 1:
        raise ValueError("events must be >= 1")
    if losses < 1 or devices - losses < 2:
        raise ValueError(
            f"need >= 1 loss and >= 2 survivors (tuned degradation wants a fleet), "
            f"got devices={devices}, losses={losses}"
        )
    spec = WORKLOADS[name].spec(devices, mode=mode, steps=CHAOS_STEPS[name])
    reference, draws, touches = _probe(spec, seed)
    plan = make_chaos_plan(seed, events, draws, touches, devices, losses)
    if policy is None:
        # short intervals + several generations: corruption rollbacks stay
        # cheap and the tamper attack always has an older snapshot to hit
        policy = res.RecoveryPolicy(
            checkpoint_interval=2,
            max_rollbacks=64 + 4 * events,
            checkpoint_generations=3,
            recalibrate_interval=max(4, spec.steps // 4),
        )
    driver = ChaosDriver(
        resilient_factory(spec),
        _backend(devices),
        spec.steps,
        policy=policy,
        plan=plan,
        experiment=name,
        tamper_seed=seed,
    )
    app = driver.run()

    got = app.result_array()
    return ChaosReport(
        workload=name,
        devices=devices,
        surviving_devices=driver.backend.num_devices,
        seed=seed,
        steps=spec.steps,
        events_requested=events,
        losses_planned=losses,
        injected={k: v for k, v in plan.describe()["injected"].items() if v},
        device_losses=driver.devices_lost,
        tampers=driver.tampers,
        rollbacks=driver.rollbacks,
        retunes=driver.retunes,
        recovery_seconds=driver.recovery_seconds,
        checkpoints=driver.store.describe(),
        degrade_reports=list(driver.degrade_reports),
        retune_reports=list(driver.retune_reports),
        flight_kinds=_flight.FLIGHT.kind_counts(),
        flight_sample=_flight.FLIGHT.snapshot(),
        faults=plan.describe(),
        match=bool(np.array_equal(got, reference)),
        max_abs_error=float(np.max(np.abs(got - reference))),
    )
