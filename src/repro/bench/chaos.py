"""The fault harness: seeded fault profiles with a bitwise bar.

One run drives a miniature through the adaptive
:class:`~repro.resilience.ResilientDriver` under one *profile* of
:data:`PROFILES`.  The default, ``storm``, composes every fault class at
once — transient launch/copy failures, silent NaN/Inf corruption, two
permanent device losses — plus an attack the fault plan cannot express:
seeded byte-flips in the newest stored checkpoint generation, injected
right before a rollback so the recovery path itself is what gets
damaged.  The other profiles are the same storm with a different split:
``transient`` (launch + copy faults only), ``transient+loss`` (the same
plus one device loss) and ``corruption`` (silent corruption only), so
each recovery path can also be proven in isolation.

Every profile is calibrated, not guessed: a fault-free probe run (armed
with a zero-rate plan) counts the draw opportunities of each fault kind
and the per-rank command touches, and the requested ``events`` budget is
converted into per-draw rates and loss triggers from those counts.  The
same probe run is the *reference*: because the conformance suite pins
results bitwise across device counts, partition weights, OCC levels and
execution modes — and the CG miniature checkpoints its full Krylov
state — a run that survives its profile must finish **bitwise
identical** to the fault-free run, on a recovered schedule that still
proves its own synchronisation.  ``np.array_equal``, not allclose, is
the bar.

Used by ``python -m repro chaos`` and the CI chaos-soak job:
:meth:`ChaosReport.summary` is the terminal view and
:meth:`ChaosReport.to_json` the ``repro-chaos/1`` document, flight-recorder
sample included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from repro import resilience as res
from repro.observability import flight as _flight
from repro.sim import mixed_pcie, sim_replay
from repro.skeleton import check_trace_dependencies
from repro.system import Backend
from repro.workloads import JobSpec, build, check_experiment, resilient_factory

CHAOS_SCHEMA = "repro-chaos/1"


class Profile(NamedTuple):
    """One fault profile: a storm with its own split."""

    #: fraction of the requested event budget aimed at each drawn fault kind
    split: dict[str, float]
    #: permanent device losses, staggered over the top ranks
    losses: int
    #: whether the checkpoint-tamper attack runs
    tamper: bool


PROFILES = {
    "storm": Profile({"launch": 0.40, "copy": 0.25, "corrupt": 0.35}, losses=2, tamper=True),
    "transient": Profile({"launch": 0.50, "copy": 0.50}, losses=0, tamper=False),
    "transient+loss": Profile({"launch": 0.50, "copy": 0.50}, losses=1, tamper=False),
    "corruption": Profile({"corrupt": 1.0}, losses=0, tamper=False),
}

#: per-draw rate ceiling: past this, retries stop converging and the
#: storm degenerates into one endless replay instead of a soak
_MAX_RATE = 0.2

#: rates aim past the budget: realized injections scatter around the
#: expectation, and the soak's contract is a *minimum* event count
_OVERSHOOT = 1.8

#: the miniatures every profile runs (4 devices, serial replay)
CHAOS_SPECS = {
    # lid-driven-cavity D3Q19 LBM (full-state checkpoints)
    "lbm": JobSpec.make("lbm", (12, 12, 12), 20, devices=4),
    # Poisson conjugate gradient (Krylov-state checkpoints)
    "poisson": JobSpec.make("poisson", (16, 16, 16), 48, devices=4, rhs="bump", tolerance=1e-8),
}


def chaos_spec(name: str, devices: int = 4, mode: str = "serial", steps: int | None = None) -> JobSpec:
    """The miniature ``name`` of :data:`CHAOS_SPECS` on ``devices`` devices."""
    spec = CHAOS_SPECS[check_experiment(name, tuple(CHAOS_SPECS))]
    return replace(spec, devices=devices, mode=mode, steps=spec.steps if steps is None else steps)


def _backend(devices: int) -> Backend:
    # the heterogeneous preset: tuned degradation has real shares to win
    return Backend.sim_gpus(devices, machine=mixed_pcie(devices))


def _probe(spec: JobSpec, seed: int):
    """Fault-free reference run that doubles as the profile calibrator.

    Armed with a zero-rate plan (plus never-firing loss triggers on every
    rank), the run injects nothing and computes the bitwise reference —
    while the plan's draw counters and per-rank touch counts record how
    many injection opportunities one clean run offers.  A profile's rates
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
    profile: str = "storm",
) -> res.FaultPlan:
    """One profile's plan: event budget -> per-draw rates + loss triggers.

    Rates target the profile's split of the budget against the probe's
    draw counts; replayed steps re-draw with advanced counters, so the
    real run only ever sees *more* opportunities than the probe counted.
    Losses take the top ranks (removing the highest rank never re-indexes
    the remaining scheduled ranks) at staggered fractions of each rank's
    touch count, so the fleet shrinks mid-run, not at the edges.
    """
    row = PROFILES[profile]
    rates = {}
    for kind, frac in row.split.items():
        # the zero-rate probe never reaches the corruption wrapper (it is
        # compiled out below rate 0), but corruption draws once per kernel
        # launch — the launch draw count is its opportunity count
        d = draws.get(kind, 0) or (draws.get("launch", 0) if kind == "corrupt" else 0)
        rates[kind] = min(_MAX_RATE, _OVERSHOOT * frac * events / d) if d else 0.0
    device_loss = {}
    for j in range(row.losses):
        rank = devices - 1 - j
        t = touches.get(rank, devices)
        device_loss[rank] = max(1, int(t * (0.35 + 0.3 * j)))
    # corruption is the expensive kind (every hit is a rollback + replay):
    # cap it near its share of the budget so replay re-draws cannot
    # snowball the storm into an unbounded rollback cascade
    caps = {}
    if "corrupt" in row.split:
        caps["corrupt"] = int(math.ceil(row.split["corrupt"] * events)) + 3
    return res.FaultPlan(seed, **rates, device_loss=device_loss, max_injections=caps)


class ChaosDriver(res.ResilientDriver):
    """The adaptive driver plus seeded checkpoint tampering.

    Before selected rollbacks the driver flips one byte in the newest
    stored checkpoint generation — damage the :class:`FaultPlan` cannot
    model, aimed at the recovery path itself.  The store must detect the
    mismatched CRC and fall back one generation; a run that restores the
    tampered snapshot would break the bitwise bar and fail the soak.
    ``tamper_every=None`` turns the attack off.
    """

    def __init__(self, *args, tamper_seed: int = 0, tamper_every: int | None = 4, **kwargs):
        super().__init__(*args, **kwargs)
        self.tamper_seed = tamper_seed
        self.tamper_every = tamper_every
        self.tampers = 0
        self._rollback_seen = 0

    def _rollback(self, app, cause):
        self._rollback_seen += 1
        # tamper only when an older generation exists to fall back to:
        # corrupting the sole snapshot terminates the run instead of
        # exercising the fallback path the soak is here to prove
        if (
            self.tamper_every
            and len(self.store) >= 2
            and (self._rollback_seen - 1) % self.tamper_every == 0
        ):
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
    """Outcome of one profile run, compared against its fault-free twin."""

    workload: str
    profile: str
    devices: int
    surviving_devices: int
    seed: int
    steps: int
    events_requested: int
    injected: dict
    device_losses: int
    tampers: int
    rollbacks: int
    recovery_seconds: float
    checkpoints: dict
    degrade_reports: list
    flight_kinds: dict
    flight_sample: dict
    faults: dict
    violations: int
    match: bool
    max_abs_error: float

    @property
    def events_total(self) -> int:
        return sum(self.injected.values()) + self.device_losses + self.tampers

    @property
    def ok(self) -> bool:
        """The one verdict: bitwise, a schedule that proves itself, and
        every event the profile's row asks for delivered."""
        row = PROFILES[self.profile]
        return (
            self.match
            and self.violations == 0
            and self.events_total >= self.events_requested
            and all(self.injected.get(kind, 0) >= 1 for kind in row.split)
            and self.device_losses >= row.losses
            and (not row.tamper or (self.tampers >= 1 and self.checkpoints.get("fallbacks", 0) >= 1))
        )

    def to_json(self) -> dict:
        return {
            "schema": CHAOS_SCHEMA,
            "workload": self.workload,
            "profile": self.profile,
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
                "recovery_seconds": self.recovery_seconds,
                "checkpoints": dict(self.checkpoints),
            },
            "degrade_reports": list(self.degrade_reports),
            "flight_kinds": dict(self.flight_kinds),
            "flight_sample": self.flight_sample,
            "faults": dict(self.faults),
            "result": {
                "match_bitwise": self.match,
                "max_abs_error": self.max_abs_error,
                "violations": self.violations,
            },
            "ok": self.ok,
        }

    def summary(self) -> str:
        verdict = "SURVIVED" if self.ok else "FAILED"
        lines = [
            f"chaos {self.profile}: {self.workload} (seed {self.seed}): {verdict}",
            f"  events:   {self.events_total} total "
            f"(requested >= {self.events_requested}): {self.injected} "
            f"+ {self.device_losses} device loss(es) + {self.tampers} checkpoint tamper(s)",
            f"  devices:  {self.devices} -> {self.surviving_devices} surviving",
            f"  recovery: {self.rollbacks} rollbacks, "
            f"{self.checkpoints.get('fallbacks', 0)} checkpoint fallback(s) "
            f"(max restore depth {self.checkpoints.get('max_restore_depth', 0)}), "
            f"{self.recovery_seconds:.3f}s recovering",
        ]
        for rep in self.degrade_reports:
            lines.append(
                f"  degrade -> {rep['devices']} devices: tuned occ={rep['occ']} "
                f"mode={rep['mode']} makespan {rep['tuned_makespan'] * 1e3:.3f} ms "
                f"vs uniform {rep['uniform_makespan'] * 1e3:.3f} ms "
                f"({100 * rep['improvement']:.1f}% better)"
            )
        lines += [
            f"  result vs fault-free: "
            f"{'bitwise identical' if self.match else f'MISMATCH (max |err| = {self.max_abs_error:.3e})'}",
            f"  dependency violations on the recovered schedule: {self.violations}",
        ]
        return "\n".join(lines)


def run_chaos(
    name: str,
    events: int = 50,
    seed: int = 2026,
    devices: int = 4,
    profile: str = "storm",
    policy: res.RecoveryPolicy | None = None,
    mode: str = "serial",
) -> ChaosReport:
    """One full run: probe/reference, calibrated profile, bitwise verdict.

    ``mode`` is the replay mode of every app step, before and after
    every recovery.  ``serial`` makes the whole report a pure function of
    ``seed`` — tuned degradation scores on the DES alone and nothing
    reads a wall clock or the tracer; under ``parallel`` the
    verdict is the same bitwise one while the injected / rollback counts
    depend on the thread schedule once a batch has aborted
    (docs/resilience.md, "Reproducibility").
    """
    spec = chaos_spec(name, devices, mode)
    if profile not in PROFILES:
        raise ValueError(f"unknown fault profile '{profile}'; expected one of: {', '.join(PROFILES)}")
    if events < 1:
        raise ValueError("events must be >= 1")
    losses = PROFILES[profile].losses
    if devices - losses < 2:
        raise ValueError(
            f"profile '{profile}' loses {losses} device(s) and needs >= 2 survivors "
            f"(tuned degradation wants a fleet), got devices={devices}"
        )
    reference, draws, touches = _probe(spec, seed)
    plan = make_chaos_plan(seed, events, draws, touches, devices, profile)
    if policy is None:
        # short intervals + several generations: corruption rollbacks stay
        # cheap and the tamper attack always has an older snapshot to hit
        policy = res.RecoveryPolicy(
            checkpoint_interval=2, max_rollbacks=64 + 4 * events, checkpoint_generations=3
        )
    driver = ChaosDriver(
        resilient_factory(spec),
        _backend(devices),
        spec.steps,
        policy=policy,
        plan=plan,
        experiment=name,
        tamper_seed=seed,
        tamper_every=4 if PROFILES[profile].tamper else None,
    )
    app = driver.run()

    # the recovered schedule must still prove its own synchronisation
    violations = 0
    for sk in app.skeletons:
        recorded = sk.record()
        violations += len(check_trace_dependencies(recorded, sim_replay(recorded, sk.backend.machine)))

    got = app.result_array()
    return ChaosReport(
        workload=name,
        profile=profile,
        devices=devices,
        surviving_devices=driver.backend.num_devices,
        seed=seed,
        steps=spec.steps,
        events_requested=events,
        injected={k: v for k, v in plan.describe()["injected"].items() if v},
        device_losses=driver.devices_lost,
        tampers=driver.tampers,
        rollbacks=driver.rollbacks,
        recovery_seconds=driver.recovery_seconds,
        checkpoints=driver.store.describe(),
        degrade_reports=list(driver.degrade_reports),
        flight_kinds=_flight.FLIGHT.kind_counts(),
        flight_sample=_flight.FLIGHT.snapshot(),
        faults=plan.describe(),
        violations=violations,
        match=bool(np.array_equal(got, reference)),
        max_abs_error=float(np.max(np.abs(got - reference))),
    )
