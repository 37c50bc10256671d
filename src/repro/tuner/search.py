"""The tuner search: OCC level x execution mode x partition weights.

For each candidate triple the workload is rebuilt on *virtual* grids
(weights bind at grid construction; no payload allocation, record-only
kernels), its command stream recorded, and the
recording replayed through the DES under the target
:class:`~repro.sim.machine.MachineSpec` — the objective is simulated
seconds per application step, never a wall clock.  The weight axis is
not enumerated blindly: besides the uniform split, the cost model
proposes the share vector that equalises per-device step time
(:func:`repro.tuner.weights.device_shares`), optionally blended halfway
towards uniform to hedge against model error.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.sim.machine import MachineSpec
from repro.sim.replay import sim_makespan_total
from repro.skeleton import Occ
from repro.system import EXECUTION_MODES
from repro.workloads import JobSpec, build, check_experiment

from .weights import device_shares, fixed_seconds, profile_workload

#: Benchmark-scale domains (the paper's experiments run 192^3..512^3):
#: virtual recording cost is independent of cell count, so the tuner
#: scores the schedule of the size class users actually run, where the
#: compute/communication balance is realistic.  Tiny domains would be
#: gated by per-transfer latency and make every partitioning look alike.
TUNER_SHAPES = {
    "lbm": (1024, 96, 96),
    "karman": (8192, 256),
    "poisson": (512, 96, 96),
    "elasticity": (96,),
}


def record_candidate(
    experiment: str,
    machine: MachineSpec,
    devices: int,
    occ: Occ = Occ.STANDARD,
    partition_weights=None,
) -> tuple[list, int]:
    """Record one candidate configuration: ``(plans, active cells)``.

    The application is the real one (:func:`repro.workloads.build`), on a
    fresh virtual backend per candidate; ``plans`` are the recordings of
    the skeletons one step replays, in order (LBM's single fused kernel,
    CG's A/B pair) — what :func:`repro.sim.replay.sim_makespan_total`
    expects.
    """
    spec = JobSpec.make(
        experiment,
        TUNER_SHAPES[check_experiment(experiment)],
        steps=1,
        devices=devices,
        occ=occ.value,
        weights=partition_weights,
    )
    app = build(spec, machine=machine, virtual=True)
    return [sk.record() for sk in app.step_skeletons], app.grid.num_active


@dataclass(frozen=True)
class Candidate:
    """One scored configuration."""

    occ: str
    mode: str
    weights: tuple[float, ...] | None  # None = uniform split
    makespan: float

    @property
    def weights_label(self) -> str:
        return "uniform" if self.weights is None else "tuned"


@dataclass
class TunePlan:
    """The tuner's decision for one (experiment, machine) pair."""

    experiment: str
    machine: str
    devices: int
    best: Candidate
    baseline: Candidate
    shares: tuple[float, ...]
    candidates: list[Candidate] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fraction of the baseline's simulated step time saved."""
        if self.baseline.makespan <= 0.0:
            return 0.0
        return 1.0 - self.best.makespan / self.baseline.makespan

    @property
    def uniform_best(self) -> Candidate | None:
        """The best candidate restricted to uniform partition weights.

        This is what a weights-blind tuner would pick — the fair
        comparison point for "did the tuned shares themselves pay off",
        as opposed to :attr:`baseline` (uniform *and* default OCC/mode),
        which is what an untuned run would do.
        """
        uniform = [c for c in self.candidates if c.weights is None]
        if not uniform:
            return None
        return min(uniform, key=lambda c: c.makespan)

    @property
    def tuned_vs_uniform(self) -> float:
        """Fraction of the best-uniform makespan saved by the tuned shares."""
        u = self.uniform_best
        if u is None or u.makespan <= 0.0:
            return 0.0
        return 1.0 - self.best.makespan / u.makespan

    def to_dict(self) -> dict:
        d = asdict(self)
        d["improvement"] = self.improvement
        d["tuned_vs_uniform"] = self.tuned_vs_uniform
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TunePlan":
        """Rebuild a plan from :meth:`to_dict` output (e.g. a plan cache).

        The derived ``improvement`` / ``tuned_vs_uniform`` keys are
        ignored — they are properties recomputed from the candidates —
        so ``TunePlan.from_dict(plan.to_dict())`` round-trips exactly.
        So is any other unknown key, such as the ``fit_quality`` older
        plan caches carry.
        """

        def candidate(c: dict) -> Candidate:
            if c["mode"] not in EXECUTION_MODES:
                raise ValueError(f"tune plan names unknown execution mode {c['mode']!r}")
            weights = c.get("weights")
            return Candidate(
                occ=c["occ"],
                mode=c["mode"],
                weights=None if weights is None else tuple(float(w) for w in weights),
                makespan=float(c["makespan"]),
            )

        return cls(
            experiment=d["experiment"],
            machine=d["machine"],
            devices=int(d["devices"]),
            best=candidate(d["best"]),
            baseline=candidate(d["baseline"]),
            shares=tuple(float(s) for s in d["shares"]),
            candidates=[candidate(c) for c in d.get("candidates", [])],
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @property
    def best_occ(self) -> Occ:
        return Occ(self.best.occ)


def tune_workload(experiment: str, machine: MachineSpec, devices: int = 4) -> TunePlan:
    """Full tuner search for one workload on one machine.

    The baseline — what a user gets with no tuning — is the uniform
    split at :attr:`Occ.STANDARD` with serial host dispatch; its
    makespan anchors :attr:`TunePlan.improvement`.  The search space
    is fixed: every OCC level x every execution mode x the weight options.
    """
    # 1. probe: record the uniform workload once to derive the profile
    #    and the per-rank fixed costs, then let the cost model propose
    #    capability-proportional shares
    plans, num_active = record_candidate(experiment, machine, devices)
    profile = profile_workload(plans, num_active)
    fixed = fixed_seconds(plans, machine, devices)
    shares = device_shares(machine, devices, profile, num_active, fixed=fixed)

    weight_options: list[tuple[float, ...] | None] = [None]
    if machine.is_heterogeneous or len(set(np.round(shares, 6))) > 1:
        tuned = tuple(float(s) for s in shares)
        weight_options.append(tuned)
        uniform = np.full(devices, 1.0 / devices)
        blended = 0.5 * shares + 0.5 * uniform
        weight_options.append(tuple(float(s) for s in blended / blended.sum()))

    # 2. enumerate: every (weights, occ, mode) triple, scored by DES replay
    candidates: list[Candidate] = []
    baseline: Candidate | None = None
    best: Candidate | None = None
    for weights in weight_options:
        for occ in Occ:
            plans, _ = record_candidate(experiment, machine, devices, occ=occ, partition_weights=weights)
            for mode in EXECUTION_MODES:
                t = sim_makespan_total(plans, machine, mode=mode)
                cand = Candidate(occ=occ.value, mode=mode, weights=weights, makespan=t)
                candidates.append(cand)
                if weights is None and occ is Occ.STANDARD and mode == "serial":
                    baseline = cand
                if best is None or t < best.makespan:
                    best = cand
    assert best is not None and baseline is not None
    return TunePlan(
        experiment=experiment,
        machine=machine.name,
        devices=devices,
        best=best,
        baseline=baseline,
        shares=tuple(float(s) for s in shares),
        candidates=candidates,
    )
