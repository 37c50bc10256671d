"""Served workloads: job specs and warm-replayable solver adapters.

A :class:`JobSpec` is the unit of admission: a declarative, hashable,
JSON-able description of one solver job (experiment, domain shape, step
count, solver parameters, device count, occ/mode/weights/fusion).  Its
:func:`workload_signature` plus the machine model name address the plan
cache — see :class:`repro.serving.plancache.PlanKey`.

An adapter wraps one live solver application so the gateway can replay
it across jobs: ``reset()`` restores the *exact* post-construction field
state (the same ``fill`` + halo-sync sequence the constructor ran, so a
warm replay is bitwise-identical to a cold one), ``run()`` executes the
job and returns the result fingerprints, and ``close()`` retires the
replay engines.  ``estimate_seconds()`` is the DES cost of the whole
job under the backend's machine model — simulated seconds, never a wall
clock — which is what the gateway's fair scheduler orders admission by.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.system import EXECUTION_MODES, Backend

from .plancache import PlanKey

#: experiments the gateway can serve; values build the adapter
_EXPERIMENTS = ("lbm", "karman", "poisson", "elasticity")


@dataclass(frozen=True)
class JobSpec:
    """One solver job, fully described and hashable.

    ``params`` holds the solver-specific knobs as a sorted tuple of
    ``(name, value)`` pairs so the spec stays frozen/hashable; use
    :meth:`make` to build one from keyword arguments.
    """

    experiment: str
    shape: tuple[int, ...]
    steps: int
    devices: int = 2
    occ: str = "standard"
    mode: str = "serial"
    weights: tuple[float, ...] | None = None
    fused: bool = True
    params: tuple[tuple[str, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {self.mode!r}; expected one of {EXECUTION_MODES}"
            )

    @classmethod
    def make(
        cls,
        experiment: str,
        shape,
        steps: int,
        devices: int = 2,
        occ: str = "standard",
        mode: str = "serial",
        weights=None,
        fused: bool = True,
        **params,
    ) -> "JobSpec":
        if experiment not in _EXPERIMENTS:
            supported = ", ".join(_EXPERIMENTS)
            raise KeyError(f"no served workload named '{experiment}'; supported: {supported}")
        return cls(
            experiment=experiment,
            shape=tuple(int(n) for n in shape),
            steps=int(steps),
            devices=int(devices),
            occ=occ,
            mode=mode,
            weights=None if weights is None else tuple(float(w) for w in weights),
            fused=bool(fused),
            params=tuple(sorted(params.items())),
        )

    def param(self, name: str, default):
        for key, value in self.params:
            if key == name:
                return value
        return default


def workload_signature(spec: JobSpec) -> str:
    """Canonical workload identity: experiment, domain, steps, params.

    Deliberately excludes devices/occ/mode/weights/fused — those are
    *configuration* axes, separate fields of the
    :class:`~repro.serving.plancache.PlanKey` — so the same signature
    under two configurations shares one tuning identity.
    """
    dims = "x".join(str(n) for n in spec.shape)
    extras = ";".join(f"{k}={v!r}" for k, v in spec.params)
    return f"{spec.experiment}[{dims}]steps={spec.steps}" + (f";{extras}" if extras else "")


def plan_key(spec: JobSpec, machine: str) -> PlanKey:
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


# -- adapters ----------------------------------------------------------------
class _Served:
    """Base adapter: backend plumbing + DES estimate + engine teardown."""

    def __init__(self, spec: JobSpec, backend: Backend):
        self.spec = spec
        self.backend = backend

    @property
    def skeletons(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def estimate_seconds(self) -> float:
        """DES cost of the whole job: simulated per-step time × steps."""
        return self.solver.iteration_makespan() * max(1, self.spec.steps)

    def close(self) -> None:
        for sk in self.skeletons:
            sk.close()


class _ServedLBM(_Served):
    def __init__(self, spec: JobSpec, backend: Backend):
        from repro.skeleton import Occ
        from repro.solvers.lbm import LidDrivenCavity

        super().__init__(spec, backend)
        self.solver = LidDrivenCavity(
            backend,
            spec.shape,
            omega=float(spec.param("omega", 1.0)),
            lid_velocity=float(spec.param("lid_velocity", 0.05)),
            occ=Occ(spec.occ),
            partition_weights=spec.weights,
        )

    @property
    def skeletons(self):
        return self.solver.skeletons

    def reset(self) -> None:
        # the constructor's exact init sequence: zero-velocity equilibrium
        # per component, halos synced, parity zeroed
        lattice = self.solver.lattice
        feq0 = 1.0  # RHO0
        for fld in self.solver.f:
            for q in range(lattice.q):
                fld.fill(feq0 * lattice.weights[q], comp=q)
            fld.sync_halo_now()
        self.solver._parity = 0

    def run(self) -> dict[str, np.ndarray]:
        self.solver.step(self.spec.steps, mode=self.spec.mode)
        return {"f": self.solver.current.to_numpy()}


class _ServedKarman(_Served):
    def __init__(self, spec: JobSpec, backend: Backend):
        from repro.skeleton import Occ
        from repro.solvers.lbm.d2q9 import KarmanVortexStreet

        super().__init__(spec, backend)
        self.solver = KarmanVortexStreet(
            backend,
            spec.shape,
            reynolds=float(spec.param("reynolds", 220.0)),
            inflow_velocity=float(spec.param("inflow_velocity", 0.04)),
            occ=Occ(spec.occ),
            partition_weights=spec.weights,
        )

    @property
    def skeletons(self):
        return self.solver.skeletons

    def reset(self) -> None:
        # mask is static; only the population fields and parity restart
        solver = self.solver
        feq0 = solver.lattice.equilibrium(np.float64(1.0), np.array([0.0, solver.inflow_velocity]))
        for fld in solver.f:
            for q in range(solver.lattice.q):
                fld.fill(float(feq0[q]), comp=q)
            fld.sync_halo_now()
        solver._parity = 0

    def run(self) -> dict[str, np.ndarray]:
        self.solver.step(self.spec.steps, mode=self.spec.mode)
        return {"f": self.solver.current.to_numpy()}


class _ServedCG(_Served):
    """Common CG-backed adapter: reset = zero the iterate, replay begin()."""

    def reset(self) -> None:
        # begin() rebuilds r/p/q and every host scalar from x and b, so
        # zeroing the iterate (halos included) restores the cold state
        x = self.solver.cg.x
        x.fill(0.0)
        x.sync_halo_now()


class _ServedPoisson(_ServedCG):
    def __init__(self, spec: JobSpec, backend: Backend):
        from repro.skeleton import Occ
        from repro.solvers import PoissonSolver, manufactured_problem

        super().__init__(spec, backend)
        self.solver = PoissonSolver(
            backend, spec.shape, occ=Occ(spec.occ), partition_weights=spec.weights
        )
        self.solver.cg.mode = spec.mode
        rhs = spec.param("rhs", "manufactured")
        if rhs == "manufactured":
            _, f = manufactured_problem(spec.shape)
            self.solver.set_rhs(lambda z, y, x: f[z, y, x])
        elif rhs == "zero":
            self.solver.set_rhs(lambda z, y, x: np.zeros_like(np.asarray(z, dtype=np.float64)))
        else:
            raise KeyError(f"unknown poisson rhs '{rhs}'; supported: manufactured, zero")

    @property
    def skeletons(self):
        cg = self.solver.cg
        return [cg.sk_init, cg.sk_a, cg.sk_b]

    def run(self) -> dict[str, np.ndarray]:
        res = self.solver.solve(
            max_iterations=self.spec.steps,
            tolerance=float(self.spec.param("tolerance", 1e-12)),
        )
        return {
            "solution": self.solver.solution(),
            "residual_norms": np.asarray(res.residual_norms),
        }


class _ServedElasticity(_ServedCG):
    def __init__(self, spec: JobSpec, backend: Backend):
        from repro.skeleton import Occ
        from repro.solvers.elasticity import ElasticitySolver

        super().__init__(spec, backend)
        self.solver = ElasticitySolver.solid_cube(
            backend, spec.shape[0], occ=Occ(spec.occ), partition_weights=spec.weights
        )
        self.solver.cg.mode = spec.mode

    @property
    def skeletons(self):
        cg = self.solver.cg
        return [cg.sk_init, cg.sk_a, cg.sk_b]

    def run(self) -> dict[str, np.ndarray]:
        res = self.solver.solve(
            max_iterations=self.spec.steps,
            tolerance=float(self.spec.param("tolerance", 1e-12)),
        )
        return {
            "displacement": self.solver.displacement(),
            "residual_norms": np.asarray(res.residual_norms),
        }


_ADAPTERS = {
    "lbm": _ServedLBM,
    "karman": _ServedKarman,
    "poisson": _ServedPoisson,
    "elasticity": _ServedElasticity,
}


def build_served(spec: JobSpec, machine=None) -> _Served:
    """Construct the live solver application for one spec (the cold path).

    Compilation — graph build, OCC, scheduling — happens here, under the
    caller's observability spans; the gateway calls this exactly once
    per plan key and replays via ``reset()`` afterwards.  No program is
    frozen yet (``estimate_seconds()`` / first ``run()`` does that), so
    ``spec.fused`` is pinned on this job's plans, not flipped process-wide.
    """
    backend = Backend.sim_gpus(spec.devices, machine=machine)
    app = _ADAPTERS[spec.experiment](spec, backend)
    for sk in app.skeletons:
        sk.plan.fuse = spec.fused
    return app


__all__ = ["JobSpec", "build_served", "plan_key", "workload_signature"]
