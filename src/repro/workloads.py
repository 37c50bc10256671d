"""The four experiments, described once and built in one place.

A :class:`JobSpec` is the description: a declarative, hashable, JSON-able
record of one solver job (experiment, domain shape, step count, solver
parameters, device count, occ/mode/weights/fusion).  :func:`build` is the
constructor: it turns a spec into one live application object that every
consumer drives the same way —

``skeletons``          every compiled skeleton of the application
``step_skeletons``     the ones a single step replays, in order
``reset()``            the exact cold field state (the solver's own ``reset()``)
``run()``              the whole job -> fingerprints (named result arrays)
``fingerprints()``     the result arrays of whatever has run so far
``estimate_seconds()`` DES cost of the whole job — simulated, never a wall clock
``close()``            retire the replay engines

— plus the :class:`~repro.resilience.ResilientDriver` protocol
(``fields()``, ``scalars()``, ``on_restore()``, ``step(i)``,
``result_array()``), so the object a fault run recovers is the object a
plain run replays.  ``trace``, ``report``, ``sanitize``, ``tune``,
``chaos`` and the serving gateway all build through here;
what they keep of their own is a table of *specs* (shapes, step counts,
the right-hand side as a value of the ``rhs`` param), never a builder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.skeleton import Occ
from repro.solvers.elasticity import ElasticitySolver
from repro.solvers.lbm.d2q9 import KarmanVortexStreet
from repro.solvers.lbm.d3q19 import LidDrivenCavity
from repro.solvers.poisson import PoissonSolver, manufactured_problem
from repro.system import EXECUTION_MODES, Backend

EXPERIMENTS = ("lbm", "karman", "poisson", "elasticity")


class UnknownExperiment(KeyError, ValueError):
    """An experiment name outside the set a consumer accepts.

    Both a failed lookup by name and a bad argument value: callers that
    guard a registry lookup catch ``KeyError``, the CLI and the resilient
    driver's re-tune catch ``ValueError``, and either sees this.
    """


def check_experiment(name: str, accepted: tuple[str, ...] = EXPERIMENTS) -> str:
    """``name`` if it is one of ``accepted``; the one error message otherwise."""
    if name not in accepted:
        raise UnknownExperiment(f"unknown experiment '{name}'; expected one of: {', '.join(accepted)}")
    return name


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
        return cls(
            experiment=check_experiment(experiment),
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

    @property
    def label(self) -> str:
        """Human-readable one-liner for CLI output and report headers."""
        return f"{self.experiment} {'x'.join(str(n) for n in self.shape)}, {self.steps} steps"


# -- the two application families --------------------------------------------
class _App:
    """What both families share: plumbing, DES estimate, checkpoint hooks.

    ``state`` is the object carrying the resilience hooks
    (``checkpoint_fields`` / ``checkpoint_scalars`` / ``restore_scalars``):
    the solver itself, unless a family says otherwise.
    """

    def __init__(self, spec: JobSpec, backend: Backend, solver):
        self.spec = spec
        self.backend = backend
        self.solver = self.state = solver

    @property
    def grid(self):
        return self.solver.grid

    def reset(self) -> None:
        self.solver.reset()

    def estimate_seconds(self) -> float:
        """DES cost of the whole job: simulated per-step time x steps."""
        return self.solver.iteration_makespan() * max(1, self.spec.steps)

    def close(self) -> None:
        for sk in self.skeletons:
            sk.close()

    # -- ResilientDriver protocol --------------------------------------------
    def fields(self) -> list:
        return self.state.checkpoint_fields()

    def scalars(self) -> dict:
        return self.state.checkpoint_scalars()

    def on_restore(self, scalars: dict) -> None:
        self.state.restore_scalars(scalars)


class _LbmApp(_App):
    """Two-population LBM: the parity skeletons alternate, one per step."""

    @property
    def skeletons(self) -> list:
        return self.solver.skeletons

    @property
    def step_skeletons(self) -> list:
        return self.solver.skeletons[:1]  # both parities compile the same schedule

    def step(self, i: int) -> None:
        self.solver.step(1, mode=self.spec.mode)

    def run(self) -> dict[str, np.ndarray]:
        self.solver.step(self.spec.steps, mode=self.spec.mode)
        return self.fingerprints()

    def result_array(self) -> np.ndarray:
        return self.solver.current.to_numpy()

    def fingerprints(self) -> dict[str, np.ndarray]:
        return {"f": self.result_array()}


class _CGApp(_App):
    """CG-backed solve: init once, then skeletons A and B per iteration.

    Checkpoints carry the full Krylov state, so a restore resumes the
    identical trajectory and a recovered solve is bitwise the plain one.
    The CG's flush skeleton (serial, one map per rank) runs only when x
    is read, so it is not one of ``skeletons``; it is fused like them.
    """

    def __init__(self, spec: JobSpec, backend: Backend, solver, result_key: str, result):
        super().__init__(spec, backend, solver)
        self.cg = self.state = solver.cg
        self.cg.mode = spec.mode
        self.cg.sk_flush.plan.fuse = spec.fused
        self.tolerance = float(spec.param("tolerance", 1e-12))
        self._result_key, self._result = result_key, result

    @property
    def skeletons(self) -> list:
        return [self.cg.sk_init, self.cg.sk_a, self.cg.sk_b]

    @property
    def step_skeletons(self) -> list:
        return [self.cg.sk_a, self.cg.sk_b]

    def step(self, i: int) -> None:
        if self.cg.result is None:
            self.cg.begin(self.tolerance)
        self.cg.iterate()

    def run(self) -> dict[str, np.ndarray]:
        self.solver.solve(max_iterations=self.spec.steps, tolerance=self.tolerance)
        return self.fingerprints()

    def result_array(self) -> np.ndarray:
        self.cg.flush()
        return self.cg.x.to_numpy()

    def fingerprints(self) -> dict[str, np.ndarray]:
        return {
            self._result_key: self._result(),
            "residual_norms": np.asarray(self.cg.result.residual_norms),
        }


# -- the one constructor of each solver ----------------------------------------
def _manufactured(shape):
    _, f = manufactured_problem(shape)
    return lambda z, y, x: f[z, y, x]


def _bump(shape):
    # deterministic, spectrally rich forcing (an off-centre bump — NOT a
    # Laplacian eigenvector, which would make CG converge in one step)
    return lambda i, j, k: (
        np.exp(-0.05 * ((i - 4.0) ** 2 + (j - 7.0) ** 2 + (k - 10.0) ** 2)) + 0.01 * (i - j + 2.0 * k)
    )


#: values of the Poisson ``rhs`` param: shape -> fn(z, y, x).  A constant
#: rhs excites many Laplacian eigenmodes, so CG sustains full iterations;
#: the manufactured problem has an analytic solution to converge onto.
_RHS = {
    "manufactured": _manufactured,
    "zero": lambda shape: lambda z, y, x: np.zeros_like(np.asarray(z, dtype=np.float64)),
    "ones": lambda shape: lambda z, y, x: np.ones(z.shape, dtype=np.float64),
    "bump": _bump,
}


def _lbm(spec: JobSpec, backend: Backend, common: dict) -> _App:
    solver = LidDrivenCavity(
        backend,
        spec.shape,
        omega=float(spec.param("omega", 1.0)),
        lid_velocity=float(spec.param("lid_velocity", 0.05)),
        **common,
    )
    return _LbmApp(spec, backend, solver)


def _karman(spec: JobSpec, backend: Backend, common: dict) -> _App:
    solver = KarmanVortexStreet(
        backend,
        spec.shape,
        reynolds=float(spec.param("reynolds", 220.0)),
        inflow_velocity=float(spec.param("inflow_velocity", 0.04)),
        **common,
    )
    return _LbmApp(spec, backend, solver)


def _poisson(spec: JobSpec, backend: Backend, common: dict) -> _App:
    rhs = spec.param("rhs", "manufactured")
    if rhs not in _RHS:
        raise ValueError(f"unknown poisson rhs '{rhs}'; supported: {', '.join(_RHS)}")
    solver = PoissonSolver(backend, spec.shape, **common)
    if not solver.grid.virtual:
        solver.set_rhs(_RHS[rhs](spec.shape))
    return _CGApp(spec, backend, solver, "solution", solver.solution)


def _elasticity(spec: JobSpec, backend: Backend, common: dict) -> _App:
    solver = ElasticitySolver.solid_cube(backend, spec.shape[0], **common)
    return _CGApp(spec, backend, solver, "displacement", solver.displacement)


_BUILDERS = {"lbm": _lbm, "karman": _karman, "poisson": _poisson, "elasticity": _elasticity}


def build(spec: JobSpec, machine=None, backend: Backend | None = None, virtual: bool = False) -> _App:
    """Construct the live application for one spec (the cold path).

    Compilation — graph build, OCC, scheduling — happens here, under the
    caller's observability spans.  No program is frozen yet
    (``estimate_seconds()`` / the first ``run()`` does that), so
    ``spec.fused`` is pinned on this application's plans, not flipped
    process-wide.  ``backend`` overrides the ``spec.devices`` x ``machine``
    default (a resilient driver rebuilds on the survivors it has);
    ``virtual`` builds planning-only grids: no payload is allocated and
    the skeletons can be recorded but not run.
    """
    builder = _BUILDERS[check_experiment(spec.experiment)]
    if backend is None:
        backend = Backend.sim_gpus(spec.devices, machine=machine)
    common = {"occ": Occ(spec.occ), "partition_weights": spec.weights, "virtual": virtual}
    app = builder(spec, backend, common)
    for sk in app.skeletons:
        sk.plan.fuse = spec.fused
    return app


def resilient_factory(spec: JobSpec):
    """The :class:`~repro.resilience.ResilientDriver` factory of one spec.

    The driver calls it with the backend it currently has — fewer
    devices after a loss — and whichever of the tuned partition weights /
    OCC it adopted; everything else of the spec, the replay mode included,
    stays as submitted.
    """

    def factory(backend: Backend, partition_weights=None, occ=None) -> _App:
        weights = partition_weights
        if weights is None and backend.num_devices == spec.devices:
            weights = spec.weights
        return build(
            dataclasses.replace(
                spec,
                devices=backend.num_devices,
                weights=weights,
                occ=spec.occ if occ is None else Occ(occ).value,
            ),
            backend=backend,
        )

    return factory


__all__ = [
    "EXPERIMENTS",
    "JobSpec",
    "UnknownExperiment",
    "build",
    "check_experiment",
    "resilient_factory",
]
