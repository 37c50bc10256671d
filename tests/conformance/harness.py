"""Shared differential-conformance harness.

Every Skeleton solver is run under a configuration matrix — device
count x OCC level x execution mode x partition weights — and its result
compared *bitwise* against the hand-written native baseline in
:mod:`repro.baselines`.  One native run per solver is the single source
of truth; if any configuration drifts by even one ULP the matrix fails,
which is what makes the partitioning, OCC transforms, execution engine
and tuner-chosen weights safe to enable by default.

Bitwise equality across partitions is only possible because every
reduction in the framework is computed in a canonical per-slice order
(see ``repro/sets/loader.py``); the native baselines use the same
``slice_dot`` so the comparison is exact, not approximate.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.sim.machine import mixed_pcie
from repro.skeleton import Occ
from repro.workloads import JobSpec, build

# Small but partitionable domains: axis 0 must satisfy
# shape[0] >= devices * 2 * halo_radius for the deepest split (8 ways).
LBM_SHAPE = (16, 8, 8)
LBM_STEPS = 10
KARMAN_SHAPE = (24, 48)
KARMAN_STEPS = 8
POISSON_SHAPE = (16, 10, 8)
POISSON_ITERS = 25
ELASTIC_N = 16
ELASTIC_ITERS = 10

DEVICE_COUNTS = (1, 2, 4, 8)
MODES = ("serial", "parallel")
WEIGHTINGS = ("uniform", "tuned")


@functools.lru_cache(maxsize=None)
def tuned_shares(solver: str, devices: int) -> tuple[float, ...]:
    """The autotuner's heterogeneous share vector for this solver.

    Computed on the mixed-generation machine model so the shares are
    genuinely non-uniform — the conformance matrix must prove that the
    partitioning the tuner actually proposes is numerics-neutral.
    """
    from repro.tuner import tune_workload

    return tune_workload(solver, mixed_pcie(devices), devices=devices).shares


def weights_for(solver: str, devices: int, weighting: str):
    if weighting == "uniform" or devices == 1:
        return None
    return tuned_shares(solver, devices)


# -- configurations and runners ------------------------------------------------
# Each runner returns a dict of named float64 arrays ("fingerprints");
# the native reference must match every entry bit for bit.


def served_spec(solver: str, devices: int, occ: Occ, mode: str, weights) -> JobSpec:
    """The one place a configuration's parameters are written down.

    The direct runner, the gateway axis and the ``native_*`` references
    below must all describe the same problem (shape, steps, omega, rhs,
    tolerance, ...), or the differential comparison would be comparing
    different problems.
    """
    config = {"devices": devices, "occ": occ.value, "mode": mode, "weights": weights}
    if solver == "lbm":
        return JobSpec.make("lbm", LBM_SHAPE, LBM_STEPS, omega=1.1, lid_velocity=0.08, **config)
    if solver == "karman":
        return JobSpec.make("karman", KARMAN_SHAPE, KARMAN_STEPS, **config)
    if solver == "poisson":
        return JobSpec.make(
            "poisson", POISSON_SHAPE, POISSON_ITERS, rhs="manufactured", tolerance=1e-12, **config
        )
    if solver == "elasticity":
        return JobSpec.make("elasticity", (ELASTIC_N,), ELASTIC_ITERS, tolerance=1e-12, **config)
    raise KeyError(f"no served spec for solver '{solver}'")


def run_direct(
    solver: str, devices: int, occ: Occ, mode: str, weights, backend=None, fused: bool = True
) -> dict[str, np.ndarray]:
    """Build the spec and run it, no gateway in between.

    ``fused`` is the spec field the fused and layer axes flip; ``build``
    pins it on the application's own plans.  ``backend`` is the one to
    build on (the layer axis arms it first); a fresh one by default.
    """
    spec = dataclasses.replace(served_spec(solver, devices, occ, mode, weights), fused=fused)
    app = build(spec, backend=backend)
    try:
        return app.run()
    finally:
        app.close()


@functools.lru_cache(maxsize=1)
def native_lbm() -> dict[str, np.ndarray]:
    from repro.baselines import NativeCavity

    native = NativeCavity(LBM_SHAPE, omega=1.1, lid_velocity=0.08)
    native.step(LBM_STEPS)
    return {"f": native.f}


@functools.lru_cache(maxsize=1)
def native_karman() -> dict[str, np.ndarray]:
    from repro.baselines import NativeKarman

    native = NativeKarman(KARMAN_SHAPE)
    native.step(KARMAN_STEPS)
    return {"f": native.f}


def _poisson_rhs():
    from repro.solvers import manufactured_problem

    _, f = manufactured_problem(POISSON_SHAPE)
    return f


@functools.lru_cache(maxsize=1)
def native_poisson() -> dict[str, np.ndarray]:
    from repro.baselines import NativePoissonCG

    native = NativePoissonCG(POISSON_SHAPE)
    native.set_rhs(_poisson_rhs())
    res = native.solve(max_iterations=POISSON_ITERS, tolerance=1e-12)
    return {
        "solution": native.solution(),
        "residual_norms": np.asarray(res.residual_norms),
    }


@functools.lru_cache(maxsize=1)
def native_elasticity() -> dict[str, np.ndarray]:
    from repro.baselines import NativeElasticity

    native = NativeElasticity(ELASTIC_N)
    res = native.solve(max_iterations=ELASTIC_ITERS, tolerance=1e-12)
    return {
        "displacement": native.displacement(),
        "residual_norms": np.asarray(res.residual_norms),
    }


SOLVERS = {
    name: (functools.partial(run_direct, name), native)
    for name, native in (
        ("lbm", native_lbm),
        ("karman", native_karman),
        ("poisson", native_poisson),
        ("elasticity", native_elasticity),
    )
}


def assert_bitwise_equal(got: dict[str, np.ndarray], want: dict[str, np.ndarray], label: str) -> None:
    assert set(got) == set(want), f"{label}: fingerprint keys differ"
    for key in want:
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert g.dtype == w.dtype, f"{label}/{key}: dtype {g.dtype} != {w.dtype}"
        assert g.shape == w.shape, f"{label}/{key}: shape {g.shape} != {w.shape}"
        if not np.array_equal(g, w):
            bad = int(np.sum(g != w))
            worst = float(np.max(np.abs(g - w)))
            raise AssertionError(
                f"{label}/{key}: {bad}/{g.size} elements differ (max abs diff {worst:.3e}) — "
                "bitwise conformance against the native baseline is broken"
            )


# -- the cache/serving axis --------------------------------------------------
# The gateway serves jobs from warm cached programs; the conformance bar
# is that a served result — cold or warm replay — is bitwise-identical
# to the direct runner above (and hence to the native baseline).


def run_served(gateway, solver: str, devices: int, occ: Occ, mode: str, weights, tenant="conformance"):
    """One job through the gateway; returns its fingerprints dict."""
    job = gateway.submit(tenant, served_spec(solver, devices, occ, mode, weights))
    return job.result(timeout=600).fingerprints


def matrix_configs(device_counts=DEVICE_COUNTS):
    """The conformance matrix: every multi-device configuration, plus the
    single-device anchor (where OCC, mode and weights are all no-ops and
    one representative configuration suffices)."""
    configs = [(1, Occ.STANDARD, "serial", "uniform")]
    for devices in device_counts:
        if devices == 1:
            continue
        for occ in Occ:
            for mode in MODES:
                for weighting in WEIGHTINGS:
                    configs.append((devices, occ, mode, weighting))
    return configs
