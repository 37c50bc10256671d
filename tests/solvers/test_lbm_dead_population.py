"""The twoPop premise: between steps the population a step writes is dead.

A step pulls from the live population and writes the other one, whose
halos the next step syncs before reading them, so no kernel, boundary
rule or halo copy may read the dead population.  Filling it with NaN
(owned cells and halo slots) before every step, and again after a
mid-run checkpoint restore, must leave the live result bitwise equal to
an unpoisoned run — on both lattices, every partition, OCC level,
replay mode and fusion setting, compiled and interpreted.
"""

import numpy as np
import pytest

from repro.resilience.checkpoint import Checkpoint, restore_targets
from repro.skeleton import Occ
from repro.system import EXECUTION_MODES
from repro.workloads import JobSpec, build

from ..serving.test_result_buffers import compiler  # noqa: F401  (cc / REPRO_DISABLE_CC)

SHAPES = {"lbm": (12, 4, 4), "karman": (12, 20)}
STEPS = 4
CHECKPOINT_AT, ROLLED_BACK = 3, 1  # the restore discards ROLLED_BACK steps


def poison_dead_population(solver) -> None:
    """NaN into every owned cell and halo slot of the population the next
    step writes (the box border's ghost slices keep the outside value, a
    boundary condition no step writes)."""
    (dead,) = [fld for fld in solver.f if fld is not solver.current]
    dead.fill(np.nan)
    dead.sync_halo_now()


def poisoned_run(app) -> np.ndarray:
    """``app``'s job from its cold state, poisoned, with one rollback."""
    app.reset()
    steps = 0

    def step() -> None:
        nonlocal steps
        poison_dead_population(app.solver)
        app.step(steps)
        steps += 1

    for _ in range(CHECKPOINT_AT):
        step()
    checkpoint = Checkpoint.capture(app.fields(), app.scalars(), step=steps)
    for _ in range(ROLLED_BACK):
        step()
    checkpoint.restore(restore_targets(app))
    steps = checkpoint.step
    while steps < app.spec.steps:
        step()
    return app.solver.current.to_numpy()


@pytest.mark.usefixtures("compiler")
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("mode", EXECUTION_MODES)
@pytest.mark.parametrize("occ", list(Occ), ids=lambda occ: occ.value)
@pytest.mark.parametrize("devices", [1, 2, 3])
@pytest.mark.parametrize("experiment", sorted(SHAPES))
def test_the_dead_population_is_never_read(experiment, devices, occ, mode, fused):
    spec = JobSpec.make(experiment, SHAPES[experiment], STEPS, devices=devices, occ=occ.value, mode=mode, fused=fused)
    app = build(spec)
    try:
        want = app.run()["f"].copy()
        got = poisoned_run(app)
    finally:
        app.close()
    assert got.tobytes() == want.tobytes()
