"""A twoPop checkpoint is the live population, restored where its parity says.

Between steps the population a step writes is dead
(tests/solvers/test_lbm_dead_population.py), so an LBM checkpoint holds
``f[parity]`` alone and the parity travels as a scalar.  A restore adopts
the scalars before it names its targets, so a generation taken at parity
1 lands in ``f1`` of an application at parity 0 — a fresh rebuild after
a device loss always is one.  Both lattices: D3Q19 (cavity), D2Q9
(Kármán street).
"""

import math

import numpy as np
import pytest

from repro.resilience import Checkpoint, DeviceLost, RecoveryPolicy, ResilientDriver, restore_targets
from repro.system import Backend
from repro.workloads import JobSpec, build, resilient_factory

SPECS = {
    "lbm": JobSpec.make("lbm", (12, 4, 4), 7, devices=3),
    "karman": JobSpec.make("karman", (12, 20), 7, devices=3),
}
EXPERIMENTS = sorted(SPECS)


def stepped(spec: JobSpec, steps: int):
    app = build(spec)
    for i in range(steps):
        app.step(i)
    return app


def reference(spec: JobSpec) -> np.ndarray:
    app = build(spec)
    app.run()
    return app.result_array().copy()


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_checkpoint_holds_the_live_population_only(experiment, parity):
    spec = SPECS[experiment]
    app = stepped(spec, 2 + parity)
    ckpt = Checkpoint.capture(app.fields(), app.scalars(), step=2 + parity)
    assert [name for name, _ in ckpt.arrays] == [f"f{parity}"]
    assert ckpt.scalars == {"parity": parity}
    q = app.solver.lattice.q
    assert ckpt.nbytes == q * math.prod(spec.shape) * 8
    assert ckpt.arrays[0][1].tobytes() == app.solver.f[parity].to_numpy().tobytes()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_parity_one_generation_restores_bitwise_into_a_parity_zero_app(experiment):
    spec = SPECS[experiment]
    taken = stepped(spec, 3)
    ckpt = Checkpoint.capture(taken.fields(), taken.scalars(), step=3)

    fresh = build(spec)
    assert fresh.scalars() == {"parity": 0}
    scalars = ckpt.restore(restore_targets(fresh))
    assert scalars == fresh.scalars() == {"parity": 1}
    assert fresh.solver.current.to_numpy().tobytes() == ckpt.arrays[0][1].tobytes()
    for i in range(3, spec.steps):
        fresh.step(i)
    assert fresh.result_array().tobytes() == reference(spec).tobytes()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_parity_one_generation_restores_bitwise_after_a_device_loss(experiment):
    """The driver checkpoints at step 3 (parity 1); the device lost at
    step 4 sends the job to a fresh 2-device rebuild at parity 0, which
    must adopt the parity before it names the field to restore into."""
    spec = SPECS[experiment]
    factory = resilient_factory(spec)
    lost = []

    def losing_factory(backend, **kwargs):
        app = factory(backend, **kwargs)
        step = app.step

        def step_or_lose(i):
            if i == 4 and not lost:
                lost.append(backend.num_devices - 1)
                raise DeviceLost(lost[0])
            step(i)

        app.step = step_or_lose
        return app

    policy = RecoveryPolicy(checkpoint_interval=3)
    driver = ResilientDriver(losing_factory, Backend.sim_gpus(3), spec.steps, policy=policy)
    app = driver.run()
    assert (lost, driver.devices_lost, app.backend.num_devices) == ([2], 1, 2)
    assert driver.store.restore_depths == [0] and 3 in [c.step for c in driver.store.generations()]
    assert app.result_array().tobytes() == reference(spec).tobytes()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_a_checkpoint_refuses_a_target_of_another_name(experiment):
    taken = stepped(SPECS[experiment], 3)
    ckpt = Checkpoint.capture(taken.fields(), taken.scalars(), step=3)
    fresh = build(SPECS[experiment])
    with pytest.raises(ValueError, match="'f1' does not match target 'f0'"):
        ckpt.restore(fresh.fields())
    with pytest.raises(ValueError, match="'f1' does not match target 'f0'"):
        ckpt.restore(lambda scalars: [fresh.solver.f[0]])
