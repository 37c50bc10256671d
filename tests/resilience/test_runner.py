"""RecoveryPolicy, degraded backends, and the resilient driver loop."""

import numpy as np
import pytest

from repro import resilience as res
from repro.domain import STENCIL_7PT, DenseGrid
from repro.resilience import (
    CorruptionDetected,
    DeviceLost,
    FaultExhausted,
    FaultPlan,
    RecoveryPolicy,
    ResilientDriver,
    degraded_backend,
)
from repro.sim import pcie_a100
from repro.system import Backend


class CountingApp:
    """Minimal driver-protocol app: one field accumulating +1 per step."""

    def __init__(self, backend, fail_at=None, fail_with=None, fail_times=1):
        self.grid = DenseGrid(backend, (6, 4, 4), stencils=[STENCIL_7PT], name="count")
        self.u = self.grid.new_field("u")
        self.u.fill(0.0)
        self.fail_at = fail_at
        self.fail_with = fail_with
        self.fail_times = fail_times
        self.restores = 0

    def fields(self):
        return [self.u]

    def scalars(self):
        return {"marker": "kept"}

    def on_restore(self, scalars):
        self.restores += 1
        assert scalars == {"marker": "kept"}

    def step(self, i):
        if self.fail_at is not None and i == self.fail_at and self.fail_times > 0:
            self.fail_times -= 1
            raise self.fail_with
        arr = self.u.to_numpy()
        self.u.load_numpy(arr + 1.0)

    def value(self):
        return float(self.u.to_numpy().flat[0])


def test_policy_validation():
    with pytest.raises(ValueError, match="checkpoint_interval"):
        RecoveryPolicy(checkpoint_interval=0)
    with pytest.raises(ValueError, match="max_rollbacks"):
        RecoveryPolicy(max_rollbacks=-1)
    with pytest.raises(ValueError, match="checkpoint_generations"):
        RecoveryPolicy(checkpoint_generations=0)


def test_degraded_backend_shrinks_devices_and_machine():
    b = Backend.sim_gpus(4, machine=pcie_a100(4))
    d = degraded_backend(b, lost_rank=2)
    assert d.num_devices == 3
    assert d.machine.num_devices == 3
    assert d.allocator.capacity_bytes == b.allocator.capacity_bytes


def test_degraded_backend_refuses_when_no_device_survives():
    b = Backend.sim_gpus(1)
    with pytest.raises(DeviceLost, match="cannot degrade"):
        degraded_backend(b, lost_rank=0)


def test_driver_plain_run_without_faults():
    driver = ResilientDriver(CountingApp, Backend.sim_gpus(2), steps=5)
    app = driver.run()
    assert app.value() == 5.0
    assert driver.rollbacks == 0 and driver.devices_lost == 0


def test_driver_rolls_back_and_replays_on_exhaustion():
    def factory(backend):
        return CountingApp(
            backend, fail_at=5, fail_with=FaultExhausted("launch", "s", 4), fail_times=1
        )

    driver = ResilientDriver(factory, Backend.sim_gpus(2), steps=8, policy=RecoveryPolicy(checkpoint_interval=2))
    app = driver.run()
    # rolled back to the step-4 checkpoint, replayed 4..7 -> still 8 increments
    assert app.value() == 8.0
    assert driver.rollbacks == 1
    assert app.restores == 1


def test_driver_rolls_back_on_corruption_by_default():
    def factory(backend):
        return CountingApp(backend, fail_at=3, fail_with=CorruptionDetected(["u"]), fail_times=1)

    driver = ResilientDriver(factory, Backend.sim_gpus(2), steps=6, policy=RecoveryPolicy(checkpoint_interval=2))
    app = driver.run()
    assert app.value() == 6.0
    assert driver.rollbacks == 1


def test_driver_corruption_raise_policy_propagates():
    # max_rollbacks=0: surface the corruption, do not recover from it
    def factory(backend):
        return CountingApp(backend, fail_at=3, fail_with=CorruptionDetected(["u"]), fail_times=1)

    driver = ResilientDriver(
        factory, Backend.sim_gpus(2), steps=6, policy=RecoveryPolicy(max_rollbacks=0)
    )
    with pytest.raises(CorruptionDetected):
        driver.run()
    assert driver.rollbacks == 0


def test_driver_max_rollbacks_bounds_livelock():
    def factory(backend):
        # fails forever at step 1: every replay hits it again
        return CountingApp(
            backend, fail_at=1, fail_with=FaultExhausted("copy", "s", 4), fail_times=10**9
        )

    driver = ResilientDriver(
        factory, Backend.sim_gpus(2), steps=4, policy=RecoveryPolicy(max_rollbacks=3)
    )
    with pytest.raises(FaultExhausted):
        driver.run()
    assert driver.rollbacks == 3


def test_driver_degrades_on_device_loss_and_resumes():
    built_on = []

    def factory(backend):
        built_on.append(backend.num_devices)
        if backend.num_devices == 3:
            return CountingApp(backend, fail_at=4, fail_with=DeviceLost(2), fail_times=1)
        return CountingApp(backend)

    driver = ResilientDriver(
        factory,
        Backend.sim_gpus(3, machine=pcie_a100(3)),
        steps=6,
        policy=RecoveryPolicy(checkpoint_interval=2),
    )
    app = driver.run()
    assert built_on == [3, 2]  # rebuilt on the survivors
    assert driver.devices_lost == 1
    assert app.value() == 6.0  # state migrated: resumed from step-4 checkpoint
    assert app.grid.num_devices == 2


def test_driver_device_loss_consumes_plan_entry():
    plan = FaultPlan(seed=0, device_loss={1: 1})

    def factory(backend):
        fail = DeviceLost(1) if backend.num_devices == 3 else None
        return CountingApp(backend, fail_at=2 if fail else None, fail_with=fail, fail_times=1)

    driver = ResilientDriver(factory, Backend.sim_gpus(3), steps=4, plan=plan)
    app = driver.run()
    assert plan.device_loss == {}  # acknowledged: survivors are not shadowed
    assert app.value() == 4.0


def test_driver_rejects_negative_steps():
    with pytest.raises(ValueError):
        ResilientDriver(CountingApp, Backend.sim_gpus(2), steps=-1)


def test_session_restores_prior_state():
    backend, plan, inner = Backend.sim_gpus(2), FaultPlan(seed=1, launch=0.5), FaultPlan(seed=2)
    assert backend.session.faults is None
    with res.session(backend, plan) as outer:
        assert backend.session.faults is outer and outer.plan is plan
        assert isinstance(outer.policy, RecoveryPolicy)  # the default one
        with res.session(backend, inner, RecoveryPolicy(max_attempts=1)):
            assert backend.session.faults.plan is inner
        assert backend.session.faults is outer
    assert backend.session.faults is None


def test_driver_disarms_every_backend_it_adopted():
    plan = FaultPlan(seed=0, device_loss={1: 1})
    first = Backend.sim_gpus(3)
    driver = ResilientDriver(CountingApp, first, steps=2, plan=plan)
    driver.run()
    assert driver.backend is not first and driver.devices_lost == 1
    assert first.session.faults is None and driver.backend.session.faults is None


def test_zero_steps_still_builds_and_returns_app():
    driver = ResilientDriver(CountingApp, Backend.sim_gpus(2), steps=0)
    app = driver.run()
    assert app.value() == 0.0
