"""The adaptive driver: tuned degradation, measured recovery, fallback.

These tests close the loop the runner promises: a heterogeneous fleet
that loses devices re-partitions with *tuned* shares (and the DES says
by how much that wins), recovery time is measured but never acted on,
hopeless degradations fail fast before a half-built app exists, and a
tampered checkpoint costs one generation — never the run.
"""

import numpy as np
import pytest

from repro import observability as obs
from repro import resilience as res
from repro.bench.chaos import chaos_spec
from repro.domain import STENCIL_7PT, DenseGrid
from repro.observability import flight
from repro.resilience import (
    DegradeOverCapacity,
    DeviceLost,
    FaultExhausted,
    FaultPlan,
    RecoveryPolicy,
    ResilientDriver,
    degraded_backend,
)
from repro.sim import mixed_pcie
from repro.system import Backend
from repro.workloads import build, resilient_factory


def mixed_backend(n=4, **kw):
    return Backend.sim_gpus(n, machine=mixed_pcie(n), **kw)


#: the chaos miniatures' 12^3 cavity; the driver, not the spec, counts the steps
cavity_factory = resilient_factory(chaos_spec("lbm", 4))


def cavity_reference(steps, devices=4):
    app = build(chaos_spec("lbm", devices, steps=steps), backend=mixed_backend(devices))
    app.run()
    return app.result_array()


class FlakyApp:
    """One field accumulating +1 per step; fails once on request."""

    def __init__(self, backend, shape=(6, 4, 4), fail_at=None, exc=None):
        grid = DenseGrid(backend, shape, stencils=[STENCIL_7PT], name="flaky")
        self.u = grid.new_field("u")
        self.u.fill(0.0)
        self.fail_at = fail_at
        self.exc = exc
        self.fired = False

    def fields(self):
        return [self.u]

    def scalars(self):
        return {}

    def on_restore(self, scalars):
        pass

    def step(self, i):
        if not self.fired and self.fail_at == i and self.exc is not None:
            self.fired = True
            raise self.exc
        self.u.load_numpy(self.u.to_numpy() + 1.0)

    def value(self):
        return float(self.u.to_numpy().flat[0])


# -- tuned degradation (the acceptance criterion) ----------------------------
def test_degrade_adopts_tuned_shares_on_heterogeneous_fleet():
    """Losing a device on ``mixed_pcie`` must re-partition with tuned,
    non-uniform shares whose DES makespan is >= 10% below the uniform
    degraded plan — and still finish bitwise-correct."""
    steps = 8
    reference = cavity_reference(steps)
    plan = FaultPlan(7, device_loss={3: 120})
    policy = RecoveryPolicy(checkpoint_interval=2)
    driver = ResilientDriver(
        cavity_factory, mixed_backend(4), steps, policy=policy, plan=plan, experiment="lbm"
    )
    app = driver.run()

    assert driver.devices_lost == 1
    assert driver.backend.num_devices == 3
    [rep] = driver.degrade_reports
    assert rep["weights"] is not None and len(set(rep["weights"])) > 1
    assert rep["improvement"] >= 0.10
    assert rep["tuned_makespan"] <= 0.9 * rep["uniform_makespan"]
    # the adopted config is what the next rebuild receives
    assert driver._tuned["partition_weights"] == rep["weights"]
    assert np.array_equal(app.result_array(), reference)


def test_degrade_without_experiment_keeps_uniform_rebuild():
    plan = FaultPlan(7, device_loss={3: 120})
    policy = RecoveryPolicy(checkpoint_interval=2)
    driver = ResilientDriver(cavity_factory, mixed_backend(4), 6, policy=policy, plan=plan)
    driver.run()
    assert driver.devices_lost == 1
    assert driver.degrade_reports == []
    assert driver._tuned is None


def test_degrade_event_records_tuned_vs_uniform_in_flight_ring():
    plan = FaultPlan(7, device_loss={3: 120})
    policy = RecoveryPolicy(checkpoint_interval=2)
    driver = ResilientDriver(
        cavity_factory, mixed_backend(4), 6, policy=policy, plan=plan, experiment="lbm"
    )
    driver.run()
    degrades = [
        ev
        for ring in flight.FLIGHT.tracks.values()
        for ev in ring
        if ev[1] == "degrade"
    ]
    assert degrades
    detail = degrades[0][3]
    assert detail["tuned_makespan"] < detail["uniform_makespan"]
    assert detail["improvement"] >= 0.10


def test_tuning_a_degrade_never_consults_the_armed_plan():
    """The tuner's miniatures are built on backends of their own, which
    nothing arms: the plan that is live on the job's backend sees no draw
    and no touch from the whole search."""
    backend = mixed_backend(4)
    plan = FaultPlan(7, launch=1.0, copy=1.0, alloc=1.0, device_loss={0: 1})
    driver = ResilientDriver(cavity_factory, backend, 6, plan=plan, experiment="lbm")
    with res.session(backend, plan):
        report = driver._tune_for(degraded_backend(backend, 3))
        assert backend.session.faults.plan is plan  # armed throughout, no shield
    assert report is not None and len(driver.last_tune_plan.candidates) > 1
    assert not plan._draws and not plan._touches and not plan.lost


def test_fault_history_does_not_depend_on_observability():
    """No recovery decision reads the tracer: one seeded serial job with
    transient faults and a device loss injects, rolls back, degrades and
    tunes identically with observability off and on, and ends on the
    same bits."""

    def run():
        plan = FaultPlan(8, launch=0.15, copy=0.15, device_loss={3: 120})
        policy = RecoveryPolicy(checkpoint_interval=2)
        driver = ResilientDriver(
            cavity_factory, mixed_backend(4), 8, policy=policy, plan=plan, experiment="lbm"
        )
        app = driver.run()
        counts = (plan.injected(), driver.rollbacks, driver.devices_lost)
        shares = [rep["shares"] for rep in driver.degrade_reports]
        return counts, plan.history, shares, app.result_array()

    obs.disable()
    try:
        bare = run()
    finally:
        obs.enable()
    traced = run()

    counts, history, shares, bits = bare
    assert counts[0] > 0 and counts[1] > 0 and counts[2] == 1 and len(shares) == 1
    assert traced[:3] == (counts, history, shares)
    assert np.array_equal(traced[3], bits)
    assert obs.tracer().spans  # the second run really was traced


# -- multiple losses ---------------------------------------------------------
def test_two_losses_at_different_steps_complete_bitwise():
    steps = 10
    reference = cavity_reference(steps)
    plan = FaultPlan(11, device_loss={3: 120, 2: 600})
    policy = RecoveryPolicy(checkpoint_interval=2)
    driver = ResilientDriver(
        cavity_factory, mixed_backend(4), steps, policy=policy, plan=plan, experiment="lbm"
    )
    app = driver.run()

    assert driver.devices_lost == 2
    assert driver.backend.num_devices == 2
    # survivors were re-indexed monotonically and the plan consumed both
    assert [d.index for d in driver.backend.devices] == [0, 1]
    assert plan.lost == set() and plan.device_loss == {}
    assert np.array_equal(app.result_array(), reference)


def test_back_to_back_loss_during_rebuild_completes_bitwise():
    """The second device dies while the first degrade is still rebuilding:
    the loss must be absorbed before the 3-device app runs a single step."""
    steps = 10
    reference = cavity_reference(steps)

    class SnoopPlan(FaultPlan):
        """Records every rank's touch count at the moment a loss fires."""

        def touch_device(self, rank):
            try:
                super().touch_device(rank)
            except DeviceLost:
                self.at_loss = dict(self._touches)
                raise

    # phase A: single loss; learn how many commands rank 2 had seen when
    # rank 3 died, so phase B can schedule rank 2's death one command later
    probe = SnoopPlan(11, device_loss={3: 150, 2: 10**9})
    policy = RecoveryPolicy(checkpoint_interval=2)
    driver = ResilientDriver(
        cavity_factory, mixed_backend(4), steps, policy=policy, plan=probe, experiment="lbm"
    )
    driver.run()
    trigger = probe.at_loss[2] + 1

    # phase B: rank 2 dies on its very next command — inside the rebuild
    built, stepped = [], []

    def factory(backend, **kwargs):
        built.append(backend.num_devices)
        app = cavity_factory(backend, **kwargs)
        inner = app.step

        def step(i):
            stepped.append(backend.num_devices)
            inner(i)

        app.step = step
        return app

    plan = FaultPlan(11, device_loss={3: 150, 2: trigger})
    driver = ResilientDriver(
        factory, mixed_backend(4), steps, policy=policy, plan=plan, experiment="lbm"
    )
    app = driver.run()

    assert driver.devices_lost == 2
    assert built == [4, 3, 2]
    assert 3 not in stepped  # the intermediate fleet never ran a step
    assert np.array_equal(app.result_array(), reference)


# -- capacity validation -----------------------------------------------------
def test_degrade_over_capacity_is_typed_with_byte_shortfall():
    shape = (40, 8, 8)
    nbytes = 40 * 8 * 8 * 8
    capacity = int(nbytes * 0.8)  # fits split across 2, not whole on 1
    plan = FaultPlan(3, device_loss={1: 10})
    policy = RecoveryPolicy(checkpoint_interval=2)
    backend = Backend.sim_gpus(2, memory_capacity=capacity)
    driver = ResilientDriver(
        lambda b, **kw: FlakyApp(b, shape=shape), backend, 8, policy=policy, plan=plan
    )
    with pytest.raises(DegradeOverCapacity) as ei:
        driver.run()
    exc = ei.value
    assert isinstance(exc, DeviceLost)
    assert exc.shortfall_bytes == nbytes - capacity
    assert exc.demand_bytes == nbytes and exc.capacity_bytes == capacity
    # terminal failures leave a flight post-mortem
    assert any("DegradeOverCapacity" in p for p in flight.FLIGHT.dumps)


# -- recovery time ------------------------------------------------------------
def test_recovery_budget_unset_never_trips():
    """Recovery wall-clock is reported; no amount of it stops a run."""
    exc = FaultExhausted("launch", "site", 4)
    driver = ResilientDriver(
        lambda b, **kw: FlakyApp(b, fail_at=3, exc=exc),
        Backend.sim_gpus(2),
        6,
        policy=RecoveryPolicy(checkpoint_interval=2),
    )
    app = driver.run()
    assert app.value() == 6.0
    assert driver.recovery_seconds > 0.0


# -- tampered checkpoints ----------------------------------------------------
def test_tampered_newest_checkpoint_falls_back_one_generation():
    class TamperingDriver(ResilientDriver):
        def _rollback(self, app, cause):
            if len(self.store) >= 2 and not getattr(self, "_did", False):
                self._did = True
                _name, arr = self.store.latest.arrays[0]
                arr.reshape(-1).view(np.uint8)[3] ^= 0xFF
            return super()._rollback(app, cause)

    exc = FaultExhausted("launch", "site", 4)
    driver = TamperingDriver(
        lambda b, **kw: FlakyApp(b, fail_at=5, exc=exc),
        Backend.sim_gpus(2),
        8,
        policy=RecoveryPolicy(checkpoint_interval=2),
    )
    app = driver.run()
    assert app.value() == 8.0  # replayed from the older generation
    assert driver.store.fallbacks == 1
    assert driver.store.corrupt_dropped == 1
    assert driver.store.max_restore_depth == 1
