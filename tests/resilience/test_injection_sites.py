"""The injection sites: queue launch/copy, allocation, corruption, guardrail.

Every site hides behind one attribute read on its own backend's
``session`` slot; on a backend nobody armed the faulted paths must be
unreachable, whatever is armed on another backend of the process.
"""

import numpy as np
import pytest

from repro import resilience as res
from repro.domain import STENCIL_7PT, DenseGrid
from repro.resilience import (
    CorruptionDetected,
    FaultExhausted,
    FaultPlan,
    RecoveryPolicy,
)
from repro.skeleton import Skeleton
from repro.skeleton.executor import scan_non_finite
from repro.system import AllocationError, Backend


def make_increment(grid, u, name="inc"):
    def loading(loader):
        up = loader.read_write(u)

        def compute(span):
            up.view_all(span)[...] += 1.0

        return compute

    return grid.new_container(name, loading)


def build(devices=2, shape=(4, 4, 4)):
    backend = Backend.sim_gpus(devices)
    grid = DenseGrid(backend, shape, stencils=[STENCIL_7PT], name="inj")
    u = grid.new_field("u")
    u.fill(0.0)
    return backend, grid, u


def test_disarmed_layer_injects_nothing():
    plan = FaultPlan(seed=0, launch=1.0, copy=1.0, alloc=1.0, corrupt=1.0)
    with res.session(Backend.sim_gpus(2), plan, RecoveryPolicy(max_attempts=1)):
        backend, grid, u = build()  # allocates and fills beside the armed backend
        assert backend.session.faults is None
        sk = Skeleton(backend, [make_increment(grid, u)], name="calm")
        u.sync_halo_now()
        sk.run()
        sk.run(mode="parallel")
        assert np.all(u.to_numpy() == 2.0)
    assert plan.injected() == 0 and not plan._draws


def test_launch_faults_absorbed_by_queue_retry():
    backend, grid, u = build()
    plan = FaultPlan(seed=3, launch=0.4)
    sk = Skeleton(backend, [make_increment(grid, u)], name="retrying")
    with res.session(backend, plan, RecoveryPolicy(max_attempts=6)):
        for _ in range(10):
            sk.run()
    assert plan.injected("launch") > 0
    assert np.all(u.to_numpy() == 10.0)  # every retry replayed exactly once


def test_launch_fault_exhaustion_surfaces_typed_error():
    backend, grid, u = build()
    plan = FaultPlan(seed=0, launch=1.0)
    sk = Skeleton(backend, [make_increment(grid, u)], name="doomed")
    with res.session(backend, plan, RecoveryPolicy(max_attempts=2)):
        with pytest.raises(FaultExhausted):
            sk.run()


def test_copy_faults_injected_on_halo_exchange():
    backend, grid, u = build()
    plan = FaultPlan(seed=1, copy=0.5)
    with res.session(backend, plan, RecoveryPolicy(max_attempts=8)):
        u.sync_halo_now()
        u.sync_halo_now()
    assert plan.injected("copy") > 0


def test_allocation_fault_raises_allocation_error_with_report():
    backend, grid, _ = build()
    plan = FaultPlan(seed=0, alloc=1.0)
    with res.session(backend, plan):
        with pytest.raises(AllocationError, match="injected"):
            grid.new_field("doomed")


def test_corruption_injected_into_owned_cells_only():
    backend, grid, u = build()
    plan = FaultPlan(seed=2, corrupt=1.0, max_injections={"corrupt": 1})
    sk = Skeleton(backend, [make_increment(grid, u)], name="sdc")
    with res.session(backend, plan), pytest.raises(CorruptionDetected):
        sk.run()
    assert plan.injected("corrupt") == 1
    # exactly one owned cell poisoned (NaN or Inf) ...
    assert (~np.isfinite(u.to_numpy())).sum() == 1
    # ... and nothing in buffer slack: the poison is visible in the global
    # view, so a checkpoint restore can clear it (no rollback livelock)
    raw_bad = sum(int((~np.isfinite(buf.array)).sum()) for buf in u.buffers)
    assert raw_bad == 1


def test_guardrail_rolls_corruption_into_typed_error():
    backend, grid, u = build()
    plan = FaultPlan(seed=2, corrupt=1.0, max_injections={"corrupt": 1})
    sk = Skeleton(backend, [make_increment(grid, u)], name="guarded")
    with res.session(backend, plan):
        with pytest.raises(CorruptionDetected, match="u"):
            sk.run()


def test_scan_ignores_buffer_slack_but_sees_owned_cells():
    _, grid, u = build()
    u.fill(1.0)
    probe = make_increment(grid, u, "probe")
    # poison a global-border ghost slice: owned state stays clean
    u.buffers[0].array[0, 0] = np.nan
    assert scan_non_finite([probe]) == []
    # poison an owned cell: the scan must name the field
    arr = u.to_numpy()
    arr[0, 1, 1, 1] = np.nan
    u.load_numpy(arr)
    assert scan_non_finite([probe]) == ["u"]


def test_device_loss_at_queue_site():
    backend, grid, u = build(devices=3, shape=(6, 4, 4))
    plan = FaultPlan(seed=0, device_loss={2: 1})
    sk = Skeleton(backend, [make_increment(grid, u)], name="lossy")
    with res.session(backend, plan):
        with pytest.raises(res.DeviceLost):
            sk.run()
