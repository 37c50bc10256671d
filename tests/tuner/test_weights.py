from dataclasses import replace

import numpy as np
import pytest

from repro.sim.machine import DeviceSpec, dgx_a100, mixed_pcie, multi_node_a100, pcie_a100
from repro.tuner import WorkloadProfile, device_shares, profile_workload, record_candidate
from repro.tuner.weights import fixed_seconds

BW_BOUND = WorkloadProfile(bytes_per_cell=300.0, flops_per_cell=100.0)


def test_fast_device_gets_larger_slab():
    """Lopsided two-tier machine: the upgraded card must carry more slices."""
    m = mixed_pcie(4)  # even ranks fast, odd ranks slow
    shares = device_shares(m, 4, BW_BOUND, total_cells=1_000_000)
    assert shares[0] > shares[1] and shares[2] > shares[3]
    # shares track the bandwidth ratio (pure bandwidth-bound profile)
    want = m.device_spec(0).mem_bandwidth / m.device_spec(1).mem_bandwidth
    assert shares[0] / shares[1] == pytest.approx(want, rel=0.01)
    assert float(np.sum(shares)) == pytest.approx(1.0)


def test_homogeneous_machine_stays_uniform():
    shares = device_shares(pcie_a100(4), 4, BW_BOUND, total_cells=100_000)
    assert np.allclose(shares, 0.25)


def test_compute_bound_profile_tracks_flops():
    prof = WorkloadProfile(bytes_per_cell=1.0, flops_per_cell=1e6)
    m = mixed_pcie(2)
    shares = device_shares(m, 2, prof, total_cells=10_000)
    want = m.device_spec(0).flops / m.device_spec(1).flops
    assert shares[0] / shares[1] == pytest.approx(want, rel=0.01)


def test_fixed_costs_shift_share_away():
    """A rank whose fixed cost is higher must receive fewer cells."""
    m = pcie_a100(2)
    base = device_shares(m, 2, BW_BOUND, total_cells=1_000_000)
    cell_seconds = 1_000_000 * BW_BOUND.cell_time(m.device_spec(0))
    handicapped = device_shares(
        m, 2, BW_BOUND, total_cells=1_000_000, fixed=np.array([0.0, cell_seconds / 4])
    )
    assert np.allclose(base, 0.5)
    assert handicapped[1] < 0.5 < handicapped[0]


def test_overloaded_rank_clamps_to_floor_and_rebalances():
    """Fixed costs larger than the whole step push a rank to the minimal
    share; the remainder must still be balanced over the other ranks."""
    m = pcie_a100(3)
    huge = 1e9 * BW_BOUND.cell_time(m.device_spec(0))
    shares = device_shares(m, 3, BW_BOUND, total_cells=30_000, fixed=np.array([0.0, huge, 0.0]))
    assert shares[1] < 0.01
    assert shares[0] == pytest.approx(shares[2])
    assert float(np.sum(shares)) == pytest.approx(1.0)


def test_device_shares_validates_inputs():
    with pytest.raises(ValueError):
        device_shares(pcie_a100(2), 2, BW_BOUND, total_cells=0)


def test_profile_workload_derives_per_cell_demand():
    plans, num_active = record_candidate("lbm", dgx_a100(2), 2)
    prof = profile_workload(plans, num_active)
    # D3Q19 two-population streaming moves 19 reads + 19 writes of f64
    assert prof.bytes_per_cell == pytest.approx(19 * 8 * 2, rel=0.2)
    assert prof.flops_per_cell > 0


def test_profile_workload_rejects_empty_grid():
    plans, _ = record_candidate("lbm", dgx_a100(2), 2)
    with pytest.raises(ValueError):
        profile_workload(plans, 0)


def test_fixed_seconds_charges_launch_overheads():
    m = dgx_a100(2)
    plans, _ = record_candidate("poisson", m, 2)
    fixed = fixed_seconds(plans, m, 2)
    assert fixed.shape == (2,)
    assert np.all(fixed >= 0)
    # at least one kernel launch per rank must be charged
    assert np.all(fixed >= m.device_spec(0).launch_overhead)


def test_fixed_seconds_exposes_internode_asymmetry():
    """On the two-level cluster the slab neighbours that straddle the
    node boundary pay the slow link; their fixed cost must exceed the
    intra-node ranks', and their share must shrink accordingly."""
    m = multi_node_a100(2, 2)  # ranks 0,1 node A; ranks 2,3 node B
    plans, num_active = record_candidate("lbm", m, 4)
    fixed = fixed_seconds(plans, m, 4)
    assert fixed[1] > fixed[0] and fixed[2] > fixed[3]
    prof = profile_workload(plans, num_active)
    shares = device_shares(m, 4, prof, num_active, fixed=fixed)
    assert shares[1] < shares[0] and shares[2] < shares[3]


def test_two_tier_custom_machine():
    """device_shares works for hand-built two-tier specs, not just presets."""
    m = replace(
        pcie_a100(2),
        device_overrides=((1, DeviceSpec(mem_bandwidth=0.7e12, flops=5e12, launch_overhead=5e-6)),),
    )
    assert m.is_heterogeneous
    shares = device_shares(m, 2, BW_BOUND, total_cells=50_000)
    assert shares[0] / shares[1] == pytest.approx(2.0, rel=0.01)
