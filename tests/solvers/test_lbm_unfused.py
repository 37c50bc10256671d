import pytest

from repro.domain import D3Q19_STENCIL, DenseGrid
from repro.skeleton import Occ, Skeleton
from repro.solvers.lbm import D3Q19, LidDrivenCavity, make_unfused_step
from repro.system import Backend


def run_unfused(ndev, shape, steps, omega=1.1, lid=0.08):
    backend = Backend.sim_gpus(ndev)
    grid = DenseGrid(backend, shape, stencils=[D3Q19_STENCIL])
    f = [grid.new_field(n, cardinality=19, outside_value=-1.0) for n in ("f0", "f1")]
    mid = grid.new_field("fmid", cardinality=19, outside_value=-1.0)
    for fld in f:
        for q in range(19):
            fld.fill(float(D3Q19.weights[q]), comp=q)
        fld.sync_halo_now()
    sks = [
        Skeleton(backend, make_unfused_step(grid, f[i], mid, f[1 - i], omega, lid), occ=Occ.STANDARD)
        for i in (0, 1)
    ]
    for it in range(steps):
        sks[it % 2].run()
    return f[steps % 2].to_numpy()


def test_unfused_matches_fused_exactly():
    shape, steps = (10, 6, 6), 12
    unfused = run_unfused(2, shape, steps)
    fused = LidDrivenCavity(Backend.sim_gpus(2), shape, omega=1.1, lid_velocity=0.08)
    fused.step(steps)
    assert unfused.tobytes() == fused.current.to_numpy().tobytes()


def test_unfused_multi_device_consistent():
    a = run_unfused(1, (10, 5, 5), 8)
    b = run_unfused(3, (10, 5, 5), 8)
    assert a.tobytes() == b.tobytes()


def test_unfused_costs_roughly_double_memory_traffic():
    """The V-D point, quantified: the unfused pair moves ~2x the DRAM
    bytes of the fused kernel (plus the scratch field's footprint)."""
    backend = Backend.sim_gpus(1)
    grid = DenseGrid(backend, (32, 32, 32), stencils=[D3Q19_STENCIL], virtual=True)
    f0, f1, mid = (grid.new_field(n, cardinality=19, outside_value=-1.0) for n in ("f0", "f1", "m"))
    sk_unfused = Skeleton(backend, make_unfused_step(grid, f0, mid, f1, 1.0, 0.05), occ=Occ.NONE)
    from repro.solvers.lbm import make_twopop_container

    sk_fused = Skeleton(backend, [make_twopop_container(grid, f0, f1, 1.0, 0.05)], occ=Occ.NONE)
    b_unfused = sk_unfused.record().stats.kernel_bytes
    b_fused = sk_fused.record().stats.kernel_bytes
    assert b_unfused == pytest.approx(2.0 * b_fused, rel=0.01)
