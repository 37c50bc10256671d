"""Data-structure portability: the identical LBM kernel on the
element-sparse grid (connectivity gathers) must reproduce the dense
grid's trajectory exactly — the paper's decoupling claim applied to its
most complex kernel."""

import pytest

from repro.skeleton import Occ
from repro.solvers.lbm import LidDrivenCavity
from repro.system import Backend


def test_sparse_cavity_matches_dense():
    dense = LidDrivenCavity(Backend.sim_gpus(2), (10, 6, 6), omega=1.1, lid_velocity=0.08)
    sparse = LidDrivenCavity(Backend.sim_gpus(2), (10, 6, 6), omega=1.1, lid_velocity=0.08, sparse=True)
    dense.step(12)
    sparse.step(12)
    assert dense.current.to_numpy().tobytes() == sparse.current.to_numpy().tobytes()


def test_sparse_cavity_multi_device_consistency():
    outs = {}
    for ndev in (1, 3):
        cav = LidDrivenCavity(Backend.sim_gpus(ndev), (12, 5, 5), sparse=True)
        cav.step(8)
        outs[ndev] = cav.current.to_numpy()
    assert outs[1].tobytes() == outs[3].tobytes()


def test_sparse_cavity_conserves_mass():
    cav = LidDrivenCavity(Backend.sim_gpus(2), (10, 6, 6), sparse=True)
    m0 = cav.total_mass()
    cav.step(10)
    assert cav.total_mass() == pytest.approx(m0, rel=1e-12)


def test_virtual_sparse_cavity_times():
    cav = LidDrivenCavity(Backend.sim_gpus(4), (64, 32, 32), sparse=True, virtual=True)
    dense = LidDrivenCavity(Backend.sim_gpus(4), (64, 32, 32), virtual=True)
    # identical cell count but the sparse grid pays the indirection factor
    assert cav.iteration_makespan() > dense.iteration_makespan()


@pytest.mark.parametrize("occ", [Occ.NONE, Occ.STANDARD])
def test_sparse_cavity_occ_invariant(occ):
    ref = LidDrivenCavity(Backend.sim_gpus(1), (10, 5, 5), occ=Occ.NONE, sparse=True)
    cav = LidDrivenCavity(Backend.sim_gpus(2), (10, 5, 5), occ=occ, sparse=True)
    ref.step(6)
    cav.step(6)
    assert ref.current.to_numpy().tobytes() == cav.current.to_numpy().tobytes()
