import numpy as np
import pytest

from repro.skeleton import Occ
from repro.solvers.lbm import LidDrivenCavity
from repro.system import Backend


@pytest.fixture
def cavity():
    return LidDrivenCavity(Backend.sim_gpus(2), (12, 10, 10), omega=1.0, lid_velocity=0.05)


def test_initial_state_is_rest_equilibrium(cavity):
    rho, u = cavity.macroscopic()
    assert np.allclose(rho, 1.0)
    assert np.allclose(u, 0.0)


def test_mass_is_conserved(cavity):
    m0 = cavity.total_mass()
    cavity.step(20)
    assert cavity.total_mass() == pytest.approx(m0, rel=1e-12)


def test_lid_drives_flow(cavity):
    cavity.step(30)
    rho, u = cavity.macroscopic()
    # x-velocity near the lid points with the lid
    near_lid = u[2][-1]
    assert near_lid.mean() > 1e-4
    # something must be moving, but nothing faster than the lid-ish scale
    assert np.abs(u).max() < 0.2
    assert np.isfinite(u).all()


def test_no_lid_stays_at_rest():
    cav = LidDrivenCavity(Backend.sim_gpus(1), (8, 8, 8), lid_velocity=0.0)
    cav.step(10)
    rho, u = cav.macroscopic()
    assert np.allclose(u, 0.0, atol=1e-14)
    assert np.allclose(rho, 1.0)


def test_multi_device_matches_single_device():
    results = {}
    for ndev in (1, 3):
        cav = LidDrivenCavity(Backend.sim_gpus(ndev), (12, 8, 8), omega=1.2, lid_velocity=0.08)
        cav.step(15)
        results[ndev] = cav.current.to_numpy()
    assert np.allclose(results[1], results[3], atol=1e-13)


@pytest.mark.parametrize("occ", [Occ.NONE, Occ.STANDARD])
def test_occ_does_not_change_physics(occ):
    cav = LidDrivenCavity(Backend.sim_gpus(2), (12, 8, 8), occ=occ)
    cav.step(10)
    ref = LidDrivenCavity(Backend.sim_gpus(1), (12, 8, 8), occ=Occ.NONE)
    ref.step(10)
    assert np.allclose(cav.current.to_numpy(), ref.current.to_numpy(), atol=1e-13)


def test_lateral_symmetry_preserved(cavity):
    """Lid moves in +x: the y-direction must stay mirror-symmetric."""
    cavity.step(12)
    _, u = cavity.macroscopic()
    uy = u[1]
    assert np.allclose(uy, -uy[:, ::-1, :], atol=1e-12)


def test_mlups_metric_positive():
    cav = LidDrivenCavity(Backend.sim_gpus(4), (64, 64, 64), virtual=True)
    assert cav.lups() > 0
    assert cav.iteration_makespan() > 0
