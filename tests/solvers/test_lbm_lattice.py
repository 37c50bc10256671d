import numpy as np
import pytest

from repro.solvers.lbm import D2Q9, D3Q19, omega_from_reynolds
from repro.solvers.lbm.lattice import CS2


@pytest.mark.parametrize("lat", [D2Q9, D3Q19])
def test_weights_sum_to_one(lat):
    assert np.isclose(lat.weights.sum(), 1.0)


@pytest.mark.parametrize("lat", [D2Q9, D3Q19])
def test_velocity_set_is_symmetric(lat):
    for q in range(lat.q):
        assert np.array_equal(lat.velocities[lat.opposite[q]], -lat.velocities[q])
        assert lat.weights[lat.opposite[q]] == lat.weights[q]


@pytest.mark.parametrize("lat", [D2Q9, D3Q19])
def test_first_moments_vanish(lat):
    # sum_q w_q e_q = 0 (isotropy)
    assert np.allclose(lat.weights @ lat.velocities, 0.0)


@pytest.mark.parametrize("lat", [D2Q9, D3Q19])
def test_second_moment_isotropy(lat):
    # sum_q w_q e_qa e_qb = cs2 * delta_ab
    m = np.einsum("q,qa,qb->ab", lat.weights, lat.velocities.astype(float), lat.velocities.astype(float))
    assert np.allclose(m, CS2 * np.eye(lat.ndim))


@pytest.mark.parametrize("lat", [D2Q9, D3Q19])
def test_equilibrium_moments_roundtrip(lat):
    rng = np.random.default_rng(3)
    rho = 1.0 + 0.05 * rng.standard_normal((4, 5))
    u = 0.05 * rng.standard_normal((lat.ndim, 4, 5))
    feq = lat.equilibrium(rho, u)
    rho2, u2 = lat.moments(feq)
    assert np.allclose(rho2, rho)
    assert np.allclose(u2, u, atol=1e-12)


def test_equilibrium_at_rest_is_weights():
    feq = D3Q19.equilibrium(np.float64(1.0), np.zeros(3))
    assert np.allclose(feq, D3Q19.weights)


def test_d3q19_counts():
    assert D3Q19.q == 19
    norms = np.abs(D3Q19.velocities).sum(axis=1)
    assert (norms <= 2).all()
    assert (norms == 0).sum() == 1
    assert (norms == 1).sum() == 6
    assert (norms == 2).sum() == 12


def test_omega_from_reynolds_in_stable_range():
    omega = omega_from_reynolds(220.0, 0.04, 20.0)
    assert 0.0 < omega < 2.0
