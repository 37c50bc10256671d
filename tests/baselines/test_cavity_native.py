import numpy as np
import pytest

from repro.baselines import NativeCavity, cavity_native
from repro.solvers.lbm import LidDrivenCavity
from repro.system import Backend


def test_native_cavity_matches_framework_exactly():
    shape = (10, 8, 8)
    native = NativeCavity(shape, omega=1.1, lid_velocity=0.08)
    fw = LidDrivenCavity(Backend.sim_gpus(2), shape, omega=1.1, lid_velocity=0.08)
    native.step(15)
    fw.step(15)
    assert np.allclose(native.f, fw.current.to_numpy(), atol=1e-13)


def test_native_cavity_conserves_mass():
    sim = NativeCavity((8, 8, 8), lid_velocity=0.05)
    m0 = sim.total_mass()
    sim.step(10)
    assert sim.total_mass() == pytest.approx(m0, rel=1e-12)


def test_native_cavity_rest_without_lid():
    sim = NativeCavity((8, 8, 8), lid_velocity=0.0)
    f0 = sim.f.copy()
    sim.step(5)
    assert np.allclose(sim.f, f0, atol=1e-14)


def test_native_cavity_lid_drives_flow():
    sim = NativeCavity((10, 8, 8), omega=1.2, lid_velocity=0.1)
    sim.step(30)
    _, u = sim.macroscopic()
    assert u[2][-1].mean() > 1e-4


def test_native_cavity_bits_do_not_depend_on_the_slab(monkeypatch):
    """The collision runs slab by slab into the same ``f``; three-plane slabs
    (the last one short) give the bits of a single slab."""
    ref = NativeCavity((10, 8, 8), omega=1.1, lid_velocity=0.08)
    ref.step(6)
    monkeypatch.setattr(cavity_native, "SLAB_CELLS", 3 * 8 * 8)
    sim = NativeCavity((10, 8, 8), omega=1.1, lid_velocity=0.08)
    f0 = sim.f
    sim.step(6)
    assert sim.f is f0
    assert sim.f.tobytes() == ref.f.tobytes()
