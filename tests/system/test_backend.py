import numpy as np
import pytest

from repro.sim import cpu_host, dgx_a100, pcie_a100, pcie_gv100
from repro.system import Backend, DeviceType


def test_default_machine_matches_device_count():
    be = Backend.sim_gpus(5)
    assert be.machine.num_devices == 5
    assert be.num_devices == 5


def test_machine_resized_to_backend():
    be = Backend.sim_gpus(3, machine=dgx_a100(8))
    assert be.machine.num_devices == 3


def test_cpu_backend_is_single_cpu():
    be = Backend.cpu()
    assert be.num_devices == 1
    assert be.machine.name == "cpu-host"
    assert be.devices[0].kind is DeviceType.CPU


def test_gpu_backend_not_cpu():
    assert all(d.kind is DeviceType.GPU for d in Backend.sim_gpus(2).devices)


def test_new_queue_binds_device():
    be = Backend.sim_gpus(2)
    q = be.new_queue(1, name="q")
    assert q.device is be.device(1)


def test_allocate_routes_through_allocator():
    be = Backend.sim_gpus(2, memory_capacity=768)
    be.allocate(0, (64,), np.float64)
    from repro.system import AllocationError

    with pytest.raises(AllocationError):
        be.allocate(0, (64,), np.float64)


def test_machine_presets_have_expected_ordering():
    # memory-to-link bandwidth ratios drive every OCC result: NVLink is
    # generous, PCIe is not
    dgx = dgx_a100(2)
    pcie = pcie_a100(2)
    gv = pcie_gv100(2)
    assert dgx.topology.link(0, 1).bandwidth > 10 * pcie.topology.link(0, 1).bandwidth
    assert dgx.device.mem_bandwidth == pcie.device.mem_bandwidth
    assert gv.device.mem_bandwidth < dgx.device.mem_bandwidth
    cpu = cpu_host()
    assert cpu.num_devices == 1


def test_full_app_runs_on_cpu_backend():
    """Portability: the same user code runs on the CPU back end."""
    from repro.skeleton import Occ
    from repro.solvers import PoissonSolver, manufactured_problem

    shape = (8, 6, 6)
    u_exact, f = manufactured_problem(shape)
    solver = PoissonSolver(Backend.cpu(), shape, occ=Occ.NONE)
    solver.set_rhs(lambda z, y, x: f[z, y, x])
    res = solver.solve(max_iterations=200, tolerance=1e-10)
    assert res.converged
    assert np.allclose(solver.solution(), u_exact, atol=1e-7)
