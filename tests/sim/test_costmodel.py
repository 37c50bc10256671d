import pytest

from repro.sim import DeviceSpec, kernel_duration
from repro.sim.topology import Link
from repro.system import KernelCost


SPEC = DeviceSpec(mem_bandwidth=1e12, flops=1e13, launch_overhead=1e-6)


def test_bandwidth_bound_kernel():
    # 1 GB of traffic, negligible flops -> 1 ms + launch
    cost = KernelCost(bytes_moved=1e9, flops=1.0)
    assert kernel_duration(cost, SPEC) == pytest.approx(1e-3 + 1e-6)


def test_compute_bound_kernel():
    # 1e12 flops dominates the tiny memory traffic
    cost = KernelCost(bytes_moved=8.0, flops=1e12)
    assert kernel_duration(cost, SPEC) == pytest.approx(0.1 + 1e-6)


def test_roofline_takes_max_not_sum():
    cost = KernelCost(bytes_moved=1e9, flops=1e10)  # mem 1e-3, compute 1e-3
    assert kernel_duration(cost, SPEC) == pytest.approx(1e-3 + 1e-6)


def test_indirection_scales_memory_term():
    base = KernelCost(bytes_moved=1e9)
    slow = KernelCost(bytes_moved=1e9, indirection=2.0)
    d0 = kernel_duration(base, SPEC)
    d1 = kernel_duration(slow, SPEC)
    assert d1 - 1e-6 == pytest.approx(2 * (d0 - 1e-6))


def test_multiple_launches_pay_overhead_each():
    one = kernel_duration(KernelCost(bytes_moved=1e6, launches=1), SPEC)
    three = kernel_duration(KernelCost(bytes_moved=1e6, launches=3), SPEC)
    assert three - one == pytest.approx(2e-6)


def test_transfer_duration_uses_link():
    link = Link(bandwidth=1e10, latency=5e-6)
    assert link.transfer_time(int(1e10)) == pytest.approx(1.0 + 5e-6)


def test_invalid_device_spec_rejected():
    with pytest.raises(ValueError):
        DeviceSpec(mem_bandwidth=0, flops=1)
