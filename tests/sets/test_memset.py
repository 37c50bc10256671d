import numpy as np
import pytest

from repro.sets import DataView, LinearSpan, MemSet
from repro.sim import MachineSpec, SpanKind, simulate
from repro.sim.machine import DeviceSpec
from repro.sim.topology import Topology
from repro.system import Backend


@pytest.fixture
def backend():
    return Backend.sim_gpus(3)


def test_per_device_buffer_sizes(backend):
    ms = MemSet(backend, [10, 20, 30], np.float64)
    assert [len(ms.partition(r)) for r in range(3)] == [10, 20, 30]
    assert ms.host.shape == (60,)


def test_cardinality_adds_second_axis(backend):
    ms = MemSet(backend, [4, 4, 4], np.float32, cardinality=3)
    assert ms.partition(0).array.shape == (4, 3)
    assert ms.bytes_per_cell == 12


def test_count_per_device_required(backend):
    with pytest.raises(ValueError):
        MemSet(backend, [10, 20], np.float64)


def test_negative_count_rejected(backend):
    with pytest.raises(ValueError):
        MemSet(backend, [10, -1, 5], np.float64)


def test_standard_span_covers_partition(backend):
    ms = MemSet(backend, [10, 20, 30], np.float64)
    span = ms.span_for(1, DataView.STANDARD)
    assert (span.start, span.stop, span.count) == (0, 20, 20)


def test_boundary_span_is_empty_no_stencil(backend):
    ms = MemSet(backend, [10, 20, 30], np.float64)
    assert ms.span_for(0, DataView.BOUNDARY).is_empty
    assert ms.span_for(0, DataView.INTERNAL).count == 10


def test_host_logical_view_is_contiguous(backend):
    ms = MemSet(backend, [2, 3, 4], np.float64)
    ms.host[...] = np.arange(9)
    assert np.array_equal(ms.host_slice(0), [0, 1])
    assert np.array_equal(ms.host_slice(1), [2, 3, 4])
    assert np.array_equal(ms.host_slice(2), [5, 6, 7, 8])


def test_h2d_then_d2h_roundtrip(backend):
    ms = MemSet(backend, [2, 3, 4], np.float64)
    ms.host[...] = np.arange(9, dtype=float)
    for rank in range(ms.num_devices):
        ms.update_device(rank, backend.new_queue(rank))
    assert np.array_equal(ms.partition(1).array, [2, 3, 4])
    ms.partition(1).array[...] = -1
    for rank in range(ms.num_devices):
        ms.update_host(rank, backend.new_queue(rank))
    assert np.array_equal(ms.host, [0, 1, -1, -1, -1, 5, 6, 7, 8])


def test_no_host_mirror_raises_on_host_access(backend):
    ms = MemSet(backend, [1, 1, 1], np.float64, host_mirror=False)
    assert ms.host is None
    with pytest.raises(RuntimeError):
        ms.host_slice(0)


def test_fill_sets_everything(backend):
    ms = MemSet(backend, [2, 2, 2], np.float64)
    ms.fill(7.5)
    assert np.all(ms.host == 7.5)
    assert all(np.all(b.array == 7.5) for b in ms.buffers)


def test_partition_view_over_span(backend):
    ms = MemSet(backend, [5, 5, 5], np.float64)
    part = ms.partition(0)
    part.array[...] = np.arange(5)
    assert np.array_equal(part.view(LinearSpan(1, 4)), [1, 2, 3])


def test_invalid_span_rejected():
    with pytest.raises(ValueError):
        LinearSpan(3, 2)
    with pytest.raises(ValueError):
        LinearSpan(-1, 2)


def test_update_device_costs_bytes_over_host_bandwidth():
    # 10 M float64 = 80 MB over a 1 GB/s host link with no latency: 0.08 s in the DES
    machine = MachineSpec(
        name="t",
        device=DeviceSpec(mem_bandwidth=1e12, flops=1e15, launch_overhead=0.0),
        topology=Topology.all_to_all(1, bandwidth=1e9, latency=0.0, host_bandwidth=1e9, host_latency=0.0),
    )
    backend = Backend.sim_gpus(1, machine=machine)
    ms = MemSet(backend, [10_000_000], np.float64)
    q = backend.new_queue(0, name="q", eager=False)
    ms.update_device(0, q)
    trace = simulate([q], machine)
    (span,) = [s for s in trace.spans if s.kind is SpanKind.COPY]
    assert span.duration == pytest.approx(0.08)
