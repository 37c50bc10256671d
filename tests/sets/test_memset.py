import numpy as np
import pytest

from repro.sets import DataView, LinearSpan, MemSet
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
