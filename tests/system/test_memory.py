import numpy as np
import pytest

from repro.domain.layout import CACHE_LINE, component_pitch
from repro.system import AllocationError, DeviceAllocator, DeviceSet
from repro.system.memory import ALIGNMENT


@pytest.fixture
def dev():
    return DeviceSet.gpus(2)[0]


def test_buffer_zero_initialised(dev):
    alloc = DeviceAllocator()
    buf = alloc.allocate(dev, (8, 3), np.float64)
    assert buf.shape == (8, 3)
    assert buf.dtype == np.float64
    assert np.all(buf.array == 0.0)


def test_large_payload_zeroed_writable_and_outlives_its_buffer(dev):
    # 4 MiB and up comes from an anonymous mapping (memory._zeroed_payload)
    buf = DeviceAllocator().allocate(dev, (1024, 3, 256), np.float64)
    arr = buf.array
    assert arr.shape == (1024, 3, 256) and arr.dtype == np.float64
    assert arr.flags.writeable and arr.flags.c_contiguous and not arr.any()
    arr[-1, -1, -1] = 7.0
    del buf
    assert arr[-1, -1, -1] == 7.0  # the array keeps the mapping alive


def test_allocated_bytes_rounds_to_alignment(dev):
    alloc = DeviceAllocator()
    buf = alloc.allocate(dev, (3,), np.float32)
    assert buf.nbytes == 12
    assert buf.allocated_bytes == 256
    assert alloc.allocate(dev, (64,), np.float64).allocated_bytes == 512  # a multiple stays as is


@pytest.mark.parametrize("shape", [(3, 5, 7), (2, 1024, 3, 256)])  # the second is mmap-backed
def test_pitched_buffer_is_a_view_of_one_block(dev, shape):
    cells = int(np.prod(shape[1:]))
    buf = DeviceAllocator().allocate(dev, shape, np.float64, pitch=cells + 8)
    arr = buf.array
    assert arr.shape == shape and arr.strides[0] == (cells + 8) * 8 and not arr.any()
    assert all(arr[i].flags.c_contiguous for i in range(shape[0]))
    assert buf.nbytes == shape[0] * cells * 8  # logical payload
    assert buf.padding_bytes == shape[0] * 8 * 8  # pitch slack
    raw = buf.nbytes + buf.padding_bytes
    assert buf.allocated_bytes == -(-raw // 256) * 256
    with pytest.raises(ValueError, match="pitch"):
        DeviceAllocator().allocate(dev, shape, np.float64, pitch=cells - 1)


@pytest.mark.parametrize(
    "shape, dtype",
    [
        ((1,), np.float64),
        ((3,), np.float32),
        ((26, 24, 24), np.float64),  # a cg24x8 slab
        ((7, 5, 3), np.int8),
        ((1024, 3, 256), np.float64),  # 6 MiB: past the anonymous-mapping cutoff
    ],
)
@pytest.mark.parametrize("card", [None, 3])  # plain, or pitched SoA components
def test_every_payload_starts_on_an_alignment_boundary(dev, shape, dtype, card):
    """Kernels are built for 64-byte vectors: a payload placed wherever the
    host allocator puts it splits most of their loads across two lines."""
    alloc, itemsize = DeviceAllocator(), np.dtype(dtype).itemsize
    for _ in range(8):  # the host allocator's placement varies block to block
        if card is None:
            buf = alloc.allocate(dev, shape, dtype)
        else:
            cells = int(np.prod(shape))
            buf = alloc.allocate(dev, (card, *shape), dtype, pitch=component_pitch(cells, itemsize))
        assert buf.array.ctypes.data % ALIGNMENT == 0, hex(buf.array.ctypes.data)
        if card is not None:
            assert all(buf.array[c].ctypes.data % CACHE_LINE == 0 for c in range(card))
        assert not buf.array.any() and buf.array.flags.writeable
        assert buf.allocated_bytes == -(-(buf.nbytes + buf.padding_bytes) // ALIGNMENT) * ALIGNMENT


def test_capacity_enforced_per_device():
    ds = DeviceSet.gpus(2)
    alloc = DeviceAllocator(capacity_bytes=1024)
    alloc.allocate(ds[0], (64,), np.float64)  # 512 B
    alloc.allocate(ds[1], (96,), np.float64)  # 768 B on the other device, fine
    with pytest.raises(AllocationError):
        alloc.allocate(ds[0], (96,), np.float64)


def test_free_returns_capacity(dev):
    alloc = DeviceAllocator(capacity_bytes=1024)
    buf = alloc.allocate(dev, (128,), np.float64)  # 1024 B: the whole capacity
    alloc.free(buf)
    assert alloc.used_bytes(dev) == 0
    alloc.allocate(dev, (128,), np.float64)


def test_double_free_rejected(dev):
    alloc = DeviceAllocator()
    buf = alloc.allocate(dev, (4,), np.float32)
    alloc.free(buf)
    with pytest.raises(AllocationError):
        alloc.free(buf)


def test_report_lists_live_allocations_largest_first(dev):
    alloc = DeviceAllocator()
    alloc.allocate(dev, (32,), np.float64)  # 256 B
    big = alloc.allocate(dev, (2, 62), np.float64, pitch=64)  # 992 B + 32 B pitch slack
    alloc.allocate(dev, (64,), np.float64)  # 512 B
    rows = alloc.report(dev)
    assert len(rows) == 3
    assert [r[1] for r in rows] == [1024, 512, 256]
    desc, nbytes, padding = rows[0]
    assert "shape=(2, 62)" in desc and "float64" in desc
    assert nbytes == big.allocated_bytes == 1024
    assert padding == 32
    assert alloc.report(dev, limit=2) == rows[:2]


def test_report_excludes_freed_and_other_devices():
    ds = DeviceSet.gpus(2)
    alloc = DeviceAllocator()
    kept = alloc.allocate(ds[0], (8,), np.float64)
    freed = alloc.allocate(ds[0], (8,), np.float64)
    alloc.allocate(ds[1], (8,), np.float64)
    alloc.free(freed)
    rows = alloc.report(ds[0])
    assert len(rows) == 1
    assert f"buf#{kept.uid}" in rows[0][0]


def test_oom_message_names_top_allocations():
    ds = DeviceSet.gpus(1)
    alloc = DeviceAllocator(capacity_bytes=1024)
    alloc.allocate(ds[0], (64,), np.float64)  # 512 B
    alloc.allocate(ds[0], (32,), np.float64)  # 256 B
    with pytest.raises(AllocationError) as exc_info:
        alloc.allocate(ds[0], (128,), np.float64)
    msg = str(exc_info.value)
    assert "live allocations" in msg
    assert "shape=(64,)" in msg  # largest first
    assert "512 B" in msg
