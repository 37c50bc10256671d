"""Device memory management for the System abstraction.

Buffers are NumPy arrays tagged with an owning :class:`~repro.system.device.Device`.
Every allocation's footprint rounds up to :data:`ALIGNMENT` bytes, the
way a device allocator hands out aligned blocks (``cudaMalloc`` returns
256-byte-aligned ones); the rounding shows in both capacity accounting
and physical placement: every payload starts on an :data:`ALIGNMENT`
boundary, so a kernel's 64-byte vector loads never split a cache line
at a row's start.  What also moves bytes is
a buffer's *pitch*, chosen by the data layout that asks for the buffer
(the way ``cudaMallocPitch`` pads rows): the leading-axis entries sit
``pitch`` elements apart in one backing block, and the gap between them
is booked as padding.
"""

from __future__ import annotations

import itertools
import math
import mmap
import numpy as np

from repro import observability as _obs
from repro import resilience as _res

from .device import Device
from .layers import Session


class AllocationError(RuntimeError):
    """Raised when a simulated device cannot satisfy an allocation."""


#: every allocation's footprint rounds up to a multiple of this many bytes,
#: and every payload starts on a multiple of it
ALIGNMENT = 256

_buffer_ids = itertools.count()

# NumPy's own cutoff (``numpy/_core/src/multiarray/alloc.c``, ``1u << 22``):
# blocks this large get ``madvise(MADV_HUGEPAGE)``, smaller ones never do
_HUGEPAGE_ADVICE_BYTES = 4 << 20
try:
    _ANON_PRIVATE = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
except AttributeError:  # not POSIX
    _ANON_PRIVATE = None


def _zeroed_payload(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A zero-filled payload array starting on an :data:`ALIGNMENT` boundary.

    Below 4 MiB the block is ``np.zeros`` over-allocated by
    :data:`ALIGNMENT` bytes and the aligned view returned: ``np.zeros``
    alone aligns it to 16 bytes only, so most of a kernel's 64-byte
    vector loads and stores split across two lines (on a 2-vCPU AVX-512
    Xeon a 24^3 D3Q19 step on 4 devices took 358 against 267 us, CG's
    ``cg_a`` walk on 24^3 / 8 devices 22.7 against 18.6 us).  NumPy
    ``madvise(MADV_HUGEPAGE)``s every block of 4 MiB or more, and where
    the kernel runs ``transparent_hugepage=madvise`` first touch of such a
    block stalls in compaction: building the 64^3 D3Q19 fields through
    ``np.zeros`` took 0.14-0.43 s against 0.08 s from a plain anonymous
    private mapping.  So those blocks get their own mapping, which is
    kernel-zeroed, page-aligned and unmapped when the last array
    referencing it dies.
    """
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes + ALIGNMENT < _HUGEPAGE_ADVICE_BYTES or _ANON_PRIVATE is None:
        raw = np.zeros(nbytes + ALIGNMENT, dtype=np.uint8)
        skip = -raw.ctypes.data % ALIGNMENT
        return raw[skip : skip + nbytes].view(dtype).reshape(shape)
    buf = mmap.mmap(-1, nbytes, flags=_ANON_PRIVATE)
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


class DeviceBuffer:
    """A typed, device-resident linear buffer.

    The payload lives in host RAM (``self.array``) but is logically owned
    by ``self.device``; every access from the framework goes through
    commands recorded for the simulator, so the distinction is preserved
    where it matters.

    With a ``pitch``, ``array`` is the ``shape`` view of a ``(shape[0],
    pitch)`` backing block: entry ``i`` along the leading axis is a
    contiguous run starting ``i * pitch`` elements in.  ``nbytes`` stays
    the logical payload; the ``shape[0] * (pitch - cells)`` elements of
    slack count as :attr:`padding_bytes`.

    A *virtual* buffer carries shape/dtype/footprint metadata but no
    payload.  Virtual allocations let the benchmark harness plan and
    time paper-scale domains (e.g. 512^3 x 19 components) whose payload
    would not fit in this machine's RAM, while still exercising the
    capacity accounting that reproduces the paper's Fig 9 out-of-memory
    behaviour.
    """

    def __init__(
        self,
        device: Device,
        shape,
        dtype,
        virtual: bool = False,
        pitch: int | None = None,
    ):
        self.device = device
        self.virtual = virtual
        self._dtype = np.dtype(dtype)
        self._shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
        if any(s < 0 for s in self._shape):
            raise ValueError(f"negative dimension in shape {self._shape}")
        self.array, self._slack = None, 0
        if pitch is None:
            if not virtual:
                self.array = _zeroed_payload(self._shape, self._dtype)
        else:
            lead, cells = self._shape[0], math.prod(self._shape[1:])
            if pitch < cells:
                raise ValueError(f"pitch {pitch} is shorter than the {cells} elements it separates")
            self._slack = lead * (pitch - cells)
            if not virtual:
                backing = _zeroed_payload((lead, pitch), self._dtype)
                self.array = backing[:, :cells].reshape(self._shape)  # a view: only axis 1 splits
        self.uid = next(_buffer_ids)

    @property
    def dtype(self):
        return self._dtype

    @property
    def shape(self):
        return self._shape

    @property
    def nbytes(self) -> int:
        """Logical payload size in bytes (excluding alignment rounding)."""
        n = self._dtype.itemsize
        for s in self._shape:
            n *= s
        return n

    @property
    def allocated_bytes(self) -> int:
        """Footprint after pitch slack and :data:`ALIGNMENT` rounding."""
        raw = self.nbytes + self.padding_bytes
        return (raw + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT

    @property
    def padding_bytes(self) -> int:
        """The pitch slack between leading-axis entries."""
        return self._slack * self._dtype.itemsize

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeviceBuffer(dev={self.device.index}, shape={self.shape}, dtype={self.dtype})"


class DeviceAllocator:
    """Tracks allocations per device and enforces a capacity limit.

    The paper's Fig 9 discussion hinges on the sparse layout running out
    of memory on a 512^3 fully-dense domain; a capacity-limited allocator
    lets the reproduction exhibit the same failure mode deterministically.
    """

    def __init__(self, capacity_bytes: int | None = None, session: Session | None = None):
        self.capacity_bytes = capacity_bytes
        self.session = session if session is not None else Session()
        self._used: dict[int, int] = {}
        self._live: dict[int, list[DeviceBuffer]] = {}

    def used_bytes(self, device: Device) -> int:
        return self._used.get(device.uid, 0)

    def report(self, device: Device, limit: int | None = None) -> list[tuple[str, int, int]]:
        """Live allocations on ``device`` as ``(description, bytes, padding)``.

        Sorted by footprint, largest first, so the head of the list names
        the buffers worth evicting (or virtualising) when an OOM hits.
        """
        rows = [
            (f"buf#{b.uid} shape={b.shape} dtype={b.dtype}", b.allocated_bytes, b.padding_bytes)
            for b in self._live.get(device.uid, [])
        ]
        rows.sort(key=lambda r: r[1], reverse=True)
        return rows[:limit] if limit is not None else rows

    def _oom_detail(self, device: Device, top: int = 5) -> str:
        rows = self.report(device, limit=top)
        if not rows:
            return "no live allocations"
        lines = [f"    {desc}: {nbytes} B ({pad} B padding)" for desc, nbytes, pad in rows]
        return f"top {len(rows)} of {len(self._live.get(device.uid, []))} live allocations:\n" + "\n".join(
            lines
        )

    def allocate(
        self,
        device: Device,
        shape,
        dtype,
        virtual: bool = False,
        pitch: int | None = None,
    ) -> DeviceBuffer:
        faults = self.session.faults
        if faults is not None:
            # allocation-fault injection site (also loss-checks the device)
            if _res.should_fail_allocation(faults.plan, device.index, f"alloc@{device.index}"):
                raise AllocationError(
                    f"device {device.index}: injected allocation fault (seeded); "
                    f"{self._oom_detail(device)}"
                )
        buf = DeviceBuffer(device, shape, dtype, virtual=virtual, pitch=pitch)
        if self.capacity_bytes is not None:
            if self.used_bytes(device) + buf.allocated_bytes > self.capacity_bytes:
                raise AllocationError(
                    f"device {device.index}: allocation of {buf.allocated_bytes} B exceeds "
                    f"capacity {self.capacity_bytes} B ({self.used_bytes(device)} B in use); "
                    f"{self._oom_detail(device)}"
                )
        self._used[device.uid] = self.used_bytes(device) + buf.allocated_bytes
        self._live.setdefault(device.uid, []).append(buf)
        if _obs.OBS.active:
            m = _obs.OBS.metrics
            dev = device.metric_label
            m.counter("allocations", device=dev).inc()
            m.counter("allocations_bytes", device=dev).inc(buf.allocated_bytes)
            m.gauge("memory_used_bytes", device=dev).set(self._used[device.uid])
            m.histogram("allocation_size_bytes").observe(buf.allocated_bytes)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        live = self._live.get(buf.device.uid, [])
        if buf not in live:
            raise AllocationError("double free or foreign buffer")
        live.remove(buf)
        self._used[buf.device.uid] -= buf.allocated_bytes
        if _obs.OBS.active:
            dev = buf.device.metric_label
            m = _obs.OBS.metrics
            m.counter("frees", device=dev).inc()
            m.gauge("memory_used_bytes", device=dev).set(self._used[buf.device.uid])
