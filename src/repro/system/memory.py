"""Device memory management for the System abstraction.

Buffers are NumPy arrays tagged with an owning :class:`~repro.system.device.Device`.
Allocation options (alignment, padding, pinned host mirrors) mirror the
memory properties the paper lists as user-tunable backend parameters; in
the simulation they affect the reported allocation footprint and the
cost model, not physical placement.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass

import numpy as np

from repro import observability as _obs
from repro import resilience as _res

from .device import Device
from .layers import Session


class AllocationError(RuntimeError):
    """Raised when a simulated device cannot satisfy an allocation."""


@dataclass(frozen=True)
class MemOptions:
    """Memory properties a user can request per allocation.

    Attributes
    ----------
    alignment:
        Requested alignment in bytes; allocation sizes are rounded up to a
        multiple of it (power of two required).
    padding:
        Extra elements appended at the end of each allocation.
    pinned_host:
        Whether host mirrors should be treated as pinned (page-locked) by
        the cost model, which doubles host<->device bandwidth.
    """

    alignment: int = 256
    padding: int = 0
    pinned_host: bool = False

    def __post_init__(self) -> None:
        if self.alignment <= 0 or (self.alignment & (self.alignment - 1)) != 0:
            raise ValueError(f"alignment must be a positive power of two, got {self.alignment}")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")


_buffer_ids = itertools.count()

# NumPy's own cutoff (``numpy/_core/src/multiarray/alloc.c``, ``1u << 22``):
# blocks this large get ``madvise(MADV_HUGEPAGE)``, smaller ones never do
_HUGEPAGE_ADVICE_BYTES = 4 << 20
try:
    _ANON_PRIVATE = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
except AttributeError:  # not POSIX
    _ANON_PRIVATE = None


def _zeroed_payload(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A zero-filled payload array; ones NumPy would hugepage-advise get their own mapping.

    NumPy ``madvise(MADV_HUGEPAGE)``s every block of 4 MiB or more, and
    where the kernel runs ``transparent_hugepage=madvise`` first touch
    of such a block stalls in compaction: building the 64^3 D3Q19
    fields through ``np.zeros`` took 0.14-0.43 s against 0.08 s from a
    plain anonymous private mapping.  The mapping is kernel-zeroed,
    page-aligned and unmapped when the last array referencing it dies.
    Below the cutoff, and on platforms without anonymous private
    mappings, ``np.zeros`` is already the right thing.
    """
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < _HUGEPAGE_ADVICE_BYTES or _ANON_PRIVATE is None:
        return np.zeros(shape, dtype=dtype)
    buf = mmap.mmap(-1, nbytes, flags=_ANON_PRIVATE)
    return np.frombuffer(buf, dtype=dtype).reshape(shape)


class DeviceBuffer:
    """A typed, device-resident linear buffer.

    The payload lives in host RAM (``self.array``) but is logically owned
    by ``self.device``; every access from the framework goes through
    commands recorded for the simulator, so the distinction is preserved
    where it matters.

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
        options: MemOptions | None = None,
        virtual: bool = False,
    ):
        self.device = device
        self.options = options or MemOptions()
        self.virtual = virtual
        self._dtype = np.dtype(dtype)
        self._shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
        if any(s < 0 for s in self._shape):
            raise ValueError(f"negative dimension in shape {self._shape}")
        self.array = None if virtual else _zeroed_payload(self._shape, self._dtype)
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
        """Footprint after padding and alignment rounding."""
        raw = self.nbytes + self.padding_bytes
        a = self.options.alignment
        return (raw + a - 1) // a * a

    @property
    def padding_bytes(self) -> int:
        return self.options.padding * self._dtype.itemsize

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
        self, device: Device, shape, dtype, options: MemOptions | None = None, virtual: bool = False
    ) -> DeviceBuffer:
        faults = self.session.faults
        if faults is not None:
            # allocation-fault injection site (also loss-checks the device)
            if _res.should_fail_allocation(faults.plan, device.index, f"alloc@{device.index}"):
                raise AllocationError(
                    f"device {device.index}: injected allocation fault (seeded); "
                    f"{self._oom_detail(device)}"
                )
        buf = DeviceBuffer(device, shape, dtype, options, virtual=virtual)
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
