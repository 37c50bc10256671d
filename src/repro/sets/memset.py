"""MemSet: the simplest Multi-GPU data object (paper IV-B1, Fig 2).

A MemSet allocates one linear buffer per device plus an optional host
mirror.  From the host it exposes a contiguous logical view spanning all
partitions; from a device it exposes the rank-local partition.  It does
*no* automatic partitioning or load balancing — that is Domain-level
responsibility — the caller states how many elements each device gets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.system import Backend

from .dataset import MultiDeviceData, Span
from .views import DataView


@dataclass(frozen=True)
class LinearSpan(Span):
    """A contiguous index range of one linear partition."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.stop})")

    @property
    def count(self) -> int:
        return self.stop - self.start

    @property
    def slice(self) -> slice:
        return slice(self.start, self.stop)


class MemPartition:
    """Rank-local view of a MemSet: index-based element access."""

    def __init__(self, array: np.ndarray, rank: int):
        self.array = array
        self.rank = rank

    def view(self, span: LinearSpan) -> np.ndarray:
        return self.array[span.slice]

    def __len__(self) -> int:
        return self.array.shape[0]


class MemSet(MultiDeviceData):
    """Distributed multi-device buffers with a contiguous host mirror."""

    def __init__(
        self,
        backend: Backend,
        counts: list[int],
        dtype,
        cardinality: int = 1,
        name: str = "",
        host_mirror: bool = True,
        virtual: bool = False,
    ):
        super().__init__(name)
        if len(counts) != backend.num_devices:
            raise ValueError(f"need one count per device: {len(counts)} != {backend.num_devices}")
        if any(c < 0 for c in counts):
            raise ValueError(f"negative element count in {counts}")
        if cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        self.backend = backend
        self.counts = list(counts)
        self.cardinality = cardinality
        self.dtype = np.dtype(dtype)
        self.virtual = virtual
        shape = lambda c: (c, cardinality) if cardinality > 1 else (c,)
        self.buffers = [backend.allocate(r, shape(c), dtype, virtual=virtual) for r, c in enumerate(counts)]
        self.offsets = np.concatenate([[0], np.cumsum(counts)])
        self.host = np.zeros(shape(int(self.offsets[-1])), dtype=dtype) if host_mirror and not virtual else None

    # -- MultiDeviceData interface -------------------------------------
    @property
    def num_devices(self) -> int:
        return self.backend.num_devices

    def span_for(self, rank: int, view: DataView) -> LinearSpan:
        # A MemSet has no stencil, hence no boundary cells: every element
        # is internal and BOUNDARY launches cover nothing.
        if view is DataView.BOUNDARY:
            return LinearSpan(0, 0)
        return LinearSpan(0, self.counts[rank])

    @property
    def bytes_per_cell(self) -> int:
        return self.dtype.itemsize * self.cardinality

    # -- partitions and the host mirror ---------------------------------
    def partition(self, rank: int) -> MemPartition:
        return MemPartition(self.buffers[rank].array, rank)

    def host_slice(self, rank: int) -> np.ndarray:
        if self.host is None:
            raise RuntimeError(f"{self.name}: no host mirror")
        return self.host[int(self.offsets[rank]) : int(self.offsets[rank + 1])]

    def fill(self, value) -> None:
        """Set every element (host and devices) to ``value``."""
        if self.host is not None:
            self.host[...] = value
        for buf in self.buffers:
            buf.array[...] = value
