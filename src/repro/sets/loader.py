"""Loader: the explicit data-use declaration mechanism (paper IV-B2/3).

As a library (not a compiler), Neon cannot inspect what data a compute
lambda touches.  The Loader closes that gap: inside the *loading lambda*
the user extracts each Multi-GPU data object's local partition through
``loader.load(...)``, naming the access type (read/write) and the compute
pattern (map/stencil/reduce).  The Loader records an
:class:`AccessToken` per load; the sequence of tokens is exactly the
information the Skeleton's dependency-graph builder consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dataset import MultiDeviceData
from .memset import MemSet
from .views import DataView


class Access(enum.Enum):
    """Whether a declared data use reads, writes, or does both."""

    READ = "r"
    WRITE = "w"
    READ_WRITE = "rw"

    @property
    def reads(self) -> bool:
        return self in (Access.READ, Access.READ_WRITE)

    @property
    def writes(self) -> bool:
        return self in (Access.WRITE, Access.READ_WRITE)


class Pattern(enum.Enum):
    """The compute pattern of a data use (paper: MapOp/StencilOp/ReduceOp)."""

    MAP = "map"
    STENCIL = "stencil"
    REDUCE = "reduce"


@dataclass(frozen=True)
class AccessToken:
    data: MultiDeviceData
    access: Access
    pattern: Pattern


class SliceReduceAccessor:
    """Rank-local handle for per-axis-0-slice partial sums.

    One slot per owned slice: each deposit is the sum over one slice's
    cells, an array whose logical shape depends only on the grid's
    lateral extent (dense) or on the slice's active cells (sparse) —
    never on how slices are distributed over devices or split into
    internal/boundary launches.  Combined in global slice order on the
    host (:class:`repro.core.ops.ScalarResult`), the reduction is bitwise
    independent of partition, OCC level, and execution mode.

    Launch pieces cover whole slices (INTERNAL and BOUNDARY strips never
    share one), so every deposit assigns its slots outright.
    """

    def __init__(self, partial: MemSet, rank: int):
        self._row = partial.partition(rank).array
        starts = getattr(partial, "slice_starts", None)
        self._starts = None if starts is None else starts[rank]

    def deposit_sums(self, span, values) -> None:
        """Deposit one canonical sum per slice of ``span``.

        ``values`` is the component-first span array (``view_all`` shape).
        Dense spans index slices, so axis 1 walks them; a sparse span
        indexes cells in slice order, and is cut at the first cell of each
        owned slice (``slice_starts``), an empty slice depositing 0.0.
        Each slice is copied contiguous before summing so NumPy's pairwise
        tree sees the same memory layout no matter the source field's
        layout, slab size, or partition.
        """
        row, lo = self._row, span.lo
        if self._starts is None:
            for i in range(span.hi - lo):
                row[lo + i] = float(np.sum(np.ascontiguousarray(values[:, i])))
            return
        starts = self._starts
        first = int(np.searchsorted(starts, lo))
        last = int(np.searchsorted(starts, span.hi, "right")) - 1
        for j in range(first, last):
            cells = values[:, starts[j] - lo : starts[j + 1] - lo]
            row[j] = float(np.sum(np.ascontiguousarray(cells)))


class Loader:
    """Per-rank, per-launch loading context handed to the loading lambda.

    It is the Set-level stand-in for the MPI rank: the same loading
    lambda runs once per device and receives a Loader bound to that
    device's rank and to the launch's data view.
    """

    def __init__(
        self,
        rank: int,
        view: DataView = DataView.STANDARD,
        parse_only: bool = False,
    ):
        self.rank = rank
        self.view = view
        self.parse_only = parse_only
        self.tokens: list[AccessToken] = []

    def load(self, data: MultiDeviceData, access: Access = Access.READ, pattern: Pattern = Pattern.MAP):
        """Declare an access and return the rank-local partition."""
        if pattern is Pattern.STENCIL and access.writes:
            # Own-compute rule: neighbour metadata is read-only.
            raise ValueError(f"{data.name}: stencil loads must be read-only")
        self.tokens.append(AccessToken(data, access, pattern))
        return data.partition(self.rank)

    def read(self, data: MultiDeviceData, stencil: bool = False):
        return self.load(data, Access.READ, Pattern.STENCIL if stencil else Pattern.MAP)

    def write(self, data: MultiDeviceData):
        return self.load(data, Access.WRITE, Pattern.MAP)

    def read_write(self, data: MultiDeviceData):
        return self.load(data, Access.READ_WRITE, Pattern.MAP)

    def reduce_target(self, partial: MemSet) -> SliceReduceAccessor:
        """Declare this container sums into ``partial``, one slot per owned
        slice (``Grid.new_reduce_partial``), and return the rank's handle."""
        self.tokens.append(AccessToken(partial, Access.READ_WRITE, Pattern.REDUCE))
        return SliceReduceAccessor(partial, self.rank)
