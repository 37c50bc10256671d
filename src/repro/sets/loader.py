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


class ReduceMode(enum.Enum):
    """How a reduce kernel combines into its partial buffer.

    ASSIGN overwrites (first launch covering the partition); ACCUMULATE
    folds into the existing partial, which is what the boundary half of a
    two-way-extended-OCC reduce does after the internal half.
    """

    ASSIGN = "assign"
    ACCUMULATE = "accumulate"


@dataclass(frozen=True)
class AccessToken:
    data: MultiDeviceData
    access: Access
    pattern: Pattern


class ReduceAccessor:
    """Rank-local handle for depositing one partial reduction result."""

    def __init__(self, partial: MemSet, rank: int, op, mode: ReduceMode):
        self._row = partial.partition(rank).array
        self.op = op
        self.mode = mode

    def deposit(self, value) -> None:
        if self.mode is ReduceMode.ASSIGN:
            self._row[0] = value
        else:
            self._row[0] = self.op(self._row[0], value)

    def deposit_sums(self, span, values) -> None:
        """Fold the span's whole value array into the rank's single slot."""
        self.deposit(float(np.sum(values)))


class SliceReduceAccessor:
    """Rank-local handle for per-axis-0-slice partial sums.

    One slot per owned slice instead of one per rank: each deposit is the
    sum over one slice's cells, an array whose logical shape depends only
    on the grid's lateral extent — never on how slices are distributed
    over devices or split into internal/boundary launches.  Combined in
    global slice order on the host (:class:`repro.core.ops.ScalarResult`),
    the reduction is bitwise independent of partition, OCC level, and
    execution mode.

    Slices are disjoint between launch pieces (INTERNAL and BOUNDARY
    strips never share a slice), so every deposit assigns its slots
    outright; :class:`ReduceMode` never needs to accumulate here.
    """

    def __init__(self, partial: MemSet, rank: int, op, mode: ReduceMode):
        self._row = partial.partition(rank).array
        self.op = op
        self.mode = mode

    def deposit_sums(self, span, values) -> None:
        """Deposit one canonical sum per slice of ``span``.

        ``values`` is the component-first span array (``view_all`` shape):
        axis 1 walks the span's slices.  Each slice is copied contiguous
        before summing so NumPy's pairwise tree sees the same memory
        layout no matter the source field's layout or slab size.
        """
        lo = span.lo
        for i in range(span.hi - lo):
            self._row[lo + i] = float(np.sum(np.ascontiguousarray(values[:, i])))


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
        reduce_mode: ReduceMode = ReduceMode.ASSIGN,
        parse_only: bool = False,
    ):
        self.rank = rank
        self.view = view
        self.reduce_mode = reduce_mode
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

    def reduce_target(self, partial: MemSet, op=np.add) -> ReduceAccessor | SliceReduceAccessor:
        """Declare this container reduces into ``partial``.

        Legacy partials carry one slot per rank; partials marked
        ``slice_reduce`` (see ``Grid.new_dot_partial``) carry one slot per
        owned axis-0 slice and get the partition-invariant accessor.
        """
        self.tokens.append(AccessToken(partial, Access.READ_WRITE, Pattern.REDUCE))
        if getattr(partial, "slice_reduce", False):
            return SliceReduceAccessor(partial, self.rank, op, self.reduce_mode)
        if partial.counts != [1] * partial.num_devices:
            raise ValueError(f"{partial.name}: reduce partials need exactly one slot per device")
        return ReduceAccessor(partial, self.rank, op, self.reduce_mode)
