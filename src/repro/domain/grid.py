"""Grid: the blueprint for rectilinear computational domains (paper IV-C1).

A Grid owns the domain extent, the sparsity pattern, the union stencil
(which sizes halos and splits cells into internal/boundary views), and
the slab decomposition over the backend's devices.  Fields are created
*from* a grid and inherit all of that structure; Containers are created
from a grid and iterate its cells.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.sets.container import Container
from repro.sets.dataset import MultiDeviceData
from repro.sets.memset import MemSet
from repro.system import Backend

from .layout import Layout
from .stencil import Stencil
from .views import DataView


class Grid(MultiDeviceData, abc.ABC):
    """Abstract rectilinear grid decomposed in slabs along axis 0."""

    #: relative cost multiplier of this grid's memory accesses (the
    #: element-sparse connectivity walk pays an indirection penalty)
    indirection: float = 1.0

    #: per rank, the span offset of each owned slice's first cell (and the
    #: end), for per-slice reductions; None where spans index whole slices
    slice_starts: list[np.ndarray] | None = None

    def __init__(
        self,
        backend: Backend,
        shape: tuple[int, ...],
        stencils: list[Stencil] | None = None,
        name: str = "",
        virtual: bool = False,
    ):
        super().__init__(name)
        shape = tuple(int(s) for s in shape)
        if len(shape) not in (2, 3):
            raise ValueError(f"grids are 2-D or 3-D, got shape {shape}")
        if any(s < 1 for s in shape):
            raise ValueError(f"empty grid shape {shape}")
        self.backend = backend
        self.shape = shape
        self.virtual = virtual
        self.stencil: Stencil | None = None
        for st in stencils or []:
            if st.ndim != len(shape):
                raise ValueError(f"stencil '{st.name}' is {st.ndim}-D but the grid is {len(shape)}-D")
            self.stencil = st if self.stencil is None else self.stencil.union(st)
        self.radius = self.stencil.radius if self.stencil else 0
        if backend.num_devices > 1 and self.radius > 0:
            min_slab = shape[0] // backend.num_devices
            if min_slab < 2 * self.radius:
                raise ValueError(
                    f"slabs of ~{min_slab} slices cannot hold disjoint boundary regions for "
                    f"halo radius {self.radius}; use fewer devices or a larger domain"
                )

    # -- MultiDeviceData interface ---------------------------------------
    @property
    def num_devices(self) -> int:
        return self.backend.num_devices

    @property
    def bytes_per_cell(self) -> int:
        # A grid is an index space, not data: Containers created from it
        # take their byte traffic from the Fields their Loader declares.
        return 0

    def partition(self, rank: int):
        raise TypeError("grids are index spaces; load Fields, not the grid itself")

    # -- domain queries ----------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_cells(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    @abc.abstractmethod
    def num_active(self) -> int:
        """Number of cells computation actually runs on."""

    @property
    def sparsity_ratio(self) -> float:
        """Active cells over bounding-box cells (1.0 = fully dense)."""
        return self.num_active / self.num_cells

    @abc.abstractmethod
    def span_for(self, rank: int, view: DataView):
        ...

    @abc.abstractmethod
    def new_field(
        self,
        name: str,
        cardinality: int = 1,
        dtype=np.float64,
        outside_value: float = 0.0,
        layout: Layout = Layout.SOA,
    ):
        """Create a Field of this grid (paper Listing 1)."""

    # -- computation factories ----------------------------------------------
    def new_container(self, name: str, loading, flops_per_cell: float = 0.0):
        """Create a Container iterating this grid's active cells."""
        return Container(name, self, loading, flops_per_cell=flops_per_cell)

    def new_reduce_partial(self, name: str) -> MemSet:
        """One float64 slot per owned axis-0 slice, for ReduceOp containers.

        Every reduce launch deposits canonical per-slice sums
        (``SliceReduceAccessor``); concatenating the rank rows in rank
        order reproduces the global slice order no matter where the slab
        cuts fall, so the combined scalar is bitwise identical across
        device counts, partition weights, OCC levels, and execution modes.
        """
        counts = [e - s for s, e in self.bounds]
        partial = MemSet(self.backend, counts, np.float64, name=name, virtual=self.virtual)
        partial.slice_starts = self.slice_starts
        return partial

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name}, shape={self.shape}, devices={self.num_devices})"
