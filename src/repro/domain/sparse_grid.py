"""Element-sparse grid: only active cells are stored (paper IV-C2, Fig 9).

Active cells are enumerated with an explicit connectivity table mapping
each (cell, stencil offset) pair to the local index of the neighbour —
or -1 when the neighbour is inactive or outside the box, in which case
reads resolve to the field's ``outside_value``.

Per partition, owned cells are ordered ``[low-boundary | internal |
high-boundary]`` and halo copies of the neighbours' boundary cells are
appended after the owned block.  This ordering keeps every data view
*and* every halo segment contiguous, so a haloUpdate is 2 messages per
partition for scalar/AoS fields and 2n for cardinality-n SoA fields,
with no marshaling — the property the paper engineers both grids for.

Slab bounds along axis 0 are chosen to balance *active* cells per
device (the Domain level's load-balancing duty).

The constructor accepts either a full boolean ``mask`` or (for *virtual*
planning-only grids) just the per-slice active-cell counts, which is all
the span/cost machinery needs at paper scale.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.system import Backend

from .field import Field
from .grid import Grid
from .halo import HaloMsg, exchange_pairs
from .layout import Layout
from .partition import weighted_slab_partition
from .stencil import Stencil
from .views import DataView, MultiSpan, SparseStrip


class SparseGrid(Grid):
    """Free-form domain stored as active cells + connectivity table."""

    #: gather/scatter overhead of the connectivity walk relative to a
    #: dense streaming access; calibrated so dense and sparse cross over
    #: near sparsity 0.8 as in the paper's Fig 9
    indirection = 1.25

    def __init__(
        self,
        backend: Backend,
        shape: tuple[int, ...] | None = None,
        stencils: list[Stencil] | None = None,
        mask: np.ndarray | None = None,
        active_per_slice: np.ndarray | None = None,
        name: str = "",
        virtual: bool = False,
        indirection: float | None = None,
        partition_weights=None,
    ):
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if shape is None:
                shape = mask.shape
            elif tuple(shape) != mask.shape:
                raise ValueError(f"shape {shape} != mask shape {mask.shape}")
        elif shape is None:
            raise ValueError("provide a mask or an explicit shape")
        super().__init__(backend, shape, stencils, name or "sparse", virtual)
        if indirection is not None:
            if indirection < 1.0:
                raise ValueError("indirection must be >= 1.0")
            self.indirection = indirection
        if mask is None and active_per_slice is None:
            raise ValueError("provide a mask, or active_per_slice for virtual planning")
        if mask is None and not virtual:
            raise ValueError("non-virtual sparse grids need the full mask")
        self.mask = mask

        if mask is not None:
            per_slice = mask.reshape(mask.shape[0], -1).sum(axis=1)
        else:
            per_slice = np.asarray(active_per_slice, dtype=np.int64)
            if len(per_slice) != self.shape[0]:
                raise ValueError(
                    f"active_per_slice has {len(per_slice)} entries for {self.shape[0]} slices"
                )
            if np.any(per_slice < 0) or np.any(per_slice > np.prod(self.shape[1:])):
                raise ValueError("active_per_slice entries out of range")
        self._per_slice = per_slice
        self._num_active = int(per_slice.sum())
        if self._num_active == 0:
            raise ValueError("sparse grid has no active cells")
        # active-cell balance (the Domain level's duty), scaled by the
        # per-device capability shares when a tuner provides them
        from .partition import normalized_shares  # noqa: PLC0415 - sibling import

        self.partition_weights = (
            None
            if partition_weights is None
            else tuple(float(s) for s in normalized_shares(partition_weights, backend.num_devices))
        )
        self.bounds = weighted_slab_partition(
            per_slice,
            backend.num_devices,
            min_size=max(1, 2 * self.radius),
            shares=self.partition_weights,
        )

        h = self.radius
        n = self.num_devices
        self.n_owned: list[int] = []
        self.n_bnd_lo: list[int] = []
        self.n_bnd_hi: list[int] = []
        for rank, (s, e) in enumerate(self.bounds):
            self.n_owned.append(int(per_slice[s:e].sum()))
            self.n_bnd_lo.append(int(per_slice[s : s + h].sum()) if rank > 0 else 0)
            self.n_bnd_hi.append(int(per_slice[e - h : e].sum()) if rank < n - 1 else 0)
        # halo blocks mirror the neighbour's boundary blocks
        self.n_halo_lo = [self.n_bnd_hi[r - 1] if r > 0 else 0 for r in range(n)]
        self.n_halo_hi = [self.n_bnd_lo[r + 1] if r < n - 1 else 0 for r in range(n)]
        for r in range(n):
            if self.n_bnd_lo[r] + self.n_bnd_hi[r] > self.n_owned[r]:
                raise ValueError(
                    f"rank {r}: boundary cells ({self.n_bnd_lo[r]}+{self.n_bnd_hi[r]}) exceed "
                    f"owned cells ({self.n_owned[r]}); domain too thin for this device count"
                )

        self.offset_row: dict[tuple[int, ...], int] = (
            {off: k for k, off in enumerate(self.stencil.offsets)} if self.stencil else {}
        )
        self.owned_coords: list[np.ndarray | None] = [None] * n
        self.conn: list[np.ndarray | None] = [None] * n
        self._conn_buffers = []
        if not virtual:
            self._build_topology()
        else:
            # account the connectivity-table footprint even when planning
            for rank in range(n):
                if self.stencil:
                    self._conn_buffers.append(
                        backend.allocate(
                            rank, (len(self.offset_row), self.n_owned[rank]), np.int64, virtual=True
                        )
                    )
                self._conn_buffers.append(
                    backend.allocate(rank, (self.n_owned[rank], self.ndim), np.int32, virtual=True)
                )

    # -- construction -----------------------------------------------------
    def _build_topology(self) -> None:
        h = self.radius
        lat_pad = (
            max((max(abs(d) for d in off[1:]) if len(off) > 1 else 0) for off in self.stencil.offsets)
            if self.stencil
            else 0
        )
        for rank, (s, e) in enumerate(self.bounds):
            slab = self.mask[s:e]
            coords = np.argwhere(slab)  # (n_owned, ndim), sorted by (z, lateral)
            z_loc = coords[:, 0]
            n_loc = e - s
            cls = np.ones(len(coords), dtype=np.int8)
            if rank > 0:
                cls[z_loc < h] = 0
            if rank < self.num_devices - 1:
                cls[z_loc >= n_loc - h] = 2
            order = np.argsort(cls, kind="stable")
            coords = coords[order]
            gcoords = coords.copy()
            gcoords[:, 0] += s
            coords_buf = self.backend.allocate(rank, gcoords.shape, np.int32)
            coords_buf.array[...] = gcoords
            self._conn_buffers.append(coords_buf)
            self.owned_coords[rank] = coords_buf.array

            if not self.stencil:
                continue

            halo_lo = np.argwhere(self.mask[s - h : s]) if rank > 0 else np.zeros((0, self.ndim), int)
            halo_hi = (
                np.argwhere(self.mask[e : e + h]) if rank < self.num_devices - 1 else np.zeros((0, self.ndim), int)
            )
            vol_shape = (n_loc + 2 * h, *(d + 2 * lat_pad for d in self.shape[1:]))
            vol = np.full(vol_shape, -1, dtype=np.int64)
            n_owned = len(coords)

            def scatter(cells: np.ndarray, base: int, z_shift: int) -> None:
                if len(cells) == 0:
                    return
                ix = [cells[:, 0] + z_shift + h]
                for a in range(1, self.ndim):
                    ix.append(cells[:, a] + lat_pad)
                vol[tuple(ix)] = np.arange(base, base + len(cells))

            scatter(coords, 0, 0)
            scatter(halo_lo, n_owned, -h)
            scatter(halo_hi, n_owned + len(halo_lo), n_loc)

            # 64-bit neighbour indices: partitions address their whole
            # (owned + halo) range uniformly regardless of size — the same
            # choice that makes the element-sparse layout lose the memory
            # race against dense on fully-dense 512^3 domains (Fig 9)
            conn_buf = self.backend.allocate(rank, (len(self.offset_row), n_owned), np.int64)
            for off, k in self.offset_row.items():
                ix = [coords[:, 0] + off[0] + h]
                for a in range(1, self.ndim):
                    ix.append(coords[:, a] + off[a] + lat_pad)
                conn_buf.array[k] = vol[tuple(ix)]
            self._conn_buffers.append(conn_buf)
            self.conn[rank] = conn_buf.array

    # -- structure ----------------------------------------------------------
    @property
    def num_active(self) -> int:
        return self._num_active

    def n_total(self, rank: int) -> int:
        return self.n_owned[rank] + self.n_halo_lo[rank] + self.n_halo_hi[rank]

    def span_for(self, rank: int, view: DataView):
        n_owned = self.n_owned[rank]
        lo, hi = self.n_bnd_lo[rank], self.n_bnd_hi[rank]
        if view is DataView.STANDARD:
            return SparseStrip(0, n_owned)
        if view is DataView.INTERNAL:
            return SparseStrip(lo, n_owned - hi)
        return MultiSpan([SparseStrip(0, lo), SparseStrip(n_owned - hi, n_owned)])

    def new_field(
        self,
        name: str,
        cardinality: int = 1,
        dtype=np.float64,
        outside_value: float = 0.0,
        layout: Layout = Layout.SOA,
    ) -> "SparseField":
        return SparseField(self, name, cardinality, dtype, outside_value, layout)


class SparseFieldPartition:
    """Rank-local accessor: 1-D cell arrays plus connectivity gathers."""

    def __init__(self, field: "SparseField", rank: int):
        self.field = field
        self.rank = rank
        self.grid: SparseGrid = field.grid
        self.storage = field.buffers[rank].array
        self.outside_value = field.outside_value

    def _comp(self, comp: int) -> np.ndarray:
        if self.field.layout is Layout.SOA:
            return self.storage[comp]
        return self.storage[:, comp]

    def view(self, span: SparseStrip, comp: int = 0) -> np.ndarray:
        return self._comp(comp)[span.lo : span.hi]

    def view_all(self, span: SparseStrip) -> np.ndarray:
        if self.field.layout is Layout.SOA:
            return self.storage[:, span.lo : span.hi]
        return self.storage[span.lo : span.hi].T

    def neighbour(self, span: SparseStrip, offset: tuple[int, ...], comp: int = 0) -> np.ndarray:
        conn = self.grid.conn[self.rank]
        if conn is None:
            raise RuntimeError(f"grid '{self.grid.name}' registered no stencils; neighbour access invalid")
        try:
            row = self.grid.offset_row[tuple(offset)]
        except KeyError:
            raise ValueError(f"offset {offset} is not in the grid's registered stencil union") from None
        idx = conn[row, span.lo : span.hi]
        vals = self._comp(comp)[np.maximum(idx, 0)]
        return np.where(idx >= 0, vals, self.field.dtype.type(self.outside_value))

    def coords(self, span: SparseStrip) -> tuple[np.ndarray, ...]:
        c = self.grid.owned_coords[self.rank][span.lo : span.hi]
        return tuple(c[:, a] for a in range(self.grid.ndim))


class SparseField(Field):
    """Field stored over active cells only (owned block + halo blocks)."""

    def __init__(self, grid: SparseGrid, name, cardinality, dtype, outside_value, layout):
        super().__init__(grid, name, cardinality, dtype, outside_value, layout)
        for rank in range(grid.num_devices):
            n = grid.n_total(rank)
            shape = (cardinality, n) if layout is Layout.SOA else (n, cardinality)
            buf = grid.backend.allocate(rank, shape, dtype, virtual=grid.virtual)
            if buf.array is not None:
                buf.array[...] = outside_value
            self.buffers.append(buf)

    def partition(self, rank: int) -> SparseFieldPartition:
        return SparseFieldPartition(self, rank)

    def fill(self, value, comp: int | None = None) -> None:
        self._require_storage()
        for rank in range(self.num_devices):
            part = self.partition(rank)
            span = self.grid.span_for(rank, DataView.STANDARD)
            if comp is None:
                part.view_all(span)[...] = value
            else:
                part.view(span, comp)[...] = value

    def init(self, fn, comp: int | None = None) -> None:
        self._require_storage()
        for rank in range(self.num_devices):
            part = self.partition(rank)
            span = self.grid.span_for(rank, DataView.STANDARD)
            values = fn(*part.coords(span))
            comps = range(self.cardinality) if comp is None else [comp]
            for c in comps:
                part.view(span, c)[...] = values
        self.sync_halo_now()

    def to_numpy(self) -> np.ndarray:
        self._require_storage()
        out = np.full((self.cardinality, *self.grid.shape), self.outside_value, dtype=self.dtype)
        for rank in range(self.num_devices):
            coords = self.grid.owned_coords[rank]
            span = self.grid.span_for(rank, DataView.STANDARD)
            vals = self.partition(rank).view_all(span)
            ix = tuple(coords[:, a] for a in range(self.grid.ndim))
            for c in range(self.cardinality):
                out[c][ix] = vals[c]
        return out

    def halo_messages(self) -> list[HaloMsg]:
        g: SparseGrid = self.grid
        if g.radius == 0 or self.num_devices == 1:
            return []
        msgs: list[HaloMsg] = []
        per_comp = self.layout is Layout.SOA and self.cardinality > 1
        comps = range(self.cardinality) if per_comp else [None]
        for src, dst in exchange_pairs(self.num_devices):
            if dst == src + 1:
                count = g.n_bnd_hi[src]
                src_sl = slice(g.n_owned[src] - count, g.n_owned[src])
                dst_sl = slice(g.n_owned[dst], g.n_owned[dst] + count)
            else:
                count = g.n_bnd_lo[src]
                src_sl = slice(0, count)
                dst_sl = slice(g.n_owned[dst] + g.n_halo_lo[dst], g.n_owned[dst] + g.n_halo_lo[dst] + count)
            if count == 0:
                continue
            nbytes = count * self.dtype.itemsize * (1 if per_comp else self.cardinality)
            for c in comps:
                name = f"halo:{self.name}" + (f".{c}" if c is not None else "") + f":{src}->{dst}"
                if self.virtual:
                    fn = lambda: None  # noqa: E731
                else:
                    sp, dp = self.partition(src), self.partition(dst)
                    if c is None and self.layout is Layout.AOS:
                        s_arr, d_arr = sp.storage, dp.storage
                    else:
                        cc = 0 if c is None else c
                        s_arr, d_arr = sp._comp(cc), dp._comp(cc)
                    fn = functools.partial(np.copyto, d_arr[dst_sl], s_arr[src_sl])

                msgs.append(HaloMsg(name, src, dst, nbytes, fn))
        return msgs
