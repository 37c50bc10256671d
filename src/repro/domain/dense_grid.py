"""Dense grid: the whole bounding box is stored (paper IV-C2).

Each device owns a contiguous slab of slices along axis 0, stored with
``radius`` ghost slices on both ends.  Ghost slices hold halo data from
the slab neighbours — or ``outside_value`` at the global domain border,
which makes stencil reads across the border well defined without any
branching in user code.

An optional boolean activity mask supports free-form domains: the dense
representation still *computes* on every box cell (that is exactly the
dense-vs-sparse trade-off Fig 9 explores), but the mask is available to
user kernels (e.g. as a 0/1 indicator field) and defines ``num_active``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.codegen import table as _table
from repro.system import Backend

from .field import Field
from .grid import Grid
from .halo import HaloMsg, exchange_pairs
from .layout import Layout, component_pitch
from .partition import normalized_shares, slab_partition, weighted_slab_partition
from .stencil import Stencil
from .views import DataView, DenseStrip, MultiSpan


class DenseGrid(Grid):
    """Full-box Cartesian grid with 1-D slab decomposition."""

    indirection = 1.0

    def __init__(
        self,
        backend: Backend,
        shape: tuple[int, ...],
        stencils: list[Stencil] | None = None,
        mask: np.ndarray | None = None,
        name: str = "",
        virtual: bool = False,
        partition_weights=None,
    ):
        super().__init__(backend, shape, stencils, name or "dense", virtual)
        if partition_weights is None:
            self.bounds = slab_partition(shape[0], backend.num_devices)
            self.partition_weights = None
        else:
            # heterogeneous machines: slab sizes proportional to each
            # device's capability share (the autotuner's knob), clamped so
            # every slab still holds disjoint boundary regions
            shares = normalized_shares(partition_weights, backend.num_devices)
            self.bounds = weighted_slab_partition(
                np.ones(shape[0]),
                backend.num_devices,
                min_size=max(1, 2 * self.radius),
                shares=shares,
            )
            self.partition_weights = tuple(float(s) for s in shares)
        self.lateral = int(np.prod(shape[1:]))
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != shape:
                raise ValueError(f"mask shape {mask.shape} != grid shape {shape}")
        self.mask = mask
        self._num_active = int(mask.sum()) if mask is not None else self.num_cells
        self._spans = [
            {view: self._build_span(rank, view) for view in DataView} for rank in range(self.num_devices)
        ]

    # -- structure ------------------------------------------------------------
    @property
    def num_active(self) -> int:
        return self._num_active

    def local_slices(self, rank: int) -> int:
        a, b = self.bounds[rank]
        return b - a

    def _edge_depths(self, rank: int) -> tuple[int, int]:
        """Boundary depth on the (low, high) side — zero at the global border."""
        lo = self.radius if rank > 0 else 0
        hi = self.radius if rank < self.num_devices - 1 else 0
        return lo, hi

    def _build_span(self, rank: int, view: DataView):
        n = self.local_slices(rank)
        lo, hi = self._edge_depths(rank)
        if view is DataView.STANDARD:
            return DenseStrip(0, n, self.lateral)
        if view is DataView.INTERNAL:
            return DenseStrip(lo, n - hi, self.lateral)
        strips = []
        if lo:
            strips.append(DenseStrip(0, lo, self.lateral))
        if hi:
            strips.append(DenseStrip(n - hi, n, self.lateral))
        return MultiSpan(strips)

    def span_for(self, rank: int, view: DataView):
        return self._spans[rank][view]

    # -- fields ------------------------------------------------------------------
    def new_field(
        self,
        name: str,
        cardinality: int = 1,
        dtype=np.float64,
        outside_value: float = 0.0,
        layout: Layout = Layout.SOA,
    ) -> "DenseField":
        return DenseField(self, name, cardinality, dtype, outside_value, layout)

    def mask_field(self, name: str = "mask") -> "DenseField":
        """0/1 indicator field of the activity mask (1 everywhere if no mask)."""
        f = self.new_field(name, cardinality=1, outside_value=0.0)
        if self.virtual:
            return f
        if self.mask is None:
            f.fill(1.0)
        else:
            for rank in range(self.num_devices):
                a, b = self.bounds[rank]
                f.partition(rank).view(self.span_for(rank, DataView.STANDARD))[...] = self.mask[a:b].astype(
                    f.dtype
                )
        f.sync_halo_now()
        return f


class DenseFieldPartition:
    """Rank-local vectorised accessor for a dense field."""

    def __init__(self, field: "DenseField", rank: int):
        self.field = field
        self.rank = rank
        grid = field.grid
        self.h = grid.radius
        self.outside_value = field.outside_value
        self.storage = field.buffers[rank].array  # None when virtual
        self._global_start = grid.bounds[rank][0]
        self._lateral_shape = grid.shape[1:]

    def _comp(self, comp: int) -> np.ndarray:
        if self.field.layout is Layout.SOA:
            return self.storage[comp]
        return self.storage[..., comp]

    def view(self, span: DenseStrip, comp: int = 0) -> np.ndarray:
        """Writable view of one component over the span's owned cells."""
        return self._comp(comp)[self.h + span.lo : self.h + span.hi]

    def view_all(self, span: DenseStrip) -> np.ndarray:
        """Writable component-first view, layout independent."""
        if self.field.layout is Layout.SOA:
            return self.storage[:, self.h + span.lo : self.h + span.hi]
        return np.moveaxis(self.storage[self.h + span.lo : self.h + span.hi], -1, 0)

    def neighbour(self, span: DenseStrip, offset: tuple[int, ...], comp: int = 0) -> np.ndarray:
        """Read-only neighbour values at ``offset`` for every cell in the span.

        Reads across the partition edge resolve to halo slots (filled by
        the last halo update); reads across the global border resolve to
        ``outside_value``.
        """
        d0, *lateral = offset
        if abs(d0) > self.h:
            raise ValueError(
                f"offset {offset} exceeds halo radius {self.h} of grid '{self.field.grid.name}'"
            )
        src = self._comp(comp)
        block = src[self.h + span.lo + d0 : self.h + span.hi + d0]
        if not any(lateral):
            return block
        out = np.full(block.shape, self.outside_value, dtype=self.field.dtype)
        src_ix: list[slice] = [slice(None)]
        dst_ix: list[slice] = [slice(None)]
        for d, size in zip(lateral, self._lateral_shape):
            src_ix.append(slice(max(d, 0), size + min(d, 0)))
            dst_ix.append(slice(max(-d, 0), size + min(-d, 0)))
        out[tuple(dst_ix)] = block[tuple(src_ix)]
        return out

    def coords(self, span: DenseStrip) -> tuple[np.ndarray, ...]:
        """Broadcastable global coordinates of the span's cells."""
        ndim = self.field.grid.ndim
        axis0 = np.arange(self._global_start + span.lo, self._global_start + span.hi)
        arrays = [axis0] + [np.arange(s) for s in self._lateral_shape]
        out = []
        for axis, arr in enumerate(arrays):
            shape = [1] * ndim
            shape[axis] = len(arr)
            out.append(arr.reshape(shape))
        return tuple(out)


class DenseField(Field):
    """Field stored over the full bounding box, with ghost slices.

    Each rank's ``storage`` is ``(cardinality, n, *lateral)`` for SoA and
    ``(n, *lateral, cardinality)`` for AoS, ``n`` counting the ghost
    slices.  A multi-component SoA field's components are C-contiguous
    blocks :func:`~repro.domain.layout.component_pitch` elements apart, so
    the storage as a whole is not C-contiguous.
    """

    def __init__(self, grid: DenseGrid, name, cardinality, dtype, outside_value, layout):
        super().__init__(grid, name, cardinality, dtype, outside_value, layout)
        h = grid.radius
        pitched = layout is Layout.SOA and cardinality > 1
        for rank in range(grid.num_devices):
            n = grid.local_slices(rank) + 2 * h
            cells = (n, *grid.shape[1:])
            shape = (cardinality, *cells) if layout is Layout.SOA else (*cells, cardinality)
            pitch = component_pitch(n * grid.lateral, self.dtype.itemsize) if pitched else None
            buf = grid.backend.allocate(rank, shape, dtype, virtual=grid.virtual, pitch=pitch)
            if buf.array is not None:
                buf.array[...] = outside_value
            self.buffers.append(buf)
        self._halo_msgs: list[HaloMsg] | None = None

    def partition(self, rank: int) -> DenseFieldPartition:
        return DenseFieldPartition(self, rank)

    def _gather(self, out: np.ndarray) -> None:
        # the rank slabs tile axis 0, so every cell is written below
        cuts = [0, *(b for _, b in self.grid.bounds)]
        assert [a for a, _ in self.grid.bounds] == cuts[:-1] and cuts[-1] == self.grid.shape[0], self.grid.bounds
        for rank in range(self.num_devices):
            a, b = self.grid.bounds[rank]
            span = self.grid.span_for(rank, DataView.STANDARD)
            out[:, a:b] = self.partition(rank).view_all(span)

    def halo_messages(self) -> list[HaloMsg]:
        """Built once per field: payload arrays are never rebound, so
        ``sync_halo_now()`` and every replay reuse the built copy ops."""
        if self._halo_msgs is None:
            self._halo_msgs = self._build_halo_messages()
        return self._halo_msgs

    def _slab_slices(self, src: int, dst: int) -> tuple[slice, slice]:
        """Storage slices of the slab ``src`` sends and of the ghost slots it fills on ``dst``."""
        h = self.grid.radius
        if dst == src + 1:
            n_src = self.grid.local_slices(src)
            return slice(n_src, n_src + h), slice(0, h)  # top owned slices -> low halo slots
        n_dst = self.grid.local_slices(dst)
        return slice(h, 2 * h), slice(n_dst + h, n_dst + 2 * h)  # low owned slices -> high halo slots

    def _build_halo_messages(self) -> list[HaloMsg]:
        h = self.grid.radius
        if h == 0 or self.num_devices == 1:
            return []
        msgs: list[HaloMsg] = []
        lateral_cells = self.grid.lateral
        per_comp = self.layout is Layout.SOA and self.cardinality > 1
        comps = range(self.cardinality) if per_comp else [None]
        slab_bytes = h * lateral_cells * self.dtype.itemsize * (1 if per_comp else self.cardinality)
        for src, dst in exchange_pairs(self.num_devices):
            src_sl, dst_sl = self._slab_slices(src, dst)
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
                    fn = _copy(d_arr[dst_sl], s_arr[src_sl])
                msgs.append(HaloMsg(name, src, dst, slab_bytes, fn))
        return msgs

    def batched_halo_fn(self, msgs):
        """One copy standing in for a whole per-component message family.

        The fusion pass hands this the contiguous run of per-component
        SoA halo messages it coalesced (one ``(src, dst)`` pair, every
        component exactly once, any order); the returned closure moves
        the multi-component slab ``storage[:, slices]`` in a single copy
        (``cardinality`` strided chunks) — same bytes to the same ghost
        slots as the per-component copies, one dispatch instead of
        ``cardinality``.  Returns ``None`` whenever
        the messages are not exactly such a family, so callers can always
        fall back to running the constituent copies one by one.
        """
        if self.virtual or self.layout is not Layout.SOA or self.cardinality <= 1:
            return None
        if len(msgs) != self.cardinality:
            return None
        src, dst = msgs[0].src_rank, msgs[0].dst_rank
        expected = {f"halo:{self.name}.{c}:{src}->{dst}" for c in range(self.cardinality)}
        if {m.name for m in msgs} != expected:
            return None
        if any(m.src_rank != src or m.dst_rank != dst for m in msgs):
            return None
        src_sl, dst_sl = self._slab_slices(src, dst)
        return _copy(self.partition(dst).storage[:, dst_sl], self.partition(src).storage[:, src_sl])


def _copy(dst: np.ndarray, src: np.ndarray):
    """What moves ``src`` into ``dst``: a one-op table, else ``np.copyto``."""
    return _table.copy(dst, src) or functools.partial(np.copyto, dst, src)
