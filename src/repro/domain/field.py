"""Field: metadata attached to every active cell of a Grid (paper IV-C2).

A Field extends the Set level's Multi-GPU data interface with
domain-specific capabilities: view-restricted vectorised access to cell
metadata, read-only neighbour access along registered stencil offsets
(the own-compute rule), and the explicit halo coherency model.

New fields start with every entry — owned cells and halo slots — equal
to ``outside_value``, so stencil reads across the global domain border
are well-defined before any user initialisation.
"""

from __future__ import annotations

import abc
import itertools

import numpy as np

from repro.sets.dataset import MultiDeviceData
from repro.system import DeviceBuffer

from .halo import HaloMsg
from .layout import Layout
from .views import DataView


class Field(MultiDeviceData, abc.ABC):
    """Per-cell scalar or vector metadata over a Grid."""

    def __init__(self, grid, name: str, cardinality: int, dtype, outside_value: float, layout: Layout):
        super().__init__(name)
        if cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        self.grid = grid
        self.cardinality = cardinality
        self.dtype = np.dtype(dtype)
        self.outside_value = outside_value
        self.layout = layout
        self.buffers: list[DeviceBuffer] = []
        self._halo_runs: list | None = None  # a bare sync_halo_now's copies, built on first use

    # -- MultiDeviceData ----------------------------------------------------
    @property
    def num_devices(self) -> int:
        return self.grid.num_devices

    def span_for(self, rank: int, view: DataView):
        return self.grid.span_for(rank, view)

    @property
    def bytes_per_cell(self) -> int:
        return self.dtype.itemsize * self.cardinality

    @property
    def virtual(self) -> bool:
        return self.grid.virtual

    # -- domain interface -----------------------------------------------------
    @abc.abstractmethod
    def partition(self, rank: int):
        """Rank-local accessor used inside compute lambdas."""

    @abc.abstractmethod
    def halo_messages(self) -> list[HaloMsg]:
        """The explicit transfers one haloUpdate of this field performs."""

    @abc.abstractmethod
    def to_numpy(self) -> np.ndarray:
        """Global array of shape ``(cardinality, *grid.shape)``.

        Inactive/outside cells read as ``outside_value``.
        """

    def fill(self, value, comp: int | None = None) -> None:
        """Set owned cells (every component, or one) to a constant; with
        ``comp`` None, ``value`` may also hold one constant per component."""
        self._require_storage()
        for rank in range(self.num_devices):
            part = self.partition(rank)
            span = self.grid.span_for(rank, DataView.STANDARD)
            if comp is None:
                view = part.view_all(span)
                view[...] = np.reshape(value, (-1,) + (1,) * (view.ndim - 1)) if np.ndim(value) else value
            else:
                part.view(span, comp)[...] = value

    def init(self, fn, comp: int | None = None) -> None:
        """Set owned cells from ``fn(*coords)`` and refresh halos.

        ``fn`` receives one broadcastable global-coordinate array per
        grid axis and must return values broadcastable to the cells'
        shape — the same callable works on dense and sparse grids.
        """
        self._scatter(fn, range(self.cardinality) if comp is None else [comp])
        self.sync_halo_now()

    def _scatter(self, fn, comps) -> None:
        """Set components ``comps`` of the owned cells from ``fn(*coords)``;
        halos are left stale for the caller to refresh."""
        self._require_storage()
        for rank in range(self.num_devices):
            part = self.partition(rank)
            span = self.grid.span_for(rank, DataView.STANDARD)
            values = fn(*part.coords(span))
            for c in comps:
                part.view(span, c)[...] = values

    def _require_storage(self) -> None:
        if self.virtual:
            raise RuntimeError(f"field '{self.name}' is virtual (planning-only); it has no payload")

    def load_numpy(self, array: np.ndarray) -> None:
        """Set owned cells from a global ``(cardinality, *grid.shape)`` array.

        The exact inverse of :meth:`to_numpy` on owned cells, independent
        of the grid's partitioning — which is what lets a checkpoint
        taken on ``n`` devices restore onto the surviving ``n-1`` after a
        device loss (the array is re-scattered across the new slabs and
        halos are refreshed once, after every component is in place).
        """
        self._require_storage()
        arr = np.asarray(array, dtype=self.dtype)
        expected = (self.cardinality, *self.grid.shape)
        if arr.shape != expected:
            raise ValueError(f"field '{self.name}' expects shape {expected}, got {arr.shape}")
        for c in range(self.cardinality):
            self._scatter(lambda *coords, _comp=arr[c]: _comp[tuple(coords)], [c])
        self.sync_halo_now()

    def sync_halo_now(self) -> None:
        """Eagerly run a full halo update (init-time convenience).

        Inside a Skeleton, halo updates are scheduled automatically; this
        helper is for Set-level code and for making stencil reads valid
        right after ``init``/``fill``.  With no layer armed it runs the
        copies themselves, a per-component family as one copy; otherwise
        each message is a command on one ``halo:<name>`` queue per
        source rank, so the armed layers see every message.
        """
        backend = self.grid.backend
        if not backend.session.layers():
            for run in self._bare_halo_runs():
                run()
            return
        queues: dict[int, object] = {}
        for msg in self.halo_messages():
            q = queues.get(msg.src_rank)
            if q is None:
                q = queues[msg.src_rank] = backend.new_queue(msg.src_rank, name=f"halo:{self.name}")
            q.enqueue_copy(msg.name, msg.fn, backend.device(msg.src_rank), backend.device(msg.dst_rank), msg.nbytes)

    def _bare_halo_runs(self) -> list:
        """The callables of a bare :meth:`sync_halo_now`, built once like the
        messages: each ``(src, dst)`` run of messages through the field's
        ``batched_halo_fn`` when it takes it, else message by message."""
        if self._halo_runs is None:
            runs, batched = [], getattr(self, "batched_halo_fn", None)
            for _, group in itertools.groupby(self.halo_messages(), key=lambda m: (m.src_rank, m.dst_rank)):
                group = list(group)
                fn = batched(group) if batched is not None and len(group) > 1 else None
                runs += [fn] if fn is not None else [m.fn for m in group]
            self._halo_runs = runs
        return self._halo_runs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.name}, card={self.cardinality}, "
            f"dtype={self.dtype}, layout={self.layout.value})"
        )
