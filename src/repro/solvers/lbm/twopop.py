"""The twoPop lattice-Boltzmann application, written once (paper VI-A).

The twoPop scheme keeps two distribution fields and swaps them every
iteration: the step of parity ``p`` pulls from ``f[p]`` and writes
``f[1 - p]``, whose halos are then synced, so between steps the other
population is dead state.  :class:`TwoPop` owns everything that scheme
shares across applications: the grid choice, the population pair, the
parity skeleton pair, reset, stepping, the resilience hooks, the host
readback and the DES timing.  An application supplies its lattice, its
geometry, its rest state and the one container of a step.
"""

from __future__ import annotations

import numpy as np

from repro.domain import DenseGrid, Layout, SparseGrid, Stencil
from repro.skeleton import Occ, Skeleton
from repro.system import Backend

from .lattice import LatticeSpec

#: the reference density of both applications' rest states
RHO0 = 1.0


class TwoPop:
    """Grid, population pair and alternating skeletons of one twoPop flow.

    A subclass names its ``lattice``, ``stencil``, the populations'
    ``outside_value`` and the ``grid_name`` / ``skeleton_name`` of what it
    builds; it sets ``rest`` (the per-direction cold state), ``fluid``
    when not the full box, and whatever :meth:`container` reads, before
    calling ``__init__``.
    """

    lattice: LatticeSpec
    stencil: Stencil
    outside_value: float
    grid_name: str
    skeleton_name: str
    rest: np.ndarray
    #: the cells a sparse grid stores; None stores the full box
    fluid: np.ndarray | None = None

    def __init__(
        self,
        backend: Backend,
        shape: tuple[int, ...],
        occ: Occ,
        layout: Layout,
        virtual: bool,
        sparse: bool,
        partition_weights,
    ):
        self.backend = backend
        common = dict(stencils=[self.stencil], name=self.grid_name, partition_weights=partition_weights)
        if sparse and virtual:
            full = np.full(shape[0], int(np.prod(shape[1:])), dtype=np.int64)
            self.grid = SparseGrid(backend, shape=shape, active_per_slice=full, virtual=True, **common)
        elif sparse:
            mask = np.ones(shape, dtype=bool) if self.fluid is None else self.fluid
            self.grid = SparseGrid(backend, mask=mask, **common)
        else:
            self.grid = DenseGrid(backend, shape, virtual=virtual, **common)
        self.geometry()
        self.f = [
            self.grid.new_field(n, cardinality=self.lattice.q, outside_value=self.outside_value, layout=layout)
            for n in ("f0", "f1")
        ]
        self.reset()
        self.skeletons = [
            Skeleton(backend, [self.container(self.f[i], self.f[1 - i])], occ=occ, name=f"{self.skeleton_name}_{i}")
            for i in (0, 1)
        ]

    def geometry(self) -> None:
        """Create and fill the static fields, between the grid and the
        populations (none by default)."""

    def container(self, f_in, f_out):
        """The one container of a step: ``f_out`` from ``f_in``."""
        raise NotImplementedError

    def reset(self) -> None:
        """The cold state of everything the next step reads: parity zero
        and ``rest`` in the live population ``f[0]``, halos synced.

        ``f[1]`` is dead until that step writes every owned cell of it and
        syncs its halos, so it keeps whatever it held (static fields keep
        their values too).
        """
        self._parity = 0
        if self.grid.virtual:
            return
        self.f[0].fill(self.rest)
        self.f[0].sync_halo_now()

    @property
    def current(self):
        """The field holding the latest post-collision populations."""
        return self.f[self._parity]

    def step(self, iterations: int = 1, mode: str = "serial") -> None:
        for _ in range(iterations):
            self.skeletons[self._parity].run(mode=mode)
            self._parity = 1 - self._parity

    # -- resilience hooks (static fields are rebuilt, not restored) ------------
    def checkpoint_fields(self) -> list:
        """The live population ``f[parity]`` — with the parity, the complete
        state of the stepping (the other population is dead).  A restore
        sets the parity first (:meth:`restore_scalars`), so this names the
        field the checkpoint was taken from."""
        return [self.current]

    def checkpoint_scalars(self) -> dict:
        """Host-side loop state: which field holds the latest populations."""
        return {"parity": self._parity}

    def restore_scalars(self, scalars: dict) -> None:
        self._parity = int(scalars["parity"])

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Global density and velocity arrays (host-side readback)."""
        return self.lattice.moments(self.current.to_numpy())

    def iteration_makespan(self, machine=None) -> float:
        """Simulated time of one iteration under the machine model."""
        sk = self.skeletons[self._parity]
        return sk.trace(machine=machine, result=sk.record()).makespan

    def lups(self, machine=None) -> float:
        """Lattice-cell updates per second under the cost model (Table I/II metric)."""
        return self.grid.num_active / self.iteration_makespan(machine)
