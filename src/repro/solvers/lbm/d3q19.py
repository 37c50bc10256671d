"""D3Q19 lattice-Boltzmann lid-driven cavity, twoPop variant (paper VI-A).

The twoPop scheme keeps two distribution fields and swaps them every
iteration; collide and streaming are fused into a single pull-scheme
kernel to minimise memory traffic, exactly as the paper describes for
its stlbm-derived benchmark.  Walls use halfway bounce-back, the moving
lid (top plane, +x direction) uses the standard moving-wall correction.

Out-of-domain neighbour reads are detected through the distribution
field's ``outside_value`` sentinel (-1, impossible for a population),
which turns every domain border into a solid wall with no extra mask
traffic.
"""

from __future__ import annotations

import numpy as np

from repro.codegen import lattice_kernels
from repro.domain import D3Q19_STENCIL, DenseGrid, Layout, SparseGrid
from repro.skeleton import Occ, Skeleton
from repro.system import Backend

from .lattice import D3Q19, LatticeSpec

SOLID_SENTINEL = -1.0
RHO0 = 1.0


def make_twopop_container(
    grid: DenseGrid,
    f_in,
    f_out,
    omega: float,
    lid_velocity: float,
    lattice: LatticeSpec = D3Q19,
    name: str = "collide_stream",
):
    """Fused collide+stream pull kernel: f_out <- BGK(stream(f_in))."""
    nz = grid.shape[0]
    vel = lattice.velocities
    w = lattice.weights
    opp = lattice.opposite

    def loading(loader):
        fi = loader.read(f_in, stencil=True)
        fo = loader.write(f_out)

        def compute(span):
            center = fi.view(span, 0)
            z = fi.coords(span)[0]
            f = np.empty((lattice.q, *center.shape), dtype=np.float64)
            for q in range(lattice.q):
                e = vel[q]
                if not e.any():
                    f[q] = center
                    continue
                off = tuple(int(-c) for c in e)
                g = fi.neighbour(span, off, q)
                bb = np.asarray(fi.view(span, int(opp[q])))
                if e[0] < 0 and lid_velocity != 0.0:
                    # pulling from above the top plane: the moving lid
                    corr = 6.0 * w[q] * RHO0 * (e[2] * lid_velocity)
                    from_lid = np.broadcast_to(z + off[0] >= nz, g.shape)
                    bb = bb + np.where(from_lid, corr, 0.0)
                f[q] = np.where(g <= SOLID_SENTINEL + 0.5, bb, g)
            rho, u = lattice.moments(f)
            feq = lattice.equilibrium(rho, u)
            out = f + omega * (feq - f)
            for q in range(lattice.q):
                fo.view(span, q)[...] = out[q]

        return compute

    container = grid.new_container(name, loading, flops_per_cell=350.0)
    # the loading lambda above closes over plain floats (no mutable scalar
    # cells), so pre-binding the whole launch is semantics-preserving; the
    # hook declines unsupported layouts at freeze time
    container.specialize = lattice_kernels.twopop(
        grid, f_in, f_out, omega, lid_velocity, lattice, SOLID_SENTINEL, RHO0
    )
    return container


class LidDrivenCavity:
    """The full application: grid, fields, and the alternating skeletons."""

    def __init__(
        self,
        backend: Backend,
        shape: tuple[int, int, int],
        omega: float = 1.0,
        lid_velocity: float = 0.05,
        occ: Occ = Occ.STANDARD,
        layout: Layout = Layout.SOA,
        virtual: bool = False,
        sparse: bool = False,
        lattice: LatticeSpec = D3Q19,
        partition_weights=None,
    ):
        self.backend = backend
        self.lattice = lattice
        self.omega = omega
        self.lid_velocity = lid_velocity
        if sparse:
            # the cavity interior is fully active; running it on the
            # element-sparse grid exercises data-structure portability
            # (same kernel, connectivity-table gathers instead of shifts)
            if virtual:
                self.grid = SparseGrid(
                    backend,
                    shape=shape,
                    stencils=[D3Q19_STENCIL],
                    active_per_slice=np.full(shape[0], shape[1] * shape[2], dtype=np.int64),
                    virtual=True,
                    name="cavity",
                    partition_weights=partition_weights,
                )
            else:
                self.grid = SparseGrid(
                    backend,
                    mask=np.ones(shape, dtype=bool),
                    stencils=[D3Q19_STENCIL],
                    name="cavity",
                    partition_weights=partition_weights,
                )
        else:
            self.grid = DenseGrid(
                backend,
                shape,
                stencils=[D3Q19_STENCIL],
                virtual=virtual,
                name="cavity",
                partition_weights=partition_weights,
            )
        self.f = [
            self.grid.new_field(n, cardinality=lattice.q, outside_value=SOLID_SENTINEL, layout=layout)
            for n in ("f0", "f1")
        ]
        self.reset()
        self.skeletons = [
            Skeleton(
                backend,
                [make_twopop_container(self.grid, self.f[i], self.f[1 - i], omega, lid_velocity, lattice)],
                occ=occ,
                name=f"lbm_{i}",
            )
            for i in (0, 1)
        ]

    def reset(self) -> None:
        """The cold state: zero-velocity equilibrium (``w_q * rho0`` per
        component) in both population fields, halos synced, parity zero."""
        self._parity = 0
        if self.grid.virtual:
            return
        rest = [RHO0 * self.lattice.weights[q] for q in range(self.lattice.q)]
        for fld in self.f:
            fld.fill(rest)
            fld.sync_halo_now()

    @property
    def current(self):
        """The field holding the latest post-collision populations."""
        return self.f[self._parity]

    def step(self, iterations: int = 1, mode: str = "serial") -> None:
        for _ in range(iterations):
            self.skeletons[self._parity].run(mode=mode)
            self._parity = 1 - self._parity

    # -- resilience hooks ---------------------------------------------------
    def checkpoint_fields(self) -> list:
        """Both population fields — the complete state of the stepping."""
        return list(self.f)

    def checkpoint_scalars(self) -> dict:
        """Host-side loop state: which field holds the latest populations."""
        return {"parity": self._parity}

    def restore_scalars(self, scalars: dict) -> None:
        self._parity = int(scalars["parity"])

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Global density and velocity arrays (host-side readback)."""
        f = self.current.to_numpy()
        return self.lattice.moments(f)

    def total_mass(self) -> float:
        return float(self.current.to_numpy().sum())

    def iteration_makespan(self, machine=None) -> float:
        """Simulated time of one iteration under the machine model."""
        sk = self.skeletons[self._parity]
        return sk.trace(machine=machine, result=sk.record()).makespan

    def mlups(self, machine=None) -> float:
        """Million lattice-cell updates per second under the cost model."""
        return self.grid.num_active / self.iteration_makespan(machine) / 1e6
