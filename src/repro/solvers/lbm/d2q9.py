"""D2Q9 lattice-Boltzmann Kármán vortex street (paper Table I).

Channel flow around a circular cylinder: constant-velocity inflow on the
left edge, zero-gradient outflow on the right, halfway bounce-back on
the channel walls and the cylinder.  The solid geometry lives in a 0/1
mask field whose ``outside_value`` of 0 turns the domain border into
walls automatically; inflow/outflow columns are overwritten inside the
same fused kernel using cell coordinates, so one container per time step
suffices (single-kernel steps are what Table I measures in LUPS).
"""

from __future__ import annotations

import numpy as np

from repro.codegen import lattice_kernels
from repro.domain import D2Q9_STENCIL, DenseGrid, Layout, SparseGrid
from repro.skeleton import Occ, Skeleton
from repro.system import Backend

from .lattice import D2Q9, LatticeSpec, omega_from_reynolds

RHO0 = 1.0


def cylinder_mask(shape: tuple[int, int], center: tuple[float, float], radius: float) -> np.ndarray:
    """Fluid mask (True = fluid) for a channel with one circular obstacle."""
    ny, nx = shape
    yy, xx = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    solid = (yy - center[0]) ** 2 + (xx - center[1]) ** 2 <= radius**2
    return ~solid


def make_karman_container(
    grid: DenseGrid,
    f_in,
    f_out,
    mask,
    omega: float,
    inflow_velocity: float,
    lattice: LatticeSpec = D2Q9,
    name: str = "karman_step",
):
    """One fused Kármán time step: stream, collide, and apply all BCs."""
    nx = grid.shape[1]
    vel, w, opp = lattice.velocities, lattice.weights, lattice.opposite
    u_in = np.array([0.0, inflow_velocity])
    feq_in = lattice.equilibrium(np.float64(RHO0), u_in)  # (Q,) scalars

    def loading(loader):
        fi = loader.read(f_in, stencil=True)
        mk = loader.read(mask, stencil=True)
        fo = loader.write(f_out)

        def compute(span):
            center = fi.view(span, 0)
            _, x = (np.broadcast_to(c, center.shape) for c in fi.coords(span))
            f = np.empty((lattice.q, *center.shape), dtype=np.float64)
            for q in range(lattice.q):
                e = vel[q]
                if not e.any():
                    f[q] = center
                    continue
                off = tuple(int(-c) for c in e)
                g = fi.neighbour(span, off, q)
                m = mk.neighbour(span, off)
                f[q] = np.where(m > 0.5, g, fi.view(span, int(opp[q])))
            rho, u = lattice.moments(f)
            feq = lattice.equilibrium(rho, u)
            out = f + omega * (feq - f)

            fluid = mk.view(span) > 0.5
            inflow = x == 0
            outflow = x == nx - 1
            for q in range(lattice.q):
                col = out[q]
                col = np.where(inflow, feq_in[q], col)
                # zero-gradient outflow: previous step's value one cell left
                col = np.where(outflow, fi.neighbour(span, (0, -1), q), col)
                col = np.where(fluid, col, w[q] * RHO0)  # park solid cells at rest
                fo.view(span, q)[...] = col

        return compute

    container = grid.new_container(name, loading, flops_per_cell=150.0)
    container.specialize = lattice_kernels.karman(grid, f_in, f_out, mask, omega, feq_in, lattice, RHO0)
    return container


class KarmanVortexStreet:
    """The Table I application: 2-D channel flow past a cylinder."""

    def __init__(
        self,
        backend: Backend,
        shape: tuple[int, int],
        reynolds: float = 220.0,
        inflow_velocity: float = 0.04,
        occ: Occ = Occ.STANDARD,
        layout: Layout = Layout.SOA,
        virtual: bool = False,
        sparse: bool = False,
        lattice: LatticeSpec = D2Q9,
        partition_weights=None,
    ):
        ny, nx = shape
        self.backend = backend
        self.lattice = lattice
        self.inflow_velocity = inflow_velocity
        self.cyl_center = (ny / 2.0 + 0.5, nx / 4.0)  # slightly off-axis seeds shedding
        self.cyl_radius = max(2.0, ny / 9.0)
        self.omega = omega_from_reynolds(reynolds, inflow_velocity, 2.0 * self.cyl_radius)
        fluid = cylinder_mask(shape, self.cyl_center, self.cyl_radius)
        if sparse:
            # free-form domain: the cylinder's cells are simply not stored;
            # the mask field is 1 on every stored cell and gathers of it at
            # absent neighbours return its outside_value 0 = solid
            if virtual:
                raise ValueError("the sparse Kármán flow needs the real mask; virtual is unsupported")
            self.grid = SparseGrid(
                backend, mask=fluid, stencils=[D2Q9_STENCIL], name="karman", partition_weights=partition_weights
            )
        else:
            self.grid = DenseGrid(
                backend,
                shape,
                stencils=[D2Q9_STENCIL],
                virtual=virtual,
                name="karman",
                partition_weights=partition_weights,
            )
        self.mask = self.grid.new_field("mask", outside_value=0.0)
        self.f = [
            self.grid.new_field(n, cardinality=lattice.q, outside_value=0.0, layout=layout)
            for n in ("f0", "f1")
        ]
        if not virtual:
            if sparse:
                self.mask.fill(1.0)
                self.mask.sync_halo_now()
            else:
                self.mask.init(lambda y, x: fluid[y, x].astype(np.float64))
        self.reset()
        self.skeletons = [
            Skeleton(
                backend,
                [
                    make_karman_container(
                        self.grid, self.f[i], self.f[1 - i], self.mask, self.omega, inflow_velocity, lattice
                    )
                ],
                occ=occ,
                name=f"karman_{i}",
            )
            for i in (0, 1)
        ]

    def reset(self) -> None:
        """The cold state: inflow-velocity equilibrium in both population
        fields, halos synced, parity zero (the mask is static)."""
        self._parity = 0
        if self.grid.virtual:
            return
        feq0 = self.lattice.equilibrium(np.float64(RHO0), np.array([0.0, self.inflow_velocity]))
        for fld in self.f:
            fld.fill(feq0)
            fld.sync_halo_now()

    @property
    def current(self):
        return self.f[self._parity]

    def step(self, iterations: int = 1, mode: str = "serial") -> None:
        for _ in range(iterations):
            self.skeletons[self._parity].run(mode=mode)
            self._parity = 1 - self._parity

    # -- resilience hooks (as LidDrivenCavity's; the mask is rebuilt, not restored)
    def checkpoint_fields(self) -> list:
        return list(self.f)

    def checkpoint_scalars(self) -> dict:
        return {"parity": self._parity}

    def restore_scalars(self, scalars: dict) -> None:
        self._parity = int(scalars["parity"])

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lattice.moments(self.current.to_numpy())

    def vorticity(self) -> np.ndarray:
        """Curl of the velocity field (host-side, for visual checks)."""
        _, u = self.macroscopic()
        duy_dx = np.gradient(u[0], axis=1)
        dux_dy = np.gradient(u[1], axis=0)
        return duy_dx - dux_dy

    def iteration_makespan(self, machine=None) -> float:
        sk = self.skeletons[self._parity]
        return sk.trace(machine=machine, result=sk.record()).makespan

    def lups(self, machine=None) -> float:
        """Lattice updates per second under the cost model (Table I metric)."""
        return self.grid.num_active / self.iteration_makespan(machine)
