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
from repro.skeleton import Occ
from repro.system import Backend

from .lattice import D2Q9, omega_from_reynolds
from .twopop import RHO0, TwoPop


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
    name: str = "karman_step",
):
    """One fused Kármán time step: stream, collide, and apply all BCs."""
    nx = grid.shape[1]
    vel, w, opp = D2Q9.velocities, D2Q9.weights, D2Q9.opposite
    u_in = np.array([0.0, inflow_velocity])
    feq_in = D2Q9.equilibrium(np.float64(RHO0), u_in)  # (Q,) scalars

    def loading(loader):
        fi = loader.read(f_in, stencil=True)
        mk = loader.read(mask, stencil=True)
        fo = loader.write(f_out)

        def compute(span):
            center = fi.view(span, 0)
            _, x = (np.broadcast_to(c, center.shape) for c in fi.coords(span))
            f = np.empty((D2Q9.q, *center.shape), dtype=np.float64)
            for q in range(D2Q9.q):
                e = vel[q]
                if not e.any():
                    f[q] = center
                    continue
                off = tuple(int(-c) for c in e)
                g = fi.neighbour(span, off, q)
                m = mk.neighbour(span, off)
                f[q] = np.where(m > 0.5, g, fi.view(span, int(opp[q])))
            out = D2Q9.collide(f, omega)

            fluid = mk.view(span) > 0.5
            inflow = x == 0
            outflow = x == nx - 1
            for q in range(D2Q9.q):
                col = out[q]
                col = np.where(inflow, feq_in[q], col)
                # zero-gradient outflow: previous step's value one cell left
                col = np.where(outflow, fi.neighbour(span, (0, -1), q), col)
                col = np.where(fluid, col, w[q] * RHO0)  # park solid cells at rest
                fo.view(span, q)[...] = col

        return compute

    container = grid.new_container(name, loading, flops_per_cell=150.0)
    container.specialize = lattice_kernels.karman(grid, f_in, f_out, mask, omega, feq_in, D2Q9, RHO0)
    return container


class KarmanVortexStreet(TwoPop):
    """The Table I application: 2-D channel flow past a cylinder."""

    lattice = D2Q9
    stencil = D2Q9_STENCIL
    outside_value = 0.0
    grid_name = skeleton_name = "karman"

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
        partition_weights=None,
    ):
        ny, nx = shape
        self.inflow_velocity = inflow_velocity
        self.cyl_center = (ny / 2.0 + 0.5, nx / 4.0)  # slightly off-axis seeds shedding
        self.cyl_radius = max(2.0, ny / 9.0)
        self.omega = omega_from_reynolds(reynolds, inflow_velocity, 2.0 * self.cyl_radius)
        # on a sparse grid the cylinder's cells are simply not stored
        self.fluid = cylinder_mask(shape, self.cyl_center, self.cyl_radius)
        if sparse and virtual:
            raise ValueError("the sparse Kármán flow needs the real mask; virtual is unsupported")
        self.rest = D2Q9.equilibrium(np.float64(RHO0), np.array([0.0, inflow_velocity]))  # the inflow state
        super().__init__(backend, shape, occ, layout, virtual, sparse, partition_weights)

    def geometry(self) -> None:
        """The 0/1 mask field; its outside_value 0 makes the border a wall."""
        self.mask = self.grid.new_field("mask", outside_value=0.0)
        if self.grid.virtual:
            return
        if isinstance(self.grid, SparseGrid):
            # every stored cell is fluid; gathers at absent neighbours read 0 = solid
            self.mask.fill(1.0)
            self.mask.sync_halo_now()
        else:
            self.mask.init(lambda y, x: self.fluid[y, x].astype(np.float64))

    def container(self, f_in, f_out):
        return make_karman_container(self.grid, f_in, f_out, self.mask, self.omega, self.inflow_velocity)

    def vorticity(self) -> np.ndarray:
        """Curl of the velocity field (host-side, for visual checks)."""
        _, u = self.macroscopic()
        duy_dx = np.gradient(u[0], axis=1)
        dux_dy = np.gradient(u[1], axis=0)
        return duy_dx - dux_dy
