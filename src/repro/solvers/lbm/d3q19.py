"""D3Q19 lattice-Boltzmann lid-driven cavity, twoPop variant (paper VI-A).

The :mod:`.twopop` shell keeps the two distribution fields and swaps
them every iteration; collide and streaming are fused into a single
pull-scheme kernel to minimise memory traffic, exactly as the paper
describes for its stlbm-derived benchmark.  Walls use halfway
bounce-back, the moving lid (top plane, +x direction) uses the standard
moving-wall correction.

Out-of-domain neighbour reads are detected through the distribution
field's ``outside_value`` sentinel (-1, impossible for a population),
which turns every domain border into a solid wall with no extra mask
traffic.
"""

from __future__ import annotations

import numpy as np

from repro.codegen import lattice_kernels
from repro.domain import D3Q19_STENCIL, DenseGrid, Layout
from repro.skeleton import Occ
from repro.system import Backend

from .lattice import D3Q19
from .twopop import RHO0, TwoPop

SOLID_SENTINEL = -1.0


def pull(fi, span, q: int, z, nz: int, lid_velocity: float) -> np.ndarray:
    """Population ``q`` pulled into the span's cells (``z`` their axis-0
    coordinates): the upstream neighbour's value, or halfway bounce-back
    where that neighbour reads as ``SOLID_SENTINEL``, with the moving-wall
    correction where it lies above the top plane."""
    e = D3Q19.velocities[q]
    if not e.any():
        return fi.view(span, q)
    off = tuple(int(-c) for c in e)
    g = fi.neighbour(span, off, q)
    bb = np.asarray(fi.view(span, int(D3Q19.opposite[q])))
    if e[0] < 0 and lid_velocity != 0.0:
        # pulling from above the top plane: the moving lid
        corr = 6.0 * D3Q19.weights[q] * RHO0 * (e[2] * lid_velocity)
        from_lid = np.broadcast_to(z + off[0] >= nz, g.shape)
        bb = bb + np.where(from_lid, corr, 0.0)
    return np.where(g <= SOLID_SENTINEL + 0.5, bb, g)


def make_twopop_container(
    grid: DenseGrid,
    f_in,
    f_out,
    omega: float,
    lid_velocity: float,
    name: str = "collide_stream",
):
    """Fused collide+stream pull kernel: f_out <- BGK(stream(f_in))."""
    nz = grid.shape[0]

    def loading(loader):
        fi = loader.read(f_in, stencil=True)
        fo = loader.write(f_out)

        def compute(span):
            z = fi.coords(span)[0]
            f = np.stack([pull(fi, span, q, z, nz, lid_velocity) for q in range(D3Q19.q)])
            out = D3Q19.collide(f, omega)
            for q in range(D3Q19.q):
                fo.view(span, q)[...] = out[q]

        return compute

    container = grid.new_container(name, loading, flops_per_cell=350.0)
    # the loading lambda above closes over plain floats (no mutable scalar
    # cells), so pre-binding the whole launch is semantics-preserving; the
    # hook declines unsupported layouts at freeze time
    container.specialize = lattice_kernels.twopop(grid, f_in, f_out, omega, lid_velocity, D3Q19, SOLID_SENTINEL, RHO0)
    return container


class LidDrivenCavity(TwoPop):
    """The cavity: walls everywhere, the top plane moving in +x."""

    lattice = D3Q19
    stencil = D3Q19_STENCIL
    outside_value = SOLID_SENTINEL
    grid_name, skeleton_name = "cavity", "lbm"
    rest = RHO0 * D3Q19.weights  # zero-velocity equilibrium

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
        partition_weights=None,
    ):
        # a sparse cavity stores its full box: the same kernel then runs on
        # connectivity-table gathers instead of shifts
        self.omega = omega
        self.lid_velocity = lid_velocity
        super().__init__(backend, shape, occ, layout, virtual, sparse, partition_weights)

    def container(self, f_in, f_out):
        return make_twopop_container(self.grid, f_in, f_out, self.omega, self.lid_velocity)

    def total_mass(self) -> float:
        return float(self.current.to_numpy().sum())
