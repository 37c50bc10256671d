"""Matrix-free finite-element linear elasticity (paper VI-C).

A solid occupying the grid's active cells is discretised with trilinear
hexahedral elements; because the grid is uniform, every element shares
one 24x24 stiffness matrix, and the assembled operator reduces to a
27-point stencil of 3x3 node-coupling blocks — exactly the matrix-free
form the paper applies CG to.

Benchmark geometry (paper): a solid cube with Dirichlet boundary fixing
displacements to 0 on the z = 0 plane and outward pressure (Neumann) on
the z = N-1 plane.

The constrained/void structure is folded into the operator as
``q = P M A (M P u) + (I - P) u`` where M is the element-density
indicator and P projects out the z=0 Dirichlet nodes; the result is
symmetric positive definite on the free active subspace, so plain CG
converges.  The projection uses a *map* container ahead of the stencil
container — which, conveniently, is the map->stencil shape the Extended
OCC optimisation feeds on.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.domain import STENCIL_27PT, DenseGrid, SparseGrid
from repro.domain.grid import Grid
from repro.skeleton import Occ
from repro.system import Backend

from .cg import CGResult, ConjugateGradient


def hex_element_stiffness(E: float = 1.0, nu: float = 0.3) -> np.ndarray:
    """24x24 stiffness of a unit trilinear hexahedron (2x2x2 Gauss).

    Local node ``l = 4*cz + 2*cy + cx`` for corner ``(cz, cy, cx)`` in
    {0,1}^3; per node the dof order is (uz, uy, ux).
    """
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    D = np.zeros((6, 6))
    D[:3, :3] = lam
    D[np.arange(3), np.arange(3)] += 2 * mu
    D[3:, 3:] = np.eye(3) * mu

    corners = np.array(list(itertools.product((0, 1), repeat=3)), dtype=float)  # (8,3) (cz,cy,cx)
    signs = 2.0 * corners - 1.0
    gp = np.array(list(itertools.product((-1, 1), repeat=3)), dtype=float) / np.sqrt(3.0)

    K = np.zeros((24, 24))
    for xi in gp:
        # dN/dxi for each local node, then dN/dx = 2*dN/dxi (unit cube)
        dN = np.zeros((8, 3))
        for a in range(8):
            s = signs[a]
            terms = 0.5 * (1.0 + s * xi)
            for d in range(3):
                prod = 0.5 * s[d]
                for o in range(3):
                    if o != d:
                        prod *= terms[o]
                dN[a, d] = 2.0 * prod
        B = np.zeros((6, 24))
        for a in range(8):
            dz, dy, dx = dN[a]
            c = 3 * a  # dof order (uz, uy, ux)
            B[0, c + 0] = dz  # e_zz
            B[1, c + 1] = dy  # e_yy
            B[2, c + 2] = dx  # e_xx
            B[3, c + 0] = dy  # g_zy
            B[3, c + 1] = dz
            B[4, c + 0] = dx  # g_zx
            B[4, c + 2] = dz
            B[5, c + 1] = dx  # g_yx
            B[5, c + 2] = dy
        K += B.T @ D @ B * (1.0 / 8.0)  # det J of the unit cube
    return K


def assembled_node_blocks(E: float = 1.0, nu: float = 0.3) -> dict[tuple[int, int, int], np.ndarray]:
    """3x3 coupling block per 27-stencil offset, assembled over the 8
    elements adjacent to a node (the interior row of the global matrix)."""
    Ke = hex_element_stiffness(E, nu)
    loc = lambda c: 4 * c[0] + 2 * c[1] + c[2]
    blocks: dict[tuple[int, int, int], np.ndarray] = {
        off: np.zeros((3, 3)) for off in itertools.product((-1, 0, 1), repeat=3)
    }
    for e in itertools.product((-1, 0), repeat=3):  # elements containing node 0
        c0 = tuple(-ec for ec in e)
        for off in blocks:
            cd = tuple(off[d] - e[d] for d in range(3))
            if all(v in (0, 1) for v in cd):
                a, b = loc(c0), loc(cd)
                blocks[off] += Ke[3 * a : 3 * a + 3, 3 * b : 3 * b + 3]
    return blocks


def make_elastic_operator(E: float = 1.0, nu: float = 0.3):
    """Factory of factories: returns an ``apply_op`` for ConjugateGradient.

    The operator consists of two containers: a map that projects and
    masks the input (mu = M P u) and the 27-point stencil that applies
    the assembled blocks, re-masks, and restores the Dirichlet identity.
    """
    blocks = assembled_node_blocks(E, nu)
    offsets = [off for off, blk in blocks.items() if np.any(np.abs(blk) > 1e-14)]

    def apply_op(grid: Grid, u, out, name: str):
        mask = _mask_field(grid)
        mu = grid.new_field(f"{name}_masked_in", cardinality=3)

        def loading_project(loader):
            up = loader.read(u)
            mp = loader.read(mask)
            mup = loader.write(mu)

            def compute(span):
                z = up.coords(span)[0]
                free = (z > 0) * mp.view(span)
                for c in range(3):
                    mup.view(span, c)[...] = free * up.view(span, c)

            return compute

        project = grid.new_container(f"{name}_project", loading_project)

        def loading_apply(loader):
            mup = loader.read(mu, stencil=True)
            mp = loader.read(mask)
            up = loader.read(u)
            op = loader.write(out)

            def compute(span):
                z = mup.coords(span)[0]
                shape = mup.view(span, 0).shape
                acc = np.zeros((3, *shape))
                for off in offsets:
                    blk = blocks[off]
                    nbr = [mup.neighbour(span, off, d) for d in range(3)]
                    for c in range(3):
                        for d in range(3):
                            if blk[c, d] != 0.0:
                                acc[c] += blk[c, d] * nbr[d]
                free = np.broadcast_to((z > 0) * mp.view(span), shape)
                for c in range(3):
                    op.view(span, c)[...] = np.where(free > 0.5, acc[c], up.view(span, c))

            return compute

        stencil = grid.new_container(f"{name}_apply", loading_apply, flops_per_cell=500.0)
        return [project, stencil]

    return apply_op


def _active_lookup(grid: Grid):
    """Coordinate-wise activity predicate usable inside ``Field.init``."""
    if isinstance(grid, DenseGrid) and grid.mask is not None:
        mask = grid.mask
        return lambda z, y, x: mask[z, y, x]
    # sparse grids only enumerate active cells; full dense is all-active
    return lambda z, y, x: np.broadcast_to(True, np.broadcast_shapes(np.shape(z), np.shape(y), np.shape(x)))


def _mask_field(grid: Grid):
    """The 0/1 element-density indicator field of a grid (cached).

    Cached on the grid instance (not a module-global dict) so the field
    dies with the grid instead of pinning device memory for the process
    lifetime.
    """
    m = getattr(grid, "_density_mask_field", None)
    if m is None:
        if isinstance(grid, DenseGrid):
            m = grid.mask_field("density")
        else:
            m = grid.new_field("density", outside_value=0.0)
            if not grid.virtual:
                m.fill(1.0)
                m.sync_halo_now()
        grid._density_mask_field = m
    return m


class ElasticitySolver:
    """The paper's benchmark: solid cube, fixed base, pressure on top."""

    def __init__(
        self,
        grid: Grid,
        E: float = 1.0,
        nu: float = 0.3,
        pressure: float = 0.01,
        top_z: int | None = None,
        occ: Occ = Occ.STANDARD,
    ):
        self.grid = grid
        self.b = grid.new_field("b", cardinality=3)
        self.u = grid.new_field("u", cardinality=3)
        if not grid.virtual:
            nz = top_z if top_z is not None else grid.shape[0] - 1
            active = _active_lookup(grid)
            # outward (+z) pressure on the solid's top plane, zero elsewhere
            self.b.init(lambda z, y, x: np.where((z == nz) & active(z, y, x), pressure, 0.0), comp=0)
        self.cg = ConjugateGradient(grid, make_elastic_operator(E, nu), self.b, self.u, occ=occ)

    @classmethod
    def solid_cube(
        cls,
        backend: Backend,
        grid_size: int,
        solid_fraction: float = 1.0,
        sparse: bool = False,
        virtual: bool = False,
        partition_weights=None,
        **kw,
    ) -> "ElasticitySolver":
        """The Fig 9 geometry: a solid cuboid inside an N^3 grid.

        ``solid_fraction`` scales the solid's lateral edge so that the
        sparsity ratio (active/total) hits the requested value.  The
        solid always spans the full height and rests on the fixed z = 0
        plane, so the Dirichlet condition anchors it.
        """
        n = grid_size
        edge = max(2, min(n, int(round(n * np.sqrt(solid_fraction)))))
        lo = (n - edge) // 2
        full = edge == n
        if sparse:
            if virtual:
                per_slice = np.full(n, edge * edge, dtype=np.int64)
                grid = SparseGrid(
                    backend,
                    shape=(n, n, n),
                    stencils=[STENCIL_27PT],
                    active_per_slice=per_slice,
                    virtual=True,
                    partition_weights=partition_weights,
                )
            else:
                mask = np.zeros((n, n, n), dtype=bool)
                mask[:, lo : lo + edge, lo : lo + edge] = True
                grid = SparseGrid(
                    backend, mask=mask, stencils=[STENCIL_27PT], partition_weights=partition_weights
                )
        else:
            mask = None
            if not full and not virtual:
                mask = np.zeros((n, n, n), dtype=bool)
                mask[:, lo : lo + edge, lo : lo + edge] = True
            grid = DenseGrid(
                backend,
                (n, n, n),
                stencils=[STENCIL_27PT],
                mask=mask,
                virtual=virtual,
                partition_weights=partition_weights,
            )
        return cls(grid, top_z=n - 1, **kw)

    def reset(self) -> None:
        """Zero the displacement (a new solver starts there); the load stays."""
        self.cg.reset()

    def solve(self, max_iterations: int = 300, tolerance: float = 1e-8) -> CGResult:
        return self.cg.solve(max_iterations=max_iterations, tolerance=tolerance)

    def iteration_makespan(self, machine=None) -> float:
        return self.cg.iteration_makespan(machine)

    def displacement(self) -> np.ndarray:
        """Global displacement array (3, *shape), (uz, uy, ux) order."""
        return self.u.to_numpy()
