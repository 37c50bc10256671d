"""Finite-difference Poisson solver (paper VI-B).

Standard 7-point discretisation of ``-laplace(u) = f`` on a Cartesian
grid with homogeneous Dirichlet boundaries (the field's outside value of
0 *is* the boundary condition), solved matrix-free with conjugate
gradient — paper Listings 2 + 3.
"""

from __future__ import annotations

import numpy as np

from repro.codegen import grid_kernels
from repro.domain import STENCIL_7PT, DenseGrid
from repro.domain.grid import Grid
from repro.skeleton import Occ
from repro.system import Backend

from .cg import CGResult, ConjugateGradient


def make_neg_laplacian(grid: Grid, u, out, name: str = "laplacian"):
    """out <- (-laplace_h) u: 6*u[i] minus the 6 face neighbours (h = 1).

    Positive definite on the zero-Dirichlet subspace, so CG applies.
    """

    def loading(loader):
        up = loader.read(u, stencil=True)
        op = loader.write(out)

        def compute(span):
            acc = 6.0 * up.view(span)
            for off in STENCIL_7PT:
                if off != (0, 0, 0):
                    acc = acc - up.neighbour(span, off)
            op.view(span)[...] = acc

        return compute

    container = grid.new_container(name, loading, flops_per_cell=7.0)
    # the same operator as data, in the closure's order: 6*centre first
    # (STENCIL_7PT lists it first), then minus each face neighbour
    terms = [(off, 6.0 if off == (0, 0, 0) else -1.0) for off in STENCIL_7PT]
    container.specialize = grid_kernels.stencil(u, out, terms)
    return container


class PoissonSolver:
    """-laplace(u) = f on an (n0, n1, n2) grid, zero Dirichlet borders."""

    def __init__(
        self,
        backend: Backend,
        shape: tuple[int, int, int],
        occ: Occ = Occ.STANDARD,
        virtual: bool = False,
        partition_weights=None,
    ):
        self.backend = backend
        self.grid = DenseGrid(
            backend,
            shape,
            stencils=[STENCIL_7PT],
            virtual=virtual,
            name="poisson",
            partition_weights=partition_weights,
        )
        self.f = self.grid.new_field("f")
        self.u = self.grid.new_field("u")
        self.cg = ConjugateGradient(self.grid, make_neg_laplacian, self.f, self.u, occ=occ)

    def set_rhs(self, fn) -> None:
        self.f.init(fn)

    def reset(self) -> None:
        """Zero the iterate (a new solver starts there); the RHS stays."""
        self.cg.reset()

    def solve(self, max_iterations: int = 500, tolerance: float = 1e-8) -> CGResult:
        return self.cg.solve(max_iterations=max_iterations, tolerance=tolerance)

    def iteration_makespan(self, machine=None) -> float:
        return self.cg.iteration_makespan(machine)

    def solution(self) -> np.ndarray:
        self.cg.flush()
        return self.u.to_numpy()[0]


def manufactured_problem(shape: tuple[int, int, int]):
    """An analytic (u, f) pair with u = 0 on the border.

    ``u`` mixes the first two sine harmonics (each vanishes at the ghost
    layer x_d = -1 and x_d = n_d, matching the solver's outside value) so
    that it is *not* an eigenvector of the discrete Laplacian and CG needs
    a genuine Krylov sequence; ``f`` is the exact discrete operator
    applied to u, so CG must reproduce u to solver precision (no
    discretisation error involved).
    """

    def mode(k: int) -> np.ndarray:
        axes = [np.sin(k * np.pi * (np.arange(n) + 1.0) / (n + 1.0)) for n in shape]
        return axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]

    u = mode(1) + 0.4 * mode(2)
    f = 6.0 * u
    for axis in range(3):
        for shift in (-1, 1):
            rolled = np.roll(u, shift, axis=axis)
            # zero Dirichlet: values rolled across the border are 0
            idx = [slice(None)] * 3
            idx[axis] = 0 if shift == 1 else -1
            rolled[tuple(idx)] = 0.0
            f -= rolled
    return u, f
