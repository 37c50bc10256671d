"""Eigenvalue solvers from the three building blocks.

The paper claims map/stencil/reduce suffice for "solving linear systems,
eigenvalue problems and almost all the functions found in BLAS".  CG
covers the first; this module covers the second with power iteration (a
map -> stencil -> reduce loop, the very Fig 4 shape) on any matrix-free
operator, plus a spectral-shift variant for the smallest eigenvalue.

For the 7-point negative Laplacian the spectrum is known analytically —
``lambda_{ijk} = sum_d 2(1 - cos(pi m_d / (n_d + 1)))`` — which the
tests use as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import ops
from repro.domain.grid import Grid
from repro.skeleton import Occ, Skeleton

from .cg import ApplyFactory, _as_list


@dataclass
class EigenResult:
    eigenvalue: float
    iterations: int
    converged: bool
    history: list[float] = field(default_factory=list)


def _scale_by_cell(grid, factor_cell: dict, x, name: str):
    """x <- x * factor (host-updated scalar, read at launch time)."""

    def loading(loader):
        xp = loader.read_write(x)
        s = factor_cell["v"]

        def compute(span):
            xp.view_all(span)[...] *= s

        return compute

    return grid.new_container(name, loading, flops_per_cell=1.0)


class PowerIteration:
    """Largest-magnitude eigenpair of a matrix-free SPD operator.

    Each iteration is one skeleton: normalise the current vector (map),
    apply the operator (stencil), and take the two reductions that give
    the Rayleigh quotient and the next normalisation — then two host
    scalars close the loop, exactly like CG's alpha/beta.
    """

    def __init__(self, grid: Grid, apply_op: ApplyFactory, occ: Occ = Occ.STANDARD, seed: int = 0):
        self.grid = grid
        self.v = grid.new_field("eig_v")
        self.w = grid.new_field("eig_w")
        self._inv_norm = {"v": 1.0}
        self.vw_partial = grid.new_reduce_partial("eig_vw")
        self.vv_partial = grid.new_reduce_partial("eig_vv")
        self.ww_partial = grid.new_reduce_partial("eig_ww")
        if not grid.virtual:
            rng = np.random.default_rng(seed)
            # a full-rank random start avoids landing in an eigenspace's
            # orthogonal complement
            noise = rng.standard_normal(grid.shape)
            self.v.init(lambda *c: noise[tuple(np.asarray(a) for a in c)])
        self.sk = Skeleton(
            grid.backend,
            [
                _scale_by_cell(grid, self._inv_norm, self.v, "normalise"),
                *_as_list(apply_op(grid, self.v, self.w, "A_v")),
                ops.dot(grid, self.v, self.w, self.vw_partial, name="rayleigh_num"),
                ops.dot(grid, self.v, self.v, self.vv_partial, name="rayleigh_den"),
                ops.dot(grid, self.w, self.w, self.ww_partial, name="next_norm"),
            ],
            occ=occ,
            name="power_iteration",
        )
        self.sk_swap = Skeleton(
            grid.backend, [ops.copy(grid, self.w, self.v, name="advance")], occ=Occ.NONE, name="advance"
        )

    def solve(self, max_iterations: int = 500, tolerance: float = 1e-9) -> EigenResult:
        vw = ops.ScalarResult(self.vw_partial)
        vv = ops.ScalarResult(self.vv_partial)
        ww = ops.ScalarResult(self.ww_partial)
        result = EigenResult(eigenvalue=float("nan"), iterations=0, converged=False)
        prev = None
        self._inv_norm["v"] = 1.0
        for it in range(1, max_iterations + 1):
            self.sk.run()
            num, den, norm2 = vw.value(), vv.value(), ww.value()
            if den <= 0.0 or norm2 <= 0.0:
                raise RuntimeError("power iteration collapsed to the zero vector")
            rayleigh = num / den
            result.history.append(rayleigh)
            result.iterations = it
            result.eigenvalue = rayleigh
            # next iterate: v <- w / |w|; the normalisation folds into the
            # map at the start of the next skeleton run
            self.sk_swap.run()
            self._inv_norm["v"] = 1.0 / np.sqrt(norm2)
            if prev is not None and abs(rayleigh - prev) <= tolerance * max(1.0, abs(rayleigh)):
                result.converged = True
                break
            prev = rayleigh
        return result


def largest_eigenvalue(grid: Grid, apply_op: ApplyFactory, **kw) -> EigenResult:
    """Convenience: run power iteration on ``apply_op``."""
    return PowerIteration(grid, apply_op).solve(**kw)


def smallest_eigenvalue(
    grid: Grid, apply_op: ApplyFactory, lambda_max: float, **kw
) -> EigenResult:
    """Smallest eigenvalue via the spectral shift ``B = lambda_max*I - A``.

    B's largest eigenpair corresponds to A's smallest:
    ``lambda_min(A) = lambda_max - lambda_max(B)``.
    """

    def shifted(g, u, out, name):
        inner = _as_list(apply_op(g, u, out, name))

        def loading(loader):
            up = loader.read(u)
            op_ = loader.read_write(out)

            def compute(span):
                ov = op_.view_all(span)
                ov[...] = lambda_max * up.view_all(span) - ov

            return compute

        flip = g.new_container(f"{name}_shift", loading, flops_per_cell=2.0)
        return inner + [flip]

    res = PowerIteration(grid, shifted).solve(**kw)
    return EigenResult(
        eigenvalue=lambda_max - res.eigenvalue,
        iterations=res.iterations,
        converged=res.converged,
        history=[lambda_max - h for h in res.history],
    )


def laplacian_spectrum_bounds(shape: tuple[int, int, int]) -> tuple[float, float]:
    """Analytic (min, max) eigenvalues of the 7-pt negative Laplacian
    with zero Dirichlet borders on an ``shape`` grid (h = 1)."""
    lo = sum(2.0 * (1.0 - np.cos(np.pi * 1 / (n + 1))) for n in shape)
    hi = sum(2.0 * (1.0 - np.cos(np.pi * n / (n + 1))) for n in shape)
    return float(lo), float(hi)
