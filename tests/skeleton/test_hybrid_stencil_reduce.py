"""Regression: a *hybrid* container (stencil read + reduce target) must
keep its full reduction value when OCC splits it.

A residual-norm container is such a hybrid: under STANDARD OCC it was
once split as a stencil into two halves whose boundary deposit
overwrote the internal contribution.  With one partial slot per slice the
halves deposit into disjoint slots, and the value is bitwise the same on
any device count and OCC level.
"""

import numpy as np
import pytest

from repro.core import ScalarResult
from repro.domain import STENCIL_7PT, DenseGrid, SparseGrid
from repro.skeleton import DepKind, Occ, Skeleton
from repro.system import Backend


def make_residual_norm(grid, u, f, partial):
    """partial <- sum (f - A u)^2: stencil-reads u AND reduces."""

    def loading(loader):
        up = loader.read(u, stencil=True)
        fp = loader.read(f)
        acc = loader.reduce_target(partial)

        def compute(span):
            r = fp.view(span) - 6.0 * up.view(span)
            for off in STENCIL_7PT:
                if off != (0, 0, 0):
                    r = r + up.neighbour(span, off)

            acc.deposit_sums(span, (r * r)[np.newaxis])

        return compute

    return grid.new_container("residual_norm", loading)


def run(grid_kind, ndev, occ, seed=3):
    rng = np.random.default_rng(seed)
    shape = (12, 5, 5)
    backend = Backend.sim_gpus(ndev)
    if grid_kind == "dense":
        grid = DenseGrid(backend, shape, stencils=[STENCIL_7PT])
    else:
        mask = np.ones(shape, dtype=bool)
        mask[:, 0, 0] = False
        grid = SparseGrid(backend, mask=mask, stencils=[STENCIL_7PT])
    u, f = grid.new_field("u"), grid.new_field("f")
    du = rng.standard_normal(shape)
    df = rng.standard_normal(shape)
    u.init(lambda z, y, x: du[z, y, x])
    f.init(lambda z, y, x: df[z, y, x])
    partial = grid.new_reduce_partial("p")
    Skeleton(backend, [make_residual_norm(grid, u, f, partial)], occ=occ).run()
    return ScalarResult(partial).value()


@pytest.mark.parametrize("grid_kind", ["dense", "sparse"])
@pytest.mark.parametrize("occ", list(Occ))
def test_hybrid_reduce_value_invariant_under_occ(grid_kind, occ):
    ref = run(grid_kind, 1, Occ.NONE)
    got = run(grid_kind, 3, occ)
    assert got == ref


def test_split_hybrid_halves_share_only_a_scheduling_hint():
    backend = Backend.sim_gpus(2)
    grid = DenseGrid(backend, (8, 4, 4), stencils=[STENCIL_7PT])
    u, f = grid.new_field("u"), grid.new_field("f")
    partial = grid.new_reduce_partial("p")
    sk = Skeleton(backend, [make_residual_norm(grid, u, f, partial)], occ=Occ.STANDARD)
    g = sk.graph
    n_int = g.find("residual_norm.internal")
    n_bnd = g.find("residual_norm.boundary")
    # the halves fill disjoint slots, so nothing but the launch-order hint
    # links them
    assert g.edge_info(n_int, n_bnd)[0] == {DepKind.SCHED}
    assert {run("dense", 2, occ) for occ in Occ} == {run("dense", 1, Occ.NONE)}
