"""Shared builders: the paper's apxpy -> laplace -> dot example (Fig 4a)."""

import numpy as np
import pytest

from repro.core import ScalarResult
from repro.domain import STENCIL_7PT, DenseGrid
from repro.sets import Container
from repro.system import Backend


def make_axpy(grid, a, x, y):
    """X <- a*X + Y (MapOp: writes X, reads Y)."""

    def loading(loader):
        xp = loader.read_write(x)
        yp = loader.read(y)

        def compute(span):
            xv = xp.view(span)
            xv[...] = a * xv + yp.view(span)

        return compute

    return grid.new_container("axpy", loading)


def make_laplace(grid, x, y):
    """Y <- 7-point Laplacian of X (StencilOp: stencil-reads X, writes Y)."""

    def loading(loader):
        xp = loader.read(x, stencil=True)
        yp = loader.write(y)

        def compute(span):
            acc = -6.0 * xp.view(span)
            for off in STENCIL_7PT:
                if off != (0, 0, 0):
                    acc = acc + xp.neighbour(span, off)
            yp.view(span)[...] = acc

        return compute

    return grid.new_container("laplace", loading)


def make_dot(grid, x, y, partial):
    """partial <- per-slice sums of X * Y over the rank's cells (ReduceOp)."""

    def loading(loader):
        xp = loader.read(x)
        yp = loader.read(y)
        acc = loader.reduce_target(partial)

        def compute(span):
            acc.deposit_sums(span, (xp.view(span) * yp.view(span))[np.newaxis])

        return compute

    return grid.new_container("dot", loading)


def combine_partial(partial) -> float:
    return ScalarResult(partial).value()


@pytest.fixture
def paper_example():
    """Grid + fields + containers of the Fig 4a snippet on 3 devices."""
    backend = Backend.sim_gpus(3)
    grid = DenseGrid(backend, (12, 4, 4), stencils=[STENCIL_7PT], name="g")
    x = grid.new_field("X")
    y = grid.new_field("Y")
    x.init(lambda z, y_, x_: np.sin(z * 1.0) + x_ * 0.1)
    y.init(lambda z, y_, x_: np.cos(y_ * 1.0) + z * 0.01)
    partial = grid.new_reduce_partial("dot_partial")
    containers = [
        make_axpy(grid, 0.5, x, y),
        make_laplace(grid, x, y),
        make_dot(grid, x, y, partial),
    ]
    return backend, grid, x, y, partial, containers
