import numpy as np
import pytest

from repro.core import Backend, DenseGrid, Occ, ScalarResult, Skeleton, ops
from repro.domain import STENCIL_7PT


@pytest.fixture
def grid():
    return DenseGrid(Backend.sim_gpus(2), (8, 4, 4), stencils=[STENCIL_7PT])


def run_one(grid, container):
    Skeleton(grid.backend, [container], occ=Occ.NONE).run()


def test_waxpby(grid):
    x, y, w = (grid.new_field(n) for n in "xyw")
    x.fill(2.0)
    y.fill(3.0)
    run_one(grid, ops.waxpby(grid, 2.0, x, -1.0, y, w))
    assert np.allclose(w.to_numpy(), 1.0)
    # inputs untouched
    assert np.allclose(x.to_numpy(), 2.0)
    assert np.allclose(y.to_numpy(), 3.0)


def test_total(grid):
    x = grid.new_field("x", cardinality=2)
    x.fill(1.5)
    partial = grid.new_reduce_partial("p")
    run_one(grid, ops.total(grid, x, partial))
    assert ScalarResult(partial).value() == pytest.approx(1.5 * 2 * grid.num_cells)


def test_slice_reduce_read_equals_the_rebuilt_concatenation_bitwise():
    """``ScalarResult`` holds the rank rows and gathers them into one
    preallocated row; every read must be the bits of the expression it
    replaced — a fresh concatenation summed — on uneven strips, with a
    ``-0.0`` row, and after the kernels rewrite the rows in place."""
    g = DenseGrid(Backend.sim_gpus(8), (19, 3, 4), stencils=[STENCIL_7PT])
    assert len({g.local_slices(r) for r in range(8)}) > 1, "uneven strips"
    partial = g.new_dot_partial("p")
    read = ScalarResult(partial)
    rng = np.random.default_rng(20)
    for magnitude in (1.0, 1e-9, 1e12):
        for r in range(8):
            row = partial.partition(r).array
            row[...] = rng.standard_normal(len(row)) * magnitude
        partial.partition(3).array[...] = -0.0
        rows = [np.asarray(partial.partition(r).array) for r in range(8)]
        old = float(np.sum(np.concatenate(rows)))
        assert np.float64(read.value()).tobytes() == np.float64(old).tobytes()
    for r in range(8):
        partial.partition(r).array[...] = -0.0
    assert np.float64(read.value()).tobytes() == np.float64(np.sum(np.full(19, -0.0))).tobytes()
