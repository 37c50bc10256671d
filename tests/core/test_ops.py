import numpy as np
import pytest

from repro.core import Backend, DenseGrid, Layout, Occ, ScalarResult, Skeleton, SparseGrid, ops
from repro.domain import STENCIL_7PT


@pytest.fixture(params=["dense", "sparse"])
def grid(request):
    backend = Backend.sim_gpus(2)
    if request.param == "dense":
        return DenseGrid(backend, (8, 4, 4), stencils=[STENCIL_7PT])
    mask = np.ones((8, 4, 4), dtype=bool)
    mask[:, 0, 0] = False
    return SparseGrid(backend, mask=mask, stencils=[STENCIL_7PT])


def run_one(grid, container):
    Skeleton(grid.backend, [container], occ=Occ.NONE).run()


def test_set_and_copy(grid):
    a, b = grid.new_field("a"), grid.new_field("b")
    a.fill(3.0)
    run_one(grid, ops.copy(grid, a, b))
    assert np.allclose(b.to_numpy()[0][grid_mask(grid)], 3.0)


def test_scale(grid):
    a = grid.new_field("a")
    a.fill(2.0)
    run_one(grid, ops.scale(grid, -1.5, a))
    assert np.allclose(a.to_numpy()[0][grid_mask(grid)], -3.0)


def test_axpy(grid):
    x, y = grid.new_field("x"), grid.new_field("y")
    x.fill(2.0)
    y.fill(1.0)
    run_one(grid, ops.axpy(grid, 3.0, x, y))
    assert np.allclose(y.to_numpy()[0][grid_mask(grid)], 7.0)


def test_axpby(grid):
    x, y = grid.new_field("x"), grid.new_field("y")
    x.fill(2.0)
    y.fill(10.0)
    run_one(grid, ops.axpby(grid, 1.0, x, 0.5, y))
    assert np.allclose(y.to_numpy()[0][grid_mask(grid)], 7.0)


def test_dot_matches_numpy(grid):
    x, y = grid.new_field("x"), grid.new_field("y")
    x.init(lambda z, yy, xx: z + 0.5)
    y.init(lambda z, yy, xx: xx + 1.0)
    partial = grid.new_reduce_partial("p")
    run_one(grid, ops.dot(grid, x, y, partial))
    got = ScalarResult(partial).value()
    m = grid_mask(grid)
    expected = float(np.sum(x.to_numpy()[0][m] * y.to_numpy()[0][m]))
    assert got == pytest.approx(expected)


def test_norm2_squared(grid):
    x = grid.new_field("x")
    x.fill(2.0)
    partial = grid.new_reduce_partial("p")
    run_one(grid, ops.norm2_squared(grid, x, partial))
    assert ScalarResult(partial).value() == pytest.approx(4.0 * grid.num_active)


def test_vector_fields_all_components():
    backend = Backend.sim_gpus(2)
    grid = DenseGrid(backend, (8, 4, 4))
    x = grid.new_field("x", cardinality=3, layout=Layout.AOS)
    y = grid.new_field("y", cardinality=3, layout=Layout.SOA)
    x.fill(1.0)
    y.fill(2.0)
    run_one(grid, ops.axpy(grid, 2.0, x, y))
    assert np.allclose(y.to_numpy(), 4.0)
    partial = grid.new_reduce_partial("p")
    run_one(grid, ops.dot(grid, y, y, partial))
    assert ScalarResult(partial).value() == pytest.approx(16.0 * 3 * grid.num_cells)


def test_foreign_field_rejected():
    backend = Backend.sim_gpus(1)
    g1 = DenseGrid(backend, (4, 4, 4), name="g1")
    g2 = DenseGrid(backend, (4, 4, 4), name="g2")
    with pytest.raises(ValueError, match="belongs"):
        ops.copy(g1, g1.new_field("a"), g2.new_field("b"))


def test_mixed_cardinality_rejected():
    backend = Backend.sim_gpus(1)
    g = DenseGrid(backend, (4, 4, 4))
    with pytest.raises(ValueError, match="cardinalities"):
        ops.axpy(g, 1.0, g.new_field("a", cardinality=3), g.new_field("b", cardinality=1))


def test_virtual_scalar_result_rejected():
    backend = Backend.sim_gpus(1)
    g = DenseGrid(backend, (4, 4, 4), virtual=True)
    partial = g.new_reduce_partial("p")
    with pytest.raises(RuntimeError, match="virtual"):
        ScalarResult(partial).value()


def grid_mask(grid):
    if isinstance(grid, SparseGrid):
        return grid.mask
    return np.ones(grid.shape, dtype=bool) if grid.mask is None else grid.mask
