import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domain import geometry as geo


def test_full_is_all_active():
    assert geo.full((4, 5)).all()


def test_ball_volume_close_to_analytic():
    m = geo.ball((40, 40, 40))
    r = 0.45 * 40
    assert abs(m.sum() - 4 / 3 * np.pi * r**3) / m.sum() < 0.05


def test_ball_2d_is_circle():
    m = geo.ball((30, 30))
    r = 0.45 * 30
    assert abs(m.sum() - np.pi * r**2) / m.sum() < 0.05


def test_ball_center_mismatch_rejected():
    with pytest.raises(ValueError):
        geo.ball((10, 10, 10), center=(5.0, 5.0))


def test_box_extents():
    m = geo.box((8, 8, 8), (1, 2, 3), (4, 5, 6))
    assert m.sum() == 27
    assert m[1, 2, 3] and not m[0, 2, 3] and not m[4, 5, 6]


def test_cylinder_constant_along_axis():
    m = geo.cylinder((10, 12, 12), axis=0)
    for z in range(1, 10):
        assert np.array_equal(m[z], m[0])
    with pytest.raises(ValueError):
        geo.cylinder((10, 10))


def test_shell_is_hollow():
    m = geo.shell((30, 30, 30), inner=5.0, outer=10.0)
    c = 14.5
    assert not m[15, 15, 15]  # centre hollow
    assert m.sum() > 0
    with pytest.raises(ValueError):
        geo.shell((10, 10, 10), inner=5.0, outer=4.0)


def test_csg_algebra():
    a = geo.box((6, 6), (0, 0), (4, 4))
    b = geo.box((6, 6), (2, 2), (6, 6))
    assert geo.union(a, b).sum() == 16 + 16 - 4
    assert geo.intersection(a, b).sum() == 4
    assert geo.difference(a, b).sum() == 12


def test_grid_rejects_slabs_too_thin_for_the_halo():
    from repro.domain import STENCIL_7PT, SparseGrid
    from repro.system import Backend

    m = geo.full((8, 4, 4))
    assert SparseGrid(Backend.sim_gpus(4), mask=m, stencils=[STENCIL_7PT]).num_devices == 4
    with pytest.raises(ValueError, match="slabs of ~1 slices"):
        SparseGrid(Backend.sim_gpus(8), mask=m, stencils=[STENCIL_7PT])
    with pytest.raises(ValueError, match="no active cells"):
        SparseGrid(Backend.sim_gpus(2), mask=np.zeros((8, 4, 4), dtype=bool), stencils=[STENCIL_7PT])


@settings(max_examples=20, deadline=None)
@given(st.integers(6, 30), st.integers(0, 1000))
def test_shapes_fit_inside_box(n, seed):
    rng = np.random.default_rng(seed)
    radius = rng.uniform(1.0, n / 2)
    m = geo.ball((n, n), radius=radius)
    # boundary cells of the array may only be active if the ball truly
    # reaches them
    assert m.shape == (n, n)
    assert m.sum() <= n * n


def test_geometry_feeds_sparse_grid():
    from repro.domain import STENCIL_7PT, SparseGrid
    from repro.domain.validate import check_halo_blocks_consistent, check_sparse_connectivity
    from repro.system import Backend

    mask = geo.difference(geo.ball((16, 14, 14)), geo.ball((16, 14, 14), radius=3.0))
    grid = SparseGrid(Backend.sim_gpus(2), mask=mask, stencils=[STENCIL_7PT])
    check_sparse_connectivity(grid)
    check_halo_blocks_consistent(grid)
    assert grid.num_active == int(mask.sum())
