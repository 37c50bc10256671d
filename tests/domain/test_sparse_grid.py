import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domain import STENCIL_7PT, DataView, DenseGrid, Layout, SparseGrid
from repro.system import Backend


def ball_mask(shape, radius_frac=0.45):
    """A sphere inside the box: a free-form domain like the paper's."""
    axes = [np.arange(s) - (s - 1) / 2 for s in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    r2 = sum(g**2 for g in grids)
    return r2 <= (radius_frac * min(shape)) ** 2


@pytest.fixture
def grid():
    mask = ball_mask((12, 10, 10))
    return SparseGrid(Backend.sim_gpus(3), mask=mask, stencils=[STENCIL_7PT])


def test_active_count_matches_mask(grid):
    assert grid.num_active == int(grid.mask.sum())
    assert 0 < grid.sparsity_ratio < 1


def test_owned_cells_partition_the_active_set(grid):
    assert sum(grid.n_owned) == grid.num_active


def test_views_partition_owned_cells(grid):
    for rank in range(3):
        std = grid.span_for(rank, DataView.STANDARD).count
        i = grid.span_for(rank, DataView.INTERNAL).count
        b = grid.span_for(rank, DataView.BOUNDARY).count
        assert std == i + b == grid.n_owned[rank]


def test_boundary_counts_match_halo_counts(grid):
    for r in range(2):
        assert grid.n_halo_lo[r + 1] == grid.n_bnd_hi[r]
        assert grid.n_halo_hi[r] == grid.n_bnd_lo[r + 1]


def test_load_balance_is_reasonable(grid):
    loads = grid.n_owned
    assert max(loads) / (sum(loads) / len(loads)) < 1.6


def test_field_init_and_to_numpy(grid):
    f = grid.new_field("u", outside_value=-1.0)
    f.init(lambda z, y, x: z * 100.0 + y * 10 + x)
    arr = f.to_numpy()[0]
    z, y, x = np.meshgrid(*[np.arange(s) for s in grid.shape], indexing="ij")
    expected = np.where(grid.mask, z * 100.0 + y * 10 + x, -1.0)
    assert np.array_equal(arr, expected)


def test_neighbour_inactive_reads_outside_value(grid):
    f = grid.new_field("u", outside_value=-7.0)
    f.fill(1.0)
    f.sync_halo_now()
    part = f.partition(0)
    span = grid.span_for(0, DataView.STANDARD)
    vals = part.neighbour(span, (0, 0, 1))
    z, y, x = part.coords(span)
    nbr_active = np.zeros(len(z), dtype=bool)
    ok = x + 1 < grid.shape[2]
    nbr_active[ok] = grid.mask[z[ok], y[ok], x[ok] + 1]
    assert np.all(vals[nbr_active] == 1.0)
    assert np.all(vals[~nbr_active] == -7.0)


def test_neighbour_unregistered_offset_rejected(grid):
    f = grid.new_field("u")
    span = grid.span_for(0, DataView.STANDARD)
    with pytest.raises(ValueError, match="registered"):
        f.partition(0).neighbour(span, (1, 1, 1))  # 7pt has no corners


def test_neighbour_without_stencil_rejected():
    mask = ball_mask((8, 6, 6))
    g = SparseGrid(Backend.sim_gpus(1), mask=mask)
    f = g.new_field("u")
    with pytest.raises(RuntimeError, match="stencil"):
        f.partition(0).neighbour(g.span_for(0, DataView.STANDARD), (0, 0, 1))


def test_halo_exchange_matches_dense_result():
    """The same stencil computation on dense and sparse grids must agree."""
    mask = ball_mask((12, 8, 8))
    be_d, be_s = Backend.sim_gpus(3), Backend.sim_gpus(3)
    dg = DenseGrid(be_d, mask.shape, stencils=[STENCIL_7PT], mask=mask)
    sg = SparseGrid(be_s, mask=mask, stencils=[STENCIL_7PT])

    init = lambda z, y, x: np.sin(z * 1.0) + np.cos(y * 2.0) + x
    fd, fs = dg.new_field("u"), sg.new_field("u")
    # dense stores the whole box: keep inactive cells at 0 so its stencil
    # reads of inactive neighbours agree with sparse's outside_value = 0
    fd.init(lambda z, y, x: np.where(mask[z, y, x], init(z, y, x), 0.0))
    fs.init(init)

    def laplacian(grid, f):
        outs = []
        for rank in range(grid.num_devices):
            part = f.partition(rank)
            span = grid.span_for(rank, DataView.STANDARD)
            acc = -6.0 * part.view(span).astype(float)
            for off in STENCIL_7PT:
                if off != (0, 0, 0):
                    acc = acc + part.neighbour(span, off)
            outs.append(np.asarray(acc))
        return outs

    dense_out = laplacian(dg, fd)
    sparse_out = laplacian(sg, fs)

    # compare per-cell: scatter both into global arrays over active cells
    g_dense = np.zeros(mask.shape)
    for rank in range(3):
        a, b = dg.bounds[rank]
        g_dense[a:b] = dense_out[rank]
    g_sparse = np.zeros(mask.shape)
    for rank in range(3):
        coords = sg.owned_coords[rank]
        g_sparse[coords[:, 0], coords[:, 1], coords[:, 2]] = sparse_out[rank]

    # dense stencil reads inactive cells' stored values (= outside 0) and
    # sparse reads outside_value 0 for inactive neighbours: both agree on
    # active cells because inactive dense cells were never written
    assert np.allclose(g_dense[mask], g_sparse[mask])


def test_sparse_halo_messages_counts():
    mask = np.ones((8, 4, 4), dtype=bool)
    g = SparseGrid(Backend.sim_gpus(2), mask=mask, stencils=[STENCIL_7PT])
    f = g.new_field("u")
    msgs = f.halo_messages()
    assert len(msgs) == 2
    assert all(m.nbytes == 16 * 8 for m in msgs)
    fv = g.new_field("v", cardinality=3, layout=Layout.SOA)
    assert len(fv.halo_messages()) == 6
    fa = g.new_field("w", cardinality=3, layout=Layout.AOS)
    msgs_aos = fa.halo_messages()
    assert len(msgs_aos) == 2
    assert all(m.nbytes == 16 * 8 * 3 for m in msgs_aos)


def test_virtual_sparse_from_slice_counts():
    be = Backend.sim_gpus(4)
    counts = np.full(64, 16 * 16 // 2)  # 50% sparsity
    g = SparseGrid(be, shape=(64, 16, 16), stencils=[STENCIL_7PT], active_per_slice=counts, virtual=True)
    assert g.num_active == 64 * 128
    assert g.sparsity_ratio == pytest.approx(0.5)
    f = g.new_field("u", cardinality=3)
    assert f.buffers[0].array is None
    assert sum(grid_n for grid_n in g.n_owned) == g.num_active
    # all spans well-formed
    for rank in range(4):
        for view in DataView:
            assert g.span_for(rank, view).count >= 0


def test_virtual_sparse_requires_counts_or_mask():
    be = Backend.sim_gpus(1)
    with pytest.raises(ValueError):
        SparseGrid(be, shape=(8, 8, 8), virtual=True)
    with pytest.raises(ValueError):
        SparseGrid(be, shape=(8, 8, 8), active_per_slice=np.ones(8), virtual=False)


def test_empty_mask_rejected():
    with pytest.raises(ValueError, match="no active"):
        SparseGrid(Backend.sim_gpus(1), mask=np.zeros((4, 4, 4), dtype=bool))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_masks_keep_halo_block_invariants(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((10, 5, 5)) < 0.6
    mask[0, 0, 0] = True  # ensure non-empty
    try:
        g = SparseGrid(Backend.sim_gpus(2), mask=mask, stencils=[STENCIL_7PT])
    except ValueError:
        return  # too thin for 2 devices: legitimately rejected
    assert sum(g.n_owned) == int(mask.sum())
    assert g.n_halo_lo[1] == g.n_bnd_hi[0]
    assert g.n_halo_hi[0] == g.n_bnd_lo[1]
    for rank in range(2):
        # connectivity indices stay within this rank's local arrays
        conn = g.conn[rank]
        assert conn.min() >= -1
        assert conn.max() < g.n_total(rank)
