"""The bitwise contract of the generated map / stencil / reduce kernels,
elasticity's block operator and the two collide-stream steps (the D3Q19
cavity and the D2Q9 Kármán street).

Each container keeps its interpreted NumPy closure (the oracle) beside the
``specialize`` hook that binds the generated-C kernel
(:mod:`repro.codegen.grid_kernels`, :mod:`repro.codegen.lattice_kernels`).
Here both run on identical data — every rank, every data view — and must
leave identical bytes behind.
"""

from __future__ import annotations

import contextlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codegen
from repro.baselines.reductions import slice_sums
from repro.codegen import grid_kernels
from repro.core import ops
from repro.domain import D2Q9_STENCIL, D3Q19_STENCIL, STENCIL_7PT, STENCIL_27PT, DataView, DenseGrid, Layout, SparseGrid
from repro.sets.loader import Loader
from repro.skeleton import Occ, fusion
from repro.solvers import cg as cg_module
from repro.solvers.cg import ConjugateGradient
from repro.solvers.elasticity import make_elastic_operator
from repro.solvers.lbm import cylinder_mask, make_karman_container
from repro.solvers.lbm.d3q19 import SOLID_SENTINEL, make_twopop_container
from repro.solvers.lbm.lattice import D2Q9, D3Q19
from repro.solvers.poisson import make_neg_laplacian
from repro.system import Backend

pytestmark = pytest.mark.skipif(not codegen.available(), reason="no C compiler in this environment")

#: lateral extents whose slice lengths (times cardinality 1-3) land on and
#: around the summation tree's regime changes: 8, 128, and odd halves
LATERALS = [(1, 7), (1, 8), (1, 9), (1, 127), (1, 128), (1, 129), (3, 43), (5, 51), (17, 15), (2, 500)]
lateral_shapes = st.sampled_from(LATERALS) | st.tuples(st.integers(1, 6), st.integers(1, 40))
#: (devices, axis-0 extent): single slab, even and uneven splits, 2-slice slabs
SLABS = [(1, 1), (1, 5), (2, 4), (2, 7), (4, 8), (4, 11)]


def dense_grid(devices: int, shape) -> DenseGrid:
    return DenseGrid(Backend.sim_gpus(devices), shape, stencils=[STENCIL_7PT])


def randomise(field, rng, magnitude: float = 1.0) -> None:
    """Random values everywhere — ghost slices too, the stencil reads them."""
    for rank in range(field.num_devices):
        storage = field.partition(rank).storage
        storage[...] = rng.standard_normal(storage.shape) * magnitude


def snapshot(*datas) -> list[bytes]:
    return [d.partition(r).storage.tobytes() for d in datas for r in range(d.num_devices)]


def restore(datas, saved) -> None:
    it = iter(saved)
    for d in datas:
        for r in range(d.num_devices):
            storage = d.partition(r).storage
            storage[...] = np.frombuffer(next(it)).reshape(storage.shape)


def fields_of(*containers) -> list:
    """Every field the containers touch, once each, in first-use order."""
    return list({t.data.uid: t.data for c in containers for t in c.tokens()}.values())


def plant(field, rng, cells, values=(np.nan, -0.0, 0.0)) -> None:
    """``values`` in turn (default NaN, -0.0, +0.0) into random components
    of ``cells`` (global coordinates on axis 0, through the owning rank's
    storage)."""
    grid = field.grid
    for k, cell in enumerate(cells):
        rank = next(r for r, (a, b) in enumerate(grid.bounds) if a <= cell[0] < b)
        local = (cell[0] - grid.bounds[rank][0] + grid.radius, *cell[1:])
        comp = int(rng.integers(field.cardinality))
        field.partition(rank).storage[(comp, *local)] = values[k % len(values)]


def launch(container, view, compiled: bool) -> None:
    """One launch of ``container`` over ``view`` on every rank, either way."""
    grid = container.index_data
    for rank in range(grid.num_devices):
        span = grid.span_for(rank, view)
        if compiled:
            kernel = container.specialize(rank, view, span)
            assert kernel is not None, f"{container.name}: hook declined a dense SoA float64 launch"
            kernel()
        else:
            compute = container.loading(Loader(rank=rank, view=view))
            for piece in span.pieces():
                compute(piece)


def assert_same_bytes(container, fields) -> None:
    """Interpreted and compiled launches leave identical bytes, on every view."""
    cold = snapshot(*fields)
    for view in DataView:
        launch(container, view, compiled=False)
        want = snapshot(*fields)
        restore(fields, cold)
        launch(container, view, compiled=True)
        assert snapshot(*fields) == want, f"{container.name}@{view}"
        restore(fields, cold)


# -- reduce ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    lateral=lateral_shapes,
    slab=st.sampled_from(SLABS),
    card=st.integers(1, 3),
    exponent=st.integers(-150, 150),
    seed=st.integers(0, 2**16),
)
def test_slice_sums_equal_the_numpy_summation_tree(lateral, slab, card, exponent, seed):
    devices, n0 = slab
    grid = dense_grid(devices, (n0, *lateral))
    rng = np.random.default_rng(seed)
    x, y = (grid.new_field(n, cardinality=card) for n in "xy")
    randomise(x, rng, 10.0**exponent)
    randomise(y, rng)
    partial = grid.new_dot_partial("partial")
    for container, values in (
        (ops.dot(grid, x, y, partial), x.to_numpy() * y.to_numpy()),
        (ops.total(grid, x, partial), x.to_numpy()),
    ):
        want = slice_sums(values)
        for views in ([DataView.STANDARD], [DataView.INTERNAL, DataView.BOUNDARY]):
            partial.fill(np.nan)
            for view in views:
                launch(container, view, compiled=True)
            got = np.concatenate([partial.partition(r).array for r in range(devices)])
            assert np.array_equal(got, want), f"{container.name} over {[v.value for v in views]}"


def test_negative_zero_slices_sum_like_numpy():
    grid = dense_grid(1, (2, 1, 5))
    x, partial = grid.new_field("x"), grid.new_dot_partial("p")
    x.fill(-0.0)
    launch(ops.total(grid, x, partial), DataView.STANDARD, compiled=True)
    got = partial.partition(0).array
    assert got.tobytes() == slice_sums(x.to_numpy()).tobytes()  # NumPy's reduction adds to +0.0


def test_self_check_declines_a_perturbed_summation_tree(monkeypatch, tmp_path):
    """A C tree that is not NumPy's must lose the reduce hooks, and only those."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # keep the odd unit out of the real cache
    monkeypatch.setattr(grid_kernels, "PAIRWISE_BLOCK", 64)
    grid_kernels._source.cache_clear()
    try:
        grid = dense_grid(1, (2, 3, 43))
        x, y = grid.new_field("x"), grid.new_field("y")
        span = grid.span_for(0, DataView.STANDARD)
        dot = ops.dot(grid, x, y, grid.new_dot_partial("p"))
        assert dot.specialize(0, DataView.STANDARD, span) is None
        assert ops.axpy(grid, 2.0, x, y).specialize(0, DataView.STANDARD, span) is not None
    finally:
        grid_kernels._source.cache_clear()


# -- map -------------------------------------------------------------------------
def _blas_maps(grid, x, y, w):
    half, third = {"v": 0.5}, {"v": -1.0 / 3.0}
    return [
        ops.copy(grid, x, w),
        ops.set_value(grid, w, 2.5),
        ops.scale(grid, -1.5, x),
        ops.axpy(grid, 0.3, x, y),
        ops.axpby(grid, 0.3, x, -0.7, y),
        ops.axpby(grid, 0.3, x, 0.0, y),
        ops.waxpby(grid, 2.0, x, -1.0, y, w),
        cg_module._axpby_cell(grid, half, x, third, y, "cells"),
        cg_module._init_residual(grid, x, y, w),
    ]


@settings(max_examples=15, deadline=None)
@given(
    lateral=lateral_shapes,
    slab=st.sampled_from(SLABS),
    card=st.integers(1, 3),
    exponent=st.integers(-150, 150),
    seed=st.integers(0, 2**16),
)
def test_maps_equal_their_closures(lateral, slab, card, exponent, seed):
    devices, n0 = slab
    grid = dense_grid(devices, (n0, *lateral))
    rng = np.random.default_rng(seed)
    fields = [grid.new_field(n, cardinality=card) for n in "xyw"]
    for field in fields:
        randomise(field, rng, 10.0**exponent)
    fields[0].partition(0).storage.flat[::7] = -0.0
    for container in _blas_maps(grid, *fields):
        assert_same_bytes(container, fields)


@pytest.mark.parametrize("card", [1, 3])
def test_restarted_update_ignores_a_stale_nan_basis(card):
    """``b == 0`` assigns ``a*x``: a ``p`` full of NaN must not survive (the
    restart guarantee), compiled exactly as interpreted."""
    grid = dense_grid(2, (6, 3, 5))
    r, p = (grid.new_field(n, cardinality=card) for n in "rp")
    randomise(r, np.random.default_rng(3))
    for rank in range(2):
        p.partition(rank).storage[...] = np.nan
    update = cg_module._axpby_cell(grid, {"v": 1.0}, r, {"v": 0.0}, p, "update_p")
    assert_same_bytes(update, [r, p])
    launch(update, DataView.STANDARD, compiled=True)
    assert np.array_equal(p.to_numpy(), r.to_numpy())


# -- stencil -----------------------------------------------------------------------
@pytest.mark.parametrize("devices", [1, 2, 4, 8])
def test_stencil_equals_its_closure_on_every_view(devices):
    # 8 devices x 2 slices: every boundary strip is one slice and the
    # middle ranks' INTERNAL span is empty
    grid = dense_grid(devices, (16, 5, 7))
    u = grid.new_field("u", outside_value=0.25)
    out = grid.new_field("out")
    rng = np.random.default_rng(devices)
    for rank in range(devices):
        # ghost slices are halo data (or the border's outside value), random here
        u.partition(rank).storage[...] = rng.standard_normal(u.partition(rank).storage.shape)
    if devices == 8:
        assert grid.span_for(3, DataView.INTERNAL).is_empty
    assert_same_bytes(make_neg_laplacian(grid, u, out), [u, out])


# -- elasticity's operator: the projection and the 27-point block stencil ------------
def elastic_grid(devices: int, shape, solid: bool) -> DenseGrid:
    """A solid cube; ``solid`` leaves a void border around a narrower cuboid
    (what ``solid_fraction < 1`` does), so masked cells meet free ones."""
    mask = None
    if solid:
        mask = np.zeros(shape, dtype=bool)
        mask[:, shape[1] // 3 : shape[1] - shape[1] // 3, shape[2] // 3 : shape[2] - shape[2] // 3] = True
    return DenseGrid(Backend.sim_gpus(devices), shape, stencils=[STENCIL_27PT], mask=mask)


@settings(max_examples=20, deadline=None)
@given(
    lateral=st.sampled_from([(1, 1), (1, 4), (3, 1), (5, 3)]) | st.tuples(st.integers(1, 6), st.integers(1, 6)),
    slab=st.sampled_from([(1, 1), (1, 5), (2, 4), (2, 7), (4, 8), (4, 11)]),
    solid=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_elastic_operator_equals_its_closures(lateral, slab, solid, seed):
    devices, n0 = slab
    shape = (n0, *lateral)
    grid = elastic_grid(devices, shape, solid)
    u, out = grid.new_field("u", cardinality=3), grid.new_field("out", cardinality=3)
    project, apply = make_elastic_operator()(grid, u, out, "A")
    rng = np.random.default_rng(seed)
    mu = next(f for f in fields_of(apply) if f.name == "A_masked_in")
    for field in (u, mu, out):
        randomise(field, rng)
    # on Dirichlet (z = 0) and free nodes, void ones when ``solid``
    cells = [(0, 0, 0), *(tuple(int(rng.integers(n)) for n in shape) for _ in range(8))]
    plant(u, rng, cells)
    plant(mu, rng, cells[::-1])
    for container in (project, apply):
        assert_same_bytes(container, fields_of(project, apply))


# -- the collide-stream steps -------------------------------------------------------------
#: densities the velocity select ``(rho > 0.0) ? u / rho : 0.0`` must get right
RHO_VALUES = (0.0, -0.0, -0.25, np.nan)


def pull_image(field, lattice, cell, value) -> None:
    """Set every population ``cell`` pulls, and every one it would bounce
    back, to ``value``: the cell's density becomes a sum of equal terms
    (zero of ``value``'s sign, negative, or NaN)."""
    grid = field.grid
    rank = next(r for r, (a, b) in enumerate(grid.bounds) if a <= cell[0] < b)
    storage = field.partition(rank).storage
    local = np.array((cell[0] - grid.bounds[rank][0] + grid.radius, *cell[1:]))
    storage[(slice(None), *local)] = value
    for q, e in enumerate(lattice.velocities):
        src = local - e  # axis 0 stays inside the ghost slices
        if all(0 <= s < n for s, n in zip(src[1:], storage.shape[2:])):
            storage[(q, *src)] = value


def plant_rho_cells(field, lattice, rng, count: int = 4) -> None:
    for k in range(count):
        cell = tuple(int(rng.integers(n)) for n in field.grid.shape)
        pull_image(field, lattice, cell, RHO_VALUES[k % len(RHO_VALUES)])


def lateral_wall_cells(shape, rng, count: int) -> list:
    """Random cells on a lateral wall (first or last index of a lateral axis)."""
    cells = []
    for _ in range(count):
        cell = [int(rng.integers(n)) for n in shape]
        axis = 1 + int(rng.integers(len(shape) - 1))
        cell[axis] = (0, shape[axis] - 1)[int(rng.integers(2))]
        cells.append(tuple(cell))
    return cells


def cavity_case(devices: int, shape, lid_on_cut: bool, lid_velocity: float, rng):
    """The D3Q19 cavity step over random populations; the ghost slices
    beyond the global axis-0 borders hold the wall sentinel, as after a
    halo update, so the lid is pulled from.  ``lid_on_cut`` gives the last
    rank the fewest slices it can own, so the lid plane borders a cut."""
    weights = [1.0] * (devices - 1) + [1e-3] if lid_on_cut and devices > 1 else None
    grid = DenseGrid(Backend.sim_gpus(devices), shape, stencils=[D3Q19_STENCIL], partition_weights=weights)
    f_in, f_out = (grid.new_field(n, cardinality=19, outside_value=SOLID_SENTINEL) for n in ("f0", "f1"))
    randomise(f_in, rng, 0.1)
    for rank in range(devices):
        f_in.partition(rank).storage[...] += 1.0 / 19.0
    f_in.partition(0).storage[:, : grid.radius] = SOLID_SENTINEL
    f_in.partition(devices - 1).storage[:, -grid.radius :] = SOLID_SENTINEL
    return grid, make_twopop_container(grid, f_in, f_out, 1.1, lid_velocity), [f_in, f_out]


@settings(max_examples=60, deadline=None)
@given(
    # every remainder of an 8-lane vector, rows shorter than one; a single
    # cell per slice would make one-cell boundary pieces, which decline
    lateral=st.tuples(st.integers(1, 19), st.integers(1, 19)).filter(lambda s: s != (1, 1)),
    devices=st.sampled_from([1, 2, 4]),
    extra=st.integers(0, 4),
    lid_on_cut=st.booleans(),
    lid_velocity=st.sampled_from([0.0, 0.0875]),
    seed=st.integers(0, 2**16),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN planted on purpose
def test_cavity_step_equals_its_closure(lateral, devices, extra, lid_on_cut, lid_velocity, seed):
    rng = np.random.default_rng(seed)
    shape = (2 * devices + extra, *lateral)
    grid, step, fields = cavity_case(devices, shape, lid_on_cut, lid_velocity, rng)
    if lid_on_cut and devices > 1:
        assert grid.local_slices(devices - 1) == 2 * grid.radius
    plant(fields[0], rng, lateral_wall_cells(shape, rng, 8), (np.nan, -0.0, 0.0, SOLID_SENTINEL))
    plant_rho_cells(fields[0], D3Q19, rng)
    assert_same_bytes(step, fields)


# -- the Kármán collide-stream step ------------------------------------------------------
def karman_case(devices: int, shape, rng, center=None):
    """A 2-D channel: f_in random (ghost rows too), the fluid mask a cylinder
    centred on ``center`` (default: on the first partition cut)."""
    grid = DenseGrid(Backend.sim_gpus(devices), shape, stencils=[D2Q9_STENCIL])
    f_in, f_out = (grid.new_field(n, cardinality=9) for n in ("f0", "f1"))
    mask = grid.new_field("mask")
    cut = grid.bounds[0][1]
    fluid = cylinder_mask(shape, center or (cut - 0.5, shape[1] / 4.0), max(1.0, shape[0] / 6.0))
    mask.init(lambda y, x: fluid[y, x].astype(np.float64))
    randomise(f_in, rng, 0.1)
    for rank in range(devices):
        f_in.partition(rank).storage[...] += 1.0 / 9.0
    return grid, make_karman_container(grid, f_in, f_out, mask, omega=1.3, inflow_velocity=0.04), [f_in, f_out, mask]


@settings(max_examples=20, deadline=None)
@given(
    shape=st.sampled_from([(4, 2), (8, 2), (11, 3), (6, 40)]) | st.tuples(st.integers(8, 16), st.integers(2, 24)),
    devices=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**16),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN planted on purpose
def test_karman_step_equals_its_closure(shape, devices, seed):
    rng = np.random.default_rng(seed)
    grid, step, fields = karman_case(devices, (max(shape[0], 2 * devices), shape[1]), rng)
    n0, nx = grid.shape
    cells = [(0, 0), (n0 - 1, nx - 1), *((int(rng.integers(n0)), int(rng.integers(nx))) for _ in range(6))]
    plant(fields[0], rng, cells)
    plant_rho_cells(fields[0], D2Q9, rng)
    assert_same_bytes(step, fields)


def test_karman_declines_only_one_cell_pieces():
    """NumPy sums a single cell's populations pairwise, not sequentially:
    a one-cell span piece (one row of a one-column channel) keeps the
    closure, and every other piece runs C, bitwise."""
    grid, step, fields = karman_case(4, (8, 1), np.random.default_rng(5), center=(3.5, 0.0))
    cold = snapshot(*fields)
    for view in DataView:
        for rank in range(4):
            span = grid.span_for(rank, view)
            kernel = step.specialize(rank, view, span)
            assert (kernel is None) == any(piece.count == 1 for piece in span.pieces()), (view, rank)
            compute = step.loading(Loader(rank=rank, view=view))
            for piece in span.pieces():
                compute(piece)
            want = snapshot(*fields)
            restore(fields, cold)
            if kernel is not None:
                kernel()
                assert snapshot(*fields) == want, (view, rank)
            restore(fields, cold)


# -- what must keep the interpreted closure ----------------------------------------
def test_hooks_decline_what_the_kernels_cannot_address():
    backend = Backend.sim_gpus(2)
    dense = DenseGrid(backend, (8, 4, 4), stencils=[STENCIL_7PT, STENCIL_27PT])
    sparse = SparseGrid(backend, mask=np.ones((8, 4, 4), dtype=bool), stencils=[STENCIL_7PT, STENCIL_27PT])
    virtual = DenseGrid(backend, (8, 4, 4), stencils=[STENCIL_7PT, STENCIL_27PT], virtual=True)
    cases = []
    for grid, kw in ((dense, {"layout": Layout.AOS, "cardinality": 2}), (sparse, {}), (virtual, {})):
        x, y = grid.new_field("x", **kw), grid.new_field("y", **kw)
        cases += [ops.axpy(grid, 2.0, x, y), ops.dot(grid, x, y, grid.new_dot_partial("p"))]
        if kw.get("cardinality", 1) == 1:
            cases.append(make_neg_laplacian(grid, x, y))
        layout = kw.get("layout", Layout.SOA)
        u, out = (grid.new_field(n, cardinality=3, layout=layout) for n in ("u", "out"))
        cases += make_elastic_operator()(grid, u, out, "A")
    x, y = dense.new_field("x"), dense.new_field("y")
    cases.append(ops.dot(dense, x, y, dense.new_reduce_partial("per_rank")))
    channel = np.ones((8, 6), dtype=bool)
    for grid, layout in (
        (DenseGrid(backend, (8, 6), stencils=[D2Q9_STENCIL]), Layout.AOS),
        (SparseGrid(backend, mask=channel, stencils=[D2Q9_STENCIL]), Layout.SOA),
        (DenseGrid(backend, (8, 6), stencils=[D2Q9_STENCIL], virtual=True), Layout.SOA),
    ):
        f_in, f_out = (grid.new_field(n, cardinality=9, layout=layout) for n in ("f0", "f1"))
        cases.append(make_karman_container(grid, f_in, f_out, grid.new_field("mask"), 1.3, 0.04))
    for container in cases:
        span = container.index_data.span_for(0, DataView.STANDARD)
        assert container.specialize is None or container.specialize(0, DataView.STANDARD, span) is None


# -- scalars are read when the kernel runs -------------------------------------------
@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_frozen_program_sees_scalars_changed_between_replays(mode):
    """Two replays of the same frozen ``sk_a`` / ``sk_b`` with ``alpha`` /
    ``beta`` changed in between: the specialised kernels must use the new
    values, bitwise what the interpreted closures (fusion off) compute."""

    def replay_twice(fuse: bool):
        grid = dense_grid(2, (8, 6, 5))
        b, x = grid.new_field("b"), grid.new_field("x")
        rng = np.random.default_rng(11)
        solver = ConjugateGradient(grid, make_neg_laplacian, b, x, occ=Occ.STANDARD, mode=mode)
        state = [solver.x, solver.r, solver.p, solver.q]
        for field in state:
            field.init(lambda z, y, x_, rng=rng: rng.standard_normal(np.broadcast_shapes(z.shape, y.shape, x_.shape)))
        trail = []
        with contextlib.nullcontext() if fuse else fusion.disabled():
            for alpha, beta in ((0.5, 0.0), (0.125, 0.75)):
                solver.alpha["v"], solver.neg_alpha["v"], solver.beta["v"] = alpha, -alpha, beta
                solver.sk_a.run(mode=mode)
                solver.sk_b.run(mode=mode)
                trail.append([f.to_numpy().tobytes() for f in state])
                trail.append([solver.pq_partial.partition(r).array.tobytes() for r in range(2)])
        programs = [sk.plan._ensure_program() for sk in (solver.sk_a, solver.sk_b)]
        kernels = [u for p in programs for u in p.dispatch if u.steps[0].kind == "kernel"]
        assert all(u.specialized for u in kernels) == fuse
        for sk in (solver.sk_init, solver.sk_a, solver.sk_b):
            sk.close()
        return trail

    compiled, interpreted = replay_twice(True), replay_twice(False)
    assert compiled == interpreted
    assert compiled[0] != compiled[2], "the second replay must have moved the fields"
