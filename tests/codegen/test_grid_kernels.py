"""The bitwise contract of the generated map / stencil / reduce kernels.

Each container keeps its interpreted NumPy closure (the oracle) beside the
``specialize`` hook that binds the generated-C kernel
(:mod:`repro.codegen.grid_kernels`).  Here both run on identical data —
every rank, every data view — and must leave identical bytes behind.
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
from repro.domain import STENCIL_7PT, DataView, DenseGrid, Layout, SparseGrid
from repro.sets.loader import Loader
from repro.skeleton import Occ, fusion
from repro.solvers import cg as cg_module
from repro.solvers.cg import ConjugateGradient
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


# -- what must keep the interpreted closure ----------------------------------------
def test_hooks_decline_what_the_kernels_cannot_address():
    backend = Backend.sim_gpus(2)
    dense = DenseGrid(backend, (8, 4, 4), stencils=[STENCIL_7PT])
    sparse = SparseGrid(backend, mask=np.ones((8, 4, 4), dtype=bool), stencils=[STENCIL_7PT])
    virtual = DenseGrid(backend, (8, 4, 4), stencils=[STENCIL_7PT], virtual=True)
    cases = []
    for grid, kw in ((dense, {"layout": Layout.AOS, "cardinality": 2}), (sparse, {}), (virtual, {})):
        x, y = grid.new_field("x", **kw), grid.new_field("y", **kw)
        cases += [ops.axpy(grid, 2.0, x, y), ops.dot(grid, x, y, grid.new_dot_partial("p"))]
        if kw.get("cardinality", 1) == 1:
            cases.append(make_neg_laplacian(grid, x, y))
    x, y = dense.new_field("x"), dense.new_field("y")
    cases.append(ops.dot(dense, x, y, dense.new_reduce_partial("per_rank")))
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
