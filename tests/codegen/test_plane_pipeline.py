"""Plane-pipelined device programs: CG's chains walked plane by plane, bitwise.

The bare serial lowering (:func:`repro.skeleton.fusion.lower_serial`) runs
each rank's map -> stencil -> reduce chain of a segment one axis-0 plane at
a time (:mod:`repro.codegen.pipeline`).  Pinned here: random shapes of
Poisson and elasticity CG give the same ``x`` and residual history
pipelined, unfused, in parallel and interpreted; the published chain
count; each hazard the order must keep, planted and refused; and a
checkpoint taken with the x-update pending, restored onto fewer devices.

Under ``REPRO_DISABLE_CC`` nothing is a table, so nothing is pipelined and
the same cells compare the interpreted closures with themselves.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import codegen
from repro import observability as obs
from repro.codegen import pipeline
from repro.codegen.table import Table, Window
from repro.domain import STENCIL_7PT, STENCIL_27PT, DenseGrid
from repro.resilience.checkpoint import Checkpoint
from repro.skeleton import Occ, Skeleton, fusion
from repro.solvers import ElasticitySolver, PoissonSolver
from repro.solvers import cg as cg_module
from repro.solvers.poisson import make_neg_laplacian
from repro.system import Backend
from repro.workloads import JobSpec, build

HAVE_CC = codegen.available()


@pytest.fixture(autouse=True)
def bare():
    """The suite arms observability; the pipelined table is the bare lowering's."""
    obs.disable()


def _shape(experiment: str, devices: int, occ: Occ) -> tuple[int, int, int]:
    """A seeded random shape with at least four planes per device: axis 0 a
    power of two at even OCC levels, odd at odd ones; lateral extents 3-9."""
    rng = np.random.default_rng([devices, occ.level, len(experiment)])
    if occ.level % 2:
        n0 = 4 * devices + 2 * int(rng.integers(0, devices)) + 1
    else:
        n0 = 1 << (4 * devices - 1).bit_length()
    return (n0, *(int(n) for n in rng.integers(3, 10, size=2)))


def _solver(experiment: str, devices: int, occ: Occ, shape):
    backend = Backend.sim_gpus(devices)
    if experiment == "poisson":
        solver = PoissonSolver(backend, shape, occ=occ)
        solver.set_rhs(lambda z, y, x: np.sin(1.0 + z + 0.3 * y) * np.cos(0.7 * x))
        return solver
    grid = DenseGrid(backend, shape, stencils=[STENCIL_27PT])
    return ElasticitySolver(grid, occ=occ)


def _solve(experiment, devices, occ, shape, mode="serial", fuse=True):
    solver = _solver(experiment, devices, occ, shape)
    cg = solver.cg
    skeletons = (cg.sk_init, cg.sk_a, cg.sk_b, cg.sk_flush)
    for sk in skeletons:
        sk.plan.fuse = fuse
    cg.mode = mode
    try:
        result = solver.solve(max_iterations=5, tolerance=1e-30)
        x = solver.solution() if experiment == "poisson" else solver.displacement()
        chains = cg.sk_a.record().stats.pipelined_chains
        return (x.tobytes(), result.residual_norms), chains
    finally:
        for sk in skeletons:
            sk.close()


@pytest.mark.parametrize("occ", list(Occ), ids=lambda o: o.value)
@pytest.mark.parametrize("devices", [1, 2, 3, 8])
@pytest.mark.parametrize("experiment", ["poisson", "elasticity"])
def test_pipelined_equals_unfused_parallel_and_interpreted(experiment, devices, occ, monkeypatch):
    shape = _shape(experiment, devices, occ)
    pipelined, chains = _solve(experiment, devices, occ, shape)
    assert chains == (devices if HAVE_CC else 0), "every rank has two internal planes or more: all chain"
    assert _solve(experiment, devices, occ, shape, fuse=False)[0] == pipelined
    assert _solve(experiment, devices, occ, shape, mode="parallel")[0] == pipelined
    monkeypatch.setenv("REPRO_DISABLE_CC", "1")
    assert _solve(experiment, devices, occ, shape)[0] == pipelined


def test_published_chain_counts():
    """One chain per rank of CG's three skeletons, none for LBM's single
    collide-stream per rank, none for three-plane slabs or the flush."""

    def counts(spec):
        app = build(spec)
        return {sk.name: sk.record().stats.pipelined_chains for sk in (*app.skeletons, *_flush(app))}

    per_rank = 2 if HAVE_CC else 0
    assert counts(JobSpec.make("poisson", (32, 32, 32), 2, devices=2)) == {
        "cg_init": per_rank, "cg_a": per_rank, "cg_b": per_rank, "cg_flush": 0}
    assert set(counts(JobSpec.make("lbm", (16, 8, 8), 2, devices=2)).values()) == {0}
    # 24 planes on 8 devices: only the two edge ranks have two internal planes
    assert counts(JobSpec.make("poisson", (24, 6, 6), 2, devices=8))["cg_a"] == per_rank


def _flush(app) -> list:
    return [app.cg.sk_flush] if hasattr(app, "cg") else []


# -- legality: each hazard, planted, is refused ---------------------------------------
def _segment(skeleton):
    """``(tables, op labels)`` of the one table segment of ``skeleton``: each
    op labelled by its step (no copy family is batched here)."""
    (units,) = fusion.segments(skeleton.plan._ensure_program().dispatch)
    labels = [s.label for u in units for s, fn in zip(u.steps, u.fns) for _ in fn.ops]
    assert len(labels) == sum(len(u.fn.ops) for u in units)
    return [u.fn for u in units], labels


def _item(plan, labels, prefix: str, plane):
    (k,) = [k for k, (i, z) in enumerate(plan.items) if labels[i].startswith(prefix) and z == plane]
    return k


def _moved(order: list, item: int, before: int) -> list:
    """``order`` with ``item`` taken out and put back just before ``before``."""
    rest = [k for k in order if k != item]
    at = rest.index(before)
    return rest[:at] + [item] + rest[at:]


@pytest.fixture
def poisson_a():
    if not HAVE_CC:
        pytest.skip("no C compiler: no op tables to pipeline")
    solver = PoissonSolver(Backend.sim_gpus(2), (12, 5, 6))
    tables, labels = _segment(solver.cg.sk_a)
    plan = pipeline.plan(tables)
    order = plan.schedule()
    plan.check(order)
    return plan, labels, order


def test_a_reader_one_plane_ahead_of_its_producer_is_refused(poisson_a):
    plan, labels, order = poisson_a
    stencil = _item(plan, labels, "A_p.internal[0]", 3)  # reads p planes 2..4
    producer = _item(plan, labels, "update_p[0]", 4)
    assert order.index(stencil) > order.index(producer)
    with pytest.raises(ValueError, match="depends on"):
        plan.check(_moved(order, stencil, producer))


def test_a_chain_across_the_halo_copy_that_feeds_it_is_refused(poisson_a):
    plan, labels, order = poisson_a
    copy = _item(plan, labels, "halo:cg_p:1->0", None)  # fills rank 0's high ghost plane
    boundary = _item(plan, labels, "A_p.boundary[0]", 5)  # reads it
    assert order.index(boundary) > order.index(copy)
    with pytest.raises(ValueError, match="depends on"):
        plan.check(_moved(order, boundary, copy))


def test_a_reduce_slice_that_needs_an_occ_boundary_piece_is_refused(poisson_a):
    plan, labels, order = poisson_a
    dot = _item(plan, labels, "dot_pq[0]", 5)  # reads q plane 5
    boundary = _item(plan, labels, "A_p.boundary[0]", 5)  # writes it
    with pytest.raises(ValueError, match="depends on"):
        plan.check(_moved(order, dot, boundary))


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler: no op tables to pipeline")
def test_no_chain_crosses_a_host_scalar_read():
    """``y += 2 x`` (C) -> ``w = y + 1; c <- 3`` (Python stencil) -> ``y += c w``
    (C): the two maps chain on y, but the Python unit between them may
    change ``c``, so each side is its own segment and neither is pipelined."""
    grid = DenseGrid(Backend.sim_gpus(2), (8, 4, 5), stencils=[STENCIL_7PT])
    x, y, w = (grid.new_field(name) for name in "xyw")
    two, c, one = {"v": 2.0}, {"v": 0.0}, {"v": 1.0}

    def loading(loader):
        yp, wp = loader.read(y, stencil=True), loader.write(w)

        def compute(span):
            c["v"] = 3.0
            wp.view(span)[...] = yp.view(span) + 1.0

        return compute

    sk = Skeleton(
        grid.backend,
        [
            cg_module._axpby_cell(grid, two, x, one, y, "first"),
            grid.new_container("host", loading),
            cg_module._axpby_cell(grid, c, w, one, y, "second"),
        ],
        name="host_read",
    )
    program = sk.plan._ensure_program()
    runs = fusion.segments(program.dispatch)
    shape = [isinstance(units[0].fn, Table) for units in runs]
    assert shape[0] and shape[-1] and not all(shape), "tables, the Python stencil, tables"
    assert program.stats.pipelined_chains == 0
    assert pipeline.chains([u.fn for u in runs[0] + runs[-1]]), "without the Python unit the maps would chain"
    with pytest.raises(TypeError, match="Python unit"):
        pipeline.plan([u.fn for u in program.dispatch])


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler: no op tables to pipeline")
def test_pipelined_table_keeps_every_op_and_pins_the_unit_tables():
    solver = PoissonSolver(Backend.sim_gpus(2), (12, 5, 6))
    tables, _ = _segment(solver.cg.sk_a)
    (runner,) = solver.cg.sk_a.plan._ensure_program().runners({})[1]
    _slot, table = runner.args
    assert table.keep == tables
    planes = sum(w.hi - w.lo if isinstance(w, Window) else 1 for t in tables for w in t.windows)
    assert len(table.ops) == planes


# -- the pending x-update across a checkpoint --------------------------------------------
@pytest.mark.parametrize("experiment, shape", [("poisson", (16, 7, 6)), ("elasticity", (8, 8, 8))])
def test_checkpoint_with_alpha_pending_restores_bitwise_onto_fewer_devices(experiment, shape):
    spec = JobSpec.make(experiment, shape, 8, devices=2, tolerance=1e-30)
    want = build(spec).run()

    app = build(spec)
    for i in range(3):
        app.step(i)
    scalars = app.scalars()
    assert scalars["alpha"] != 0.0, "x has not taken the last step yet"
    ckpt = Checkpoint.capture(app.fields(), scalars, step=3)

    survivor = build(dataclasses.replace(spec, devices=1))
    survivor.on_restore(ckpt.restore(survivor.fields()))
    for i in range(3, spec.steps):
        survivor.step(i)
    got = survivor.fingerprints()
    assert {k: v.tobytes() for k, v in got.items()} == {k: v.tobytes() for k, v in want.items()}


def test_flush_applies_the_pending_step_once():
    """Reading x twice, or restarting, never applies the pending alpha twice;
    ``reset()`` drops it with the iterate it belonged to."""
    grid = DenseGrid(Backend.sim_gpus(2), (8, 5, 4), stencils=[STENCIL_7PT])
    b, x = grid.new_field("b"), grid.new_field("x")
    b.fill(1.0)
    solver = cg_module.ConjugateGradient(grid, make_neg_laplacian, b, x)
    solver.begin(tolerance=1e-30)
    solver.iterate()
    assert solver.alpha["v"] != 0.0
    solver.flush()
    once = x.to_numpy().tobytes()
    solver.flush()
    solver.begin(tolerance=1e-30)
    assert x.to_numpy().tobytes() == once and solver.alpha["v"] == 0.0
    solver.iterate()
    solver.reset()
    solver.flush()
    assert not x.to_numpy().any()
