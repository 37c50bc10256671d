"""Device programs: a bare serial replay is the concatenation of its units' op tables.

A specialised kernel or dense halo copy is an op table
(:mod:`repro.codegen.table`); the bare serial lowering
(:func:`repro.skeleton.fusion.lower_serial`) runs every maximal run of
consecutive table units as one C call and leaves the units whose closure
is still Python in place between them.  Pinned here: the three ways of
running one frozen program agree bitwise, the published host-call count,
what a Python unit in the middle of a program does to scalar reads, what a
table keeps alive and what each halo copy points into, the no-compiler leg
and the engine's worker cap.

Nothing in this file skips where a C compiler exists (CI fails on a
skip); under ``REPRO_DISABLE_CC`` the same cells run the interpreted
closures and the counts say so.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import codegen
from repro import observability as obs
from repro.codegen import table as table_module
from repro.codegen.table import Table
from repro.domain import STENCIL_7PT, DataView, DenseGrid
from repro.skeleton import Occ, Skeleton, fusion, scheduler
from repro.solvers import PoissonSolver, manufactured_problem
from repro.solvers import cg as cg_module
from repro.system import Backend, ParallelEngine
from repro.system.engine import usable_cpu_count
from repro.workloads import JobSpec, build

HAVE_CC = codegen.available()
OCCS = [occ.value for occ in Occ]


@pytest.fixture(autouse=True)
def bare():
    """The suite arms observability; this file is about the bare lowering."""
    obs.disable()


def spec(experiment: str, devices: int, occ: str) -> JobSpec:
    """Two slices per device from 4 devices up: every boundary strip is one
    slice and the middle ranks' INTERNAL span is empty."""
    n0 = max(4, 2 * devices)
    shape = {"poisson": (n0, 5, 7), "lbm": (n0, 6, 6), "karman": (n0, 12), "elasticity": (n0, n0, n0)}[experiment]
    return JobSpec.make(experiment, shape, 3, devices=devices, occ=occ)


def fingerprints(job: JobSpec) -> dict[str, bytes]:
    app = build(job)
    try:
        return {key: value.tobytes() for key, value in app.run().items()}
    finally:
        app.close()


def programs(app) -> list:
    return [sk.plan._ensure_program() for sk in app.skeletons]


# -- (i) one frozen program, three ways to run it ----------------------------------
@pytest.mark.parametrize("occ", OCCS)
@pytest.mark.parametrize("devices", [1, 2, 4, 8])
@pytest.mark.parametrize("experiment", ["poisson", "lbm", "karman", "elasticity"])
def test_tables_equal_unit_by_unit_equal_interpreted(experiment, devices, occ, monkeypatch):
    job = spec(experiment, devices, occ)
    tables = fingerprints(job)
    with monkeypatch.context() as patch:  # every unit's own closure, in dispatch order
        patch.setattr(scheduler, "lower_serial", lambda dispatch, flight: [unit.fn for unit in dispatch])
        assert fingerprints(job) == tables
    monkeypatch.setenv("REPRO_DISABLE_CC", "1")  # every hook declines: the NumPy closures
    assert fingerprints(job) == tables


# -- (ii) the published host-call count --------------------------------------------
@pytest.mark.parametrize("occ", OCCS)
@pytest.mark.parametrize("devices", [1, 2, 4, 8])
@pytest.mark.parametrize("experiment", ["poisson", "lbm", "karman", "elasticity"])
def test_fully_specialised_programs_are_one_host_call(experiment, devices, occ):
    app = build(spec(experiment, devices, occ))
    for program in programs(app):
        stats = program.stats
        assert stats.host_calls == (1 if HAVE_CC else stats.dispatch_units), stats
        assert len(program.runners({}, flight=True)[1]) == stats.host_calls
        assert stats.dispatch_units == len(program.dispatch) > 1 or devices == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN injected on purpose
def test_compiled_operator_runs_in_program_order():
    """``p = r`` -> ``mu = M P p`` -> halo copy -> ``q = A mu`` -> ``<p, q>``,
    one table where ``cc`` exists: a NaN planted in ``r`` must reach ``q`` exactly
    around its cell and the dot's slices beside it — it would reach neither
    had the operator run ahead of the ops that move it into ``p``."""
    app = build(JobSpec.make("elasticity", (8, 8, 8), 3, devices=2))
    cg = app.solver.cg
    app.run()
    n = app.spec.shape[0]
    z, y, x = n // 2 - 1, 3, 4  # the last slice device 0 owns: the stencil crosses the cut
    cg.beta["v"] = 0.0  # p <- 1 * r outright
    cg.r.partition(0).view(cg.grid.span_for(0, DataView.STANDARD), 1)[z, y, x] = np.nan
    cg.sk_a.run()
    assert np.isnan(cg.p.to_numpy()[1, z, y, x])
    hit = np.argwhere(np.isnan(cg.q.to_numpy()).any(axis=0))
    assert len(hit) > 1 and (abs(hit - (z, y, x)) <= 1).all(), "q = A p saw the p of this replay"
    assert {tuple(cell) for cell in hit} >= {(z, y, x), (z + 1, y, x)}, "and its halo copy"
    rows = np.concatenate([cg.pq_partial.partition(r).array for r in range(2)])
    assert np.flatnonzero(np.isnan(rows)).tolist() == sorted({int(cell[0]) for cell in hit})
    app.close()


# -- (iii) scalars: read at segment entry, and a Python unit ends the segment --------
def test_python_unit_mid_program_changes_a_scalar_a_later_op_reads():
    """``y += 2 x`` (C) -> halo -> ``w = y + 1; c <- 3`` (Python) -> ``y += c w``
    (C), the host putting ``c`` back to 2 before every replay: the second map
    is in a later segment and must read the 3, not the 2 of program entry."""

    def replay_twice(fuse: bool):
        grid = DenseGrid(Backend.sim_gpus(2), (8, 4, 5), stencils=[STENCIL_7PT])
        x, y, w = (grid.new_field(name) for name in "xyw")
        x.init(lambda z, yy, xx: 1.0 + z + 0.25 * yy + 0.0625 * xx)
        two, c, one = {"v": 2.0}, {"v": 0.0}, {"v": 1.0}

        def loading(loader):  # a stencil read: a halo update of y separates it from the first map
            yp = loader.read(y, stencil=True)
            wp = loader.write(w)

            def compute(span):
                c["v"] = 3.0
                wp.view(span)[...] = yp.view(span) + 1.0

            return compute

        containers = [
            cg_module._axpby_cell(grid, two, x, one, y, "first"),
            grid.new_container("bump", loading),
            cg_module._axpby_cell(grid, c, w, one, y, "second"),
        ]
        trail = []
        with contextlib.nullcontext() if fuse else fusion.disabled():
            sk = Skeleton(grid.backend, containers, name="bump")
            for _ in range(2):
                c["v"] = 2.0
                sk.run()
                trail.append(y.to_numpy().tobytes())
        program = sk.plan._ensure_program()
        return trail, program, x.to_numpy()

    (trail, program, x), (interpreted, _, _) = replay_twice(True), replay_twice(False)
    assert trail == interpreted
    if HAVE_CC:
        shape = [len(units) if isinstance(units[0].fn, Table) else 0 for units in fusion.segments(program.dispatch)]
        assert shape[0] > 1 and shape[-1] > 1 and 0 in shape, "tables, the Python stencil, tables"
    y = 2.0 * x  # replay 1, from y = 0
    y = y + 3.0 * (y + 1.0)
    y = y + 2.0 * x  # replay 2
    y = y + 3.0 * (y + 1.0)
    assert trail[1] == y.tobytes()


# -- (iv) lifetime -------------------------------------------------------------------
def _poisson(devices: int = 2, iterations: int = 2) -> PoissonSolver:
    shape = (4 * devices, 6, 5)
    solver = PoissonSolver(Backend.sim_gpus(devices), shape)
    rhs = manufactured_problem(shape)[1]
    solver.set_rhs(lambda z, y, x: rhs[z, y, x])
    solver.solve(max_iterations=iterations, tolerance=1e-30)
    return solver


def _payloads(cg) -> list:
    return [buf.array for data in (cg.r, cg.p, cg.q, cg.pq_partial) for buf in data.buffers]


def _pinned(keep) -> list:
    """Every NumPy array a table's ``keep`` reaches."""
    if isinstance(keep, np.ndarray):
        return [keep]
    if isinstance(keep, Table):
        return _pinned(keep.keep)
    return [a for item in keep for a in _pinned(item)] if isinstance(keep, (list, tuple)) else []


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler in this environment")
def test_lowered_runner_pins_fields_and_slots():
    reference = _poisson()
    reference.cg.sk_a.run()
    want = [a.tobytes() for a in _payloads(reference.cg)]

    solver = _poisson()
    (runner,) = solver.cg.sk_a.plan._ensure_program().runners({}, flight=False)[1]
    watched = [weakref.ref(a) for a in _payloads(solver.cg)]
    for sk in (solver.cg.sk_init, solver.cg.sk_a, solver.cg.sk_b):
        sk.close()
    del solver, sk
    gc.collect()
    assert all(ref() is not None for ref in watched), "the table pins what its records point into"
    pinned = _pinned(runner.keep)
    assert not any(a.dtype == np.uint8 for a in pinned), "no staging block: a copy goes straight across"
    runner()  # reads beta through its slot, copies boundary slabs into ghost slots
    assert [ref().tobytes() for ref in watched] == want
    del runner, pinned
    gc.collect()
    assert all(ref() is None for ref in watched), "and nothing else does"


def _copy_tables(app) -> list[Table]:
    """The one-op copy tables of every program of ``app``, in dispatch order."""
    copy_op = table_module.bind(("optable", "copy_op"), table_module._WALKER_C, "copy_op")
    address = ctypes.cast(copy_op, ctypes.c_void_p).value
    return [
        unit.fn
        for program in programs(app)
        for unit in program.dispatch
        if isinstance(unit.fn, Table) and unit.fn.ops[0].fn == address
    ]


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler in this environment")
@pytest.mark.parametrize("experiment, devices", [("lbm", 2), ("poisson", 4)])
def test_every_halo_copy_op_pins_its_two_views_and_points_into_payloads(experiment, devices):
    app = build(spec(experiment, devices, "standard"))
    payloads = [buf.array for bufs in app.backend.allocator._live.values() for buf in bufs]
    spans = [(a.ctypes.data, a.ctypes.data + a.nbytes) for a in payloads if a is not None]
    copies = _copy_tables(app)
    assert copies, "a multi-device program has halo copies"
    for t in copies:
        (op,) = t.ops
        src, dst = t.keep
        assert (op.p[0], op.p[1], op.p[2]) == (src.ctypes.data, dst.ctypes.data, None)
        chunks, nbytes, src_stride, dst_stride = op.n[:4]
        assert chunks * nbytes == src.nbytes == dst.nbytes > 0
        for base, stride in ((op.p[0], src_stride), (op.p[1], dst_stride)):
            lo, hi = base, base + (chunks - 1) * stride + nbytes
            assert any(a <= lo and hi <= b for a, b in spans), "inside one field payload"
    app.close()


# -- (v) no compiler: no walker, nothing written ------------------------------------------
CHILD = r"""
import json, sys
from repro.codegen.table import Table
from repro.workloads import JobSpec, build
out = {}
for experiment, shape in (("poisson", (8, 5, 7)), ("lbm", (8, 6, 6)), ("karman", (8, 12)), ("elasticity", (8, 8, 8))):
    app = build(JobSpec.make(experiment, shape, 3, devices=4))
    out[experiment] = {key: value.tobytes().hex() for key, value in app.run().items()}
    programs = [sk.plan._ensure_program() for sk in app.skeletons]
    assert not any(isinstance(unit.fn, Table) for p in programs for unit in p.dispatch)
    assert all(p.stats.host_calls == p.stats.dispatch_units for p in programs)
print(json.dumps(out))
"""


def test_without_a_compiler_no_walker_is_built_and_nothing_is_written(tmp_path):
    env = dict(os.environ, REPRO_DISABLE_CC="1", PYTHONPATH="src", TMPDIR=str(tmp_path))
    child = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert list(tmp_path.iterdir()) == [], "REPRO_DISABLE_CC must touch no cache"
    for experiment, got in json.loads(child.stdout).items():
        shape = {"poisson": (8, 5, 7), "lbm": (8, 6, 6), "karman": (8, 12), "elasticity": (8, 8, 8)}[experiment]
        here = fingerprints(JobSpec.make(experiment, shape, 3, devices=4))
        assert {key: value.hex() for key, value in here.items()} == got, experiment


# -- (vi) the engine's worker cap -----------------------------------------------------------
@contextlib.contextmanager
def _solved_in_parallel(serial: PoissonSolver):
    """Solve ``serial``'s 8-device problem again under ``mode="parallel"``,
    check it is bitwise the serial answer, and yield its three skeletons."""
    solver = PoissonSolver(Backend.sim_gpus(8), serial.grid.shape)
    rhs = manufactured_problem(serial.grid.shape)[1]
    solver.set_rhs(lambda z, y, x: rhs[z, y, x])
    solver.cg.mode = "parallel"
    skeletons = (solver.cg.sk_init, solver.cg.sk_a, solver.cg.sk_b)
    try:
        solver.solve(max_iterations=4, tolerance=1e-30)
        assert solver.solution().tobytes() == serial.solution().tobytes()
        assert solver.cg.result.residual_norms == serial.cg.result.residual_norms
        yield skeletons
    finally:
        for sk in skeletons:
            sk.close()


def test_eight_devices_share_at_most_cpu_count_workers_and_stay_bitwise():
    serial = _poisson(devices=8, iterations=4)
    before = {t for t in threading.enumerate() if t.name.startswith("engine-w")}
    with _solved_in_parallel(serial) as skeletons:
        workers = {t for t in threading.enumerate() if t.name.startswith("engine-w")} - before
        engines = [sk.plan._engine for sk in skeletons]
        assert all(0 < len(e._workers) <= usable_cpu_count() for e in engines if e is not None)
        assert len(workers) <= 3 * usable_cpu_count()  # one engine per skeleton


def test_a_process_pinned_to_one_core_replays_eight_devices_inline(monkeypatch):
    """``os.cpu_count()`` counts the machine, not the cores this process may
    use: under ``taskset -c 0`` on a two-core host it still says 2.  The
    engine sizes itself by the affinity mask, so all eight devices merge into
    one program that runs on the calling thread."""
    serial = _poisson(devices=8, iterations=4)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
    with _solved_in_parallel(serial) as skeletons:
        assert all(len(ParallelEngine._build_programs(sk.plan._program.queues)) == 1 for sk in skeletons)
        assert all(sk.plan._engine is not None and not sk.plan._engine._workers for sk in skeletons)
