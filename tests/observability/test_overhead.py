"""The overhead guarantee: disabled observability costs < 2% of run().

A replay reads the armed layers once (``Plan.execute``: the process's
observability switch, its own backend's session) and then calls the
program's lowering for that set; with nothing armed that lowering is
each dispatch unit's own closure — consecutive op-table units
concatenated into one table — behind one slot of the always-on flight
recorder per host call.  Three tests pin that down: a structural one
(every bare runner is one ring slot around a unit's own closure, or
around the table built from exactly the consecutive units it covers),
the ring records a bare parallel replay leaves (one per dispatch unit),
and a budget — the per-replay switch reads plus the flight records,
costed pessimistically, stay under 2% of the measured run time of the
default (fused) program.  The skeleton mixes a Python stencil with a
specialised ``axpy``, so it exercises the segmentation.  A fourth test
counts the Python-level calls of one warm bare CG iteration (two replays
and two host scalar reads) against a fixed budget.  CI runs this file as
its own job step so an instrumentation regression (e.g. work put back on
the bare path) fails loudly.
"""

import subprocess
import sys
import timeit
from functools import partial

import numpy as np
import pytest

from repro import codegen
from repro import observability as obs
from repro.observability import flight
from repro.core import ops
from repro.domain import STENCIL_7PT, DenseGrid
from repro.skeleton import Skeleton, fusion
from repro.solvers import PoissonSolver
from repro.system import Backend


def _build_skeleton():
    backend = Backend.sim_gpus(2)
    grid = DenseGrid(backend, (32, 32, 32), stencils=[STENCIL_7PT], name="ovh")
    x, y = grid.new_field("x"), grid.new_field("y")

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

    laplace = grid.new_container("laplace", loading)
    return Skeleton(backend, [ops.axpy(grid, 2.0, y, x), laplace], name="ovh")


def test_disabled_by_default():
    proc = subprocess.run(
        [sys.executable, "-c", "from repro import observability as o; print(o.enabled())"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def _ring_slot(run):
    """``(slot, body)`` of a bare runner, which must be one flight-ring slot
    around one body."""
    assert isinstance(run, partial) and run.func is fusion._ringed, run
    slot, body = run.args
    return slot, body


def test_bare_lowering_is_the_units_own_closures():
    sk = _build_skeleton()
    sk.run()
    program = sk.plan._ensure_program()
    by_head, host_calls = program.runners({})
    # the engine's view stays per unit: every unit's own closure behind the
    # unit's own slot, under its head
    assert list(by_head) == [u.steps[0].command for u in program.dispatch]
    for run, unit in zip(by_head.values(), program.dispatch):
        assert _ring_slot(run) == ((unit.pid, unit.kind, unit.site), unit.fn)
    # the serial view: every runner is one slot around a unit's own closure,
    # or around the table built from exactly the consecutive units it
    # covers — in dispatch order
    units = iter(program.dispatch)
    for run in host_calls:
        slot, body = _ring_slot(run)
        unit = next(units)
        if body is unit.fn:
            assert slot == (unit.pid, unit.kind, unit.site)
            continue
        assert slot[1] == "program"
        covered = bytes(unit.fn.ops)
        while len(covered) < len(bytes(body.ops)):
            covered += bytes(next(units).fn.ops)
        assert bytes(body.ops) == covered
    assert next(units, None) is None
    assert len(host_calls) == program.stats.host_calls
    assert len(host_calls) < len(program.dispatch) or not codegen.available()
    # and the lowering is cached, not rebuilt per replay
    assert program.runners({})[1] is host_calls


def test_bare_parallel_replay_records_one_ring_slot_per_unit():
    obs.reset()
    sk = _build_skeleton()
    try:
        sk.run(mode="parallel")  # freeze, lower, start the engine
        units = sk.plan._ensure_program().stats.dispatch_units
        for _ in range(3):
            before = flight.FLIGHT.records
            sk.run(mode="parallel")
            assert flight.FLIGHT.records - before == units
    finally:
        sk.close()


def test_disabled_overhead_under_2_percent():
    obs.reset()
    sk = _build_skeleton()
    sk.run()  # warm caches, freeze the program, build the bare lowering
    before = flight.FLIGHT.records
    sk.run()
    flight_records = flight.FLIGHT.records - before
    assert flight_records == sk.plan._ensure_program().stats.host_calls

    # per-event costs, measured pessimistically: a switch read through a
    # Python-level callable is strictly slower than the inline read, and
    # flight records pay the real ring append (always-on by design)
    n = 50_000
    per_guard = timeit.timeit(lambda: obs.OBS.active, number=n) / n
    rec = flight.FlightRecorder()
    per_record = timeit.timeit(lambda: rec.record("d0", "kernel", "k"), number=n) / n
    t_run = min(timeit.repeat(sk.run, number=1, repeat=5))

    # per replay, not per unit: observability, resilience, sanitizer, plus
    # the span probes around plan.execute / replay / run, rounded up
    guards_per_replay = 8
    worst_case_overhead = guards_per_replay * per_guard + flight_records * per_record
    assert worst_case_overhead < 0.02 * t_run, (
        f"disabled instrumentation bound violated: {guards_per_replay} switch reads x "
        f"{per_guard * 1e9:.0f} ns + {flight_records} flight records x "
        f"{per_record * 1e9:.0f} ns = {worst_case_overhead * 1e6:.1f} us vs "
        f"run() = {t_run * 1e6:.1f} us"
    )


@pytest.mark.skipif(not codegen.available(), reason="interpreted kernels are Python calls by design")
def test_warm_bare_cg_iteration_stays_within_its_call_budget():
    """A warm bare-serial CG iteration on 8 devices is two replays of one op
    table each and two host scalar reads: at most 24 Python-level calls
    (``sys.setprofile`` call events — an exact, repeatable count, no clock)."""
    obs.disable()
    app = PoissonSolver(Backend.sim_gpus(8), (16, 16, 16))
    rhs = np.random.default_rng(0).random(app.grid.shape)
    app.set_rhs(lambda z, y, x: rhs[z, y, x])
    cg = app.cg
    cg.begin(tolerance=1e-30)
    for _ in range(3):
        cg.iterate()
    calls = []
    sys.setprofile(lambda frame, event, _arg: calls.append(frame.f_code) if event == "call" else None)
    try:
        converged = cg.iterate()
    finally:
        sys.setprofile(None)
    assert not converged
    assert len(calls) <= 24, [f"{code.co_filename}:{code.co_firstlineno} {code.co_name}" for code in calls]
