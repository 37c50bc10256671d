"""Scheduler-specific behaviour: stream economy, ablation, exports."""

import json

import numpy as np
import pytest

from repro.skeleton import Occ, Skeleton
from repro.system import Backend

from .conftest import combine_partial, make_axpy, make_dot, make_laplace


def build_skeleton(ndev=3, occ=Occ.TWO_WAY, reuse=True, shape=(12, 4, 4)):
    from repro.domain import STENCIL_7PT, DenseGrid

    backend = Backend.sim_gpus(ndev)
    grid = DenseGrid(backend, shape, stencils=[STENCIL_7PT])
    x, y = grid.new_field("X"), grid.new_field("Y")
    x.init(lambda z, j, i: np.sin(z * 1.0))
    y.init(lambda z, j, i: np.cos(j * 1.0))
    partial = grid.new_reduce_partial("p")
    sk = Skeleton(
        backend,
        [make_axpy(grid, 0.5, x, y), make_laplace(grid, x, y), make_dot(grid, x, y, partial)],
        occ=occ,
        reuse_parent_streams=reuse,
    )
    return sk, partial


def test_stream_reuse_saves_events():
    """Paper V-C: giving a node a parent's stream reduces event overhead."""
    sk_on, p_on = build_skeleton(reuse=True)
    sk_off, p_off = build_skeleton(reuse=False)
    r_on, r_off = sk_on.run(), sk_off.run()
    assert r_on.stats.num_events <= r_off.stats.num_events
    assert r_on.stats.waits_skipped_same_queue >= r_off.stats.waits_skipped_same_queue
    # ablation must not change results
    assert combine_partial(p_on) == combine_partial(p_off)


def test_reuse_off_schedule_still_valid():
    sk, _ = build_skeleton(reuse=False)
    sk.validate()


def test_stream_count_matches_widest_level():
    sk, _ = build_skeleton(occ=Occ.NONE)
    widest = max(len(lvl) for lvl in sk.graph.bfs_levels())
    assert sk.plan.num_streams == widest


def test_kernel_count_accounts_empty_boundaries():
    # 3 devices: boundary launches cover 2 strips on the middle rank and 1
    # on each border rank; empty pieces are skipped, not enqueued
    sk, _ = build_skeleton(occ=Occ.STANDARD)
    result = sk.run()
    trace = sk.trace(result=result)
    names = [s.name for s in trace.spans if s.kind.value == "kernel"]
    assert len(names) == result.stats.num_kernels
    assert not any("boundary" in n and n.endswith("[]") for n in names)


def test_chrome_trace_export_round_trips():
    sk, _ = build_skeleton()
    trace = sk.trace(result=sk.run())
    events = trace.to_chrome_trace()
    assert events, "expected events"
    blob = json.dumps(events)
    parsed = json.loads(blob)
    assert all(e["ph"] == "X" for e in parsed)
    assert {e["cat"] for e in parsed} <= {"kernel", "copy"}
    # timestamps in microseconds, consistent with the makespan
    assert max(e["ts"] + e["dur"] for e in parsed) == pytest.approx(trace.makespan * 1e6)


def test_plan_reusable_across_runs():
    sk, partial = build_skeleton()
    r1 = sk.run()
    r2 = sk.run()
    # every replay returns the frozen program's one result: same queues,
    # same events, immutable
    assert r1 is r2 and isinstance(r1.queues, tuple)
    assert r1.stats.num_kernels == r2.stats.num_kernels


def test_stats_require_run():
    sk, _ = build_skeleton()
    with pytest.raises(RuntimeError):
        _ = sk.stats
    sk.run()
    assert sk.stats.num_kernels > 0
