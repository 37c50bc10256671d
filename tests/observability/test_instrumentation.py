"""Integration: one Skeleton execution reports through all three layers."""

import numpy as np

from repro import observability as obs
from repro.core import ops
from repro.domain import STENCIL_7PT, DenseGrid
from repro.skeleton import Occ, Skeleton
from repro.system import Backend


def _build(devices=2, shape=(16, 16, 16)):
    backend = Backend.sim_gpus(devices)
    grid = DenseGrid(backend, shape, stencils=[STENCIL_7PT], name="obs")
    x, y = grid.new_field("x"), grid.new_field("y")
    x.init(lambda i, j, k: np.sin(0.3 * i) + 0.1 * j - 0.2 * k)

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
    sk = Skeleton(backend, [ops.axpy(grid, 2.0, y, x), laplace], occ=Occ.STANDARD, name="obs")
    return sk, y


def test_skeleton_run_populates_all_layers():
    obs.enable()
    sk, _y = _build()
    sk.run()
    m = obs.metrics()
    # System layer: every kernel and copy of the run timed once, allocation accounting
    assert sum(h.count for h in m.series("kernel_seconds")) == sk.stats.num_kernels
    # every copy is a halo message: the run's own and init's eager halo sync
    copies = sum(h.count for h in m.series("copy_seconds"))
    assert m.total("halo_messages") == copies > sk.stats.num_copies
    assert m.total("allocations_bytes") > 0
    # Sets layer: per-message halo byte counters with src/dst labels
    assert m.total("halo_bytes_sent") > 0
    assert m.value("halo_bytes_sent", src="0", dst="1") > 0
    # Skeleton layer: compile phases and per-piece execution spans
    cats = {s.cat for s in obs.tracer().spans}
    assert {"compile", "kernel", "copy", "phase"} <= cats
    names = [s.name for s in obs.tracer().spans]
    for phase in ("multi_gpu_graph", "occ", "transitive_reduction", "plan"):
        assert any(f"skeleton.compile.{phase}" in n for n in names), phase


def test_instrumentation_does_not_change_results():
    obs.reset()
    sk_off, y_off = _build()
    sk_off.run()
    obs.enable()
    sk_on, y_on = _build()
    sk_on.run()
    # identical schedules, stats, and numerical results either way
    assert sk_on.stats == sk_off.stats
    assert np.array_equal(y_on.to_numpy(), y_off.to_numpy())


def test_export_merges_real_and_sim(tmp_path):
    obs.enable()
    sk, _y = _build()
    sk.run()
    path = obs.export_chrome_trace(tmp_path / "t.json", sim_trace=sk.trace())
    import json

    doc = json.loads(path.read_text())
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert any(p.startswith("sim:") for p in pids)
    assert any(not p.startswith("sim:") for p in pids)
    assert doc["metrics"]["kernel_seconds"]
