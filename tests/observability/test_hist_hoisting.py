"""Metric-handle hoisting: enabled-observability replay stops paying a
labeled-series resolution per step per call.

Instrumented replay historically resolved its histogram/counter handles
through the registry on *every* step execution — a dict lookup plus
label-tuple hashing per kernel and four of them per copy, dominating the
instrumented replay's overhead.  The handles are now resolved when the
program is lowered for the armed layer set (the lowering is keyed on
registry identity, so ``obs.enable(reset=True)`` re-lowers).  The
micro-benchmark here is count-based rather than wall-clock based —
lookup *counts* are deterministic on a noisy CI host where timings are
not.
"""

from __future__ import annotations

from repro import observability as obs
from repro.core import ops
from repro.domain import STENCIL_7PT, DenseGrid
from repro.skeleton import Skeleton
from repro.system import Backend


def _build_skeleton(devices=2):
    backend = Backend.sim_gpus(devices)
    grid = DenseGrid(backend, (16, 8, 8), stencils=[STENCIL_7PT], name="hoist")
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
    return Skeleton(backend, [ops.axpy(grid, 2.0, y, x), laplace], name="hoist")


# the labeled series the lowering resolves per step (other instrumentation
# sites — enqueue counters, engine batch histograms, staging pool — have
# their own budgets and are not what the hoisting targets)
STEP_SERIES = frozenset(
    {"kernel_seconds", "copy_seconds", "copy_size_bytes", "halo_bytes_sent", "halo_messages"}
)


class _CountingRegistry:
    """Wraps a metrics registry, counting per-step series resolutions."""

    def __init__(self, inner):
        self._inner = inner
        self.step_resolutions = 0

    def _count(self, name):
        if name in STEP_SERIES:
            self.step_resolutions += 1

    def histogram(self, name, *args, **kwargs):
        self._count(name)
        return self._inner.histogram(name, *args, **kwargs)

    def counter(self, name, *args, **kwargs):
        self._count(name)
        return self._inner.counter(name, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_handle_resolutions_amortize_to_zero():
    obs.enable(reset=True)
    try:
        sk = _build_skeleton()
        sk.run()  # freeze + first instrumented replay lowers the program
        counting = _CountingRegistry(obs.OBS.metrics)
        obs.OBS.metrics = counting
        # the wrapper is a *new* registry identity, so the first replay
        # re-lowers, resolving once per step...
        sk.run()
        per_step = counting.step_resolutions
        assert per_step > 0
        counting.step_resolutions = 0
        # ...and every later replay reuses that lowering: zero resolutions of
        # the per-step series, regardless of how many steps execute
        sk.run()
        sk.run()
        assert counting.step_resolutions == 0, (
            f"{counting.step_resolutions} per-step series resolutions on warm "
            f"replays (was {per_step} per replay before hoisting)"
        )
    finally:
        obs.disable()


def test_registry_swap_invalidates_the_cache():
    """obs.enable(reset=True) swaps the registry object; cached handles
    pointing into the dead registry must not swallow new observations."""
    obs.enable(reset=True)
    try:
        sk = _build_skeleton()
        sk.run()
        assert obs.metrics().histogram_summaries("kernel_seconds")
        obs.enable(reset=True)  # fresh registry, the cached lowering holds old handles
        sk.run()
        # observations must land in the NEW registry — stale handles
        # would leave it empty while feeding the dead one
        assert obs.metrics().histogram_summaries("kernel_seconds"), (
            "kernel_seconds missing after registry swap: stale cached handles"
        )
    finally:
        obs.disable()
