"""The layer axis of the conformance matrix: mode x layer set x fusion.

A compiled program is lowered once per armed-layer set
(:meth:`repro.skeleton.scheduler.CompiledProgram.runners`); arming
observability, the sanitizer or resilience changes what is *recorded*
about a replay, never what it computes or which kernels it runs.  Every
cell here — four solver miniatures x {serial, parallel} x {fused,
unfused} x six layer sets — must reproduce the bare serial fused run bit
for bit, resilience x parallel included: a fault session is armed on the
backend the cell builds on, and the engine replays under it.

The last test is the reason the single lowering exists: an instrumented
replay of a specialised program runs the same compiled kernels as a bare
one — every kernel of all four solvers has a generated-C kernel on dense
SoA float64, and no container's interpreted ``loading`` lambda is called —
while still reporting one ``kernel_seconds`` sample per constituent kernel.
"""

from __future__ import annotations

import contextlib
import functools

import pytest

from repro import observability as obs
from repro import resilience as res
from repro.sanitizer import state as san
from repro.skeleton import Occ
from repro.system import Backend

from .harness import MODES, SOLVERS, assert_bitwise_equal

DEVICES = 2
LAYER_SETS = [(), ("obs",), ("san",), ("obs", "san"), ("res",), ("obs", "res", "san")]


@contextlib.contextmanager
def armed(layers):
    """A backend with exactly ``layers`` armed (the suite fixture has
    observability on; the other two belong to the backend)."""
    backend = Backend.sim_gpus(DEVICES)
    log = plan = None
    with contextlib.ExitStack() as stack:
        if "obs" not in layers:
            obs.disable()
            stack.callback(obs.enable, reset=False)
        if "san" in layers:
            log = stack.enter_context(san.recording(backend))
        if "res" in layers:
            # every rate zero: all sites are consulted, none injects
            plan = res.FaultPlan(seed=0)
            stack.enter_context(res.session(backend, plan))
        yield backend
        assert log is None or len(log), "the sanitizer was armed and recorded nothing"
        assert plan is None or plan._draws, "a fault session was armed and no site consulted it"


@functools.lru_cache(maxsize=None)
def bare_serial_fused(solver: str):
    run, _native = SOLVERS[solver]
    with armed(()) as backend:
        return run(DEVICES, Occ.STANDARD, "serial", None, backend)


@pytest.mark.parametrize("layers", LAYER_SETS, ids=lambda ls: "+".join(ls) or "bare")
@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_layer_axis_matches_bare_serial_fused_bitwise(solver, mode, fuse, layers):
    want = bare_serial_fused(solver)
    run, _native = SOLVERS[solver]
    with armed(layers) as backend:
        got = run(DEVICES, Occ.STANDARD, mode, None, backend, fused=fuse)
    label = f"{solver}[{mode}-{'fused' if fuse else 'unfused'}-{'+'.join(layers) or 'bare'}]"
    assert_bitwise_equal(got, want, label)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_traced_replay_runs_the_specialised_kernels_not_the_interpreted_ones(solver):
    from collections import Counter

    from repro import codegen
    from repro.workloads import build

    from .harness import served_spec

    if not codegen.available():
        pytest.skip("no C compiler in this environment")
    app = build(served_spec(solver, 4, Occ.STANDARD, "serial", None))
    app.run()  # freeze every program
    skeletons = [*app.skeletons, app.cg.sk_flush] if hasattr(app, "cg") else app.skeletons  # + the x flush
    programs = {sk.name: sk.plan._ensure_program() for sk in skeletons}
    kernels = [
        (step, fn)
        for program in programs.values()
        for unit in program.dispatch
        for step, fn in zip(unit.steps, unit.fns)
        if step.kind == "kernel"
    ]
    assert kernels and all(step.container.specialize is not None for step, _ in kernels), "a kernel has no hook"
    assert all(fn is not step.command.fn for step, fn in kernels), "a hook declined"

    interpreted_calls = []
    for container in {step.container for step, _ in kernels}:
        inner = container.loading
        container.loading = lambda loader, inner=inner: (interpreted_calls.append(1), inner(loader))[1]

    app.reset()
    obs.enable(reset=True)
    app.run()  # the same job again, traced
    assert not interpreted_calls, "tracing swapped the compiled kernels for the interpreted ones"
    runs = [s.name for s in obs.tracer().spans if s.name.startswith("skeleton.run:")]
    replays = Counter(name.removeprefix("skeleton.run:") for name in runs)
    samples = sum(row["count"] for row in obs.metrics().histogram_summaries("kernel_seconds"))
    assert samples == sum(replays[name] * program.stats.num_kernels for name, program in programs.items())
    kernel_spans = [s for s in obs.tracer().spans if s.cat == "kernel"]
    assert len(kernel_spans) == samples
    app.close()
