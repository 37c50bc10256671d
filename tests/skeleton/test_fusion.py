"""Unit tests for the fusion pass (``repro.skeleton.fusion``).

The conformance fused axis proves end-to-end bitwise equality; this
module pins the mechanics — chain legality against the recorded wiring,
dispatch structure, the tri-state ``Plan.fuse`` override, fallback when
the C toolchain is unavailable, timing-model invariance, and the
observability contract of fused replay (constituent spans survive, a
``fused`` envelope appears).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import observability as obs
from repro.skeleton import fusion
from repro.solvers.lbm import LidDrivenCavity
from repro.system import Backend
from repro.system.queue import RecordEventCommand

SHAPE = (16, 8, 8)
ARGS = {"omega": 1.1, "lid_velocity": 0.08}


def _cavity(devices=4):
    return LidDrivenCavity(Backend.sim_gpus(devices), SHAPE, **ARGS)


def _programs(fw):
    return [sk.plan._ensure_program() for sk in fw.skeletons]


def test_fused_vs_unfused_bitwise_both_modes():
    for mode in ("serial", "parallel"):
        fused = _cavity()
        fused.step(7, mode=mode)
        with fusion.disabled():
            plain = _cavity()
            plain.step(7, mode=mode)
        assert np.array_equal(fused.current.to_numpy(), plain.current.to_numpy()), mode


def test_chain_legality_invariants():
    """Every multi-step unit: one queue, one kind, records-only interior."""
    fw = _cavity()
    fw.step(1)
    saw_multi = False
    for program in _programs(fw):
        # dispatch covers every step exactly once, in issue order
        covered = [s for u in program.dispatch for s in u.steps]
        assert covered == program.steps
        for unit in program.dispatch:
            kinds = {s.kind for s in unit.steps}
            queues = {id(s.queue) for s in unit.steps}
            assert len(kinds) == 1 and len(queues) == 1
            assert unit.sites == tuple(s.site for s in unit.steps)
            if len(unit.steps) > 1:
                saw_multi = True
                q = unit.steps[0].queue
                pos = {c: i for i, c in enumerate(q.commands)}
                for a, b in zip(unit.steps, unit.steps[1:]):
                    interior = q.commands[pos[a.command] + 1 : pos[b.command]]
                    assert all(isinstance(c, RecordEventCommand) for c in interior)
        # every data command is a unit's head or one of its members
        heads = {u.steps[0].command for u in program.dispatch}
        assert set(program.fused_heads) == heads
        assert set(program.step_of) - heads == {
            s.command for u in program.dispatch for s in u.steps[1:]
        }
    assert saw_multi, "no multi-step units: nothing actually fused"


def _unfused(program) -> bool:
    """Fusion off still yields a dispatch plan: one unspecialised unit per step."""
    return len(program.dispatch) == len(program.steps) and all(
        len(u.steps) == 1 and not u.specialized and u.fn is u.steps[0].command.fn
        for u in program.dispatch
    )


def test_plan_fuse_tristate_override():
    fw = _cavity(devices=2)
    for sk in fw.skeletons:
        sk.plan.fuse = False
    fw.step(1)
    assert all(_unfused(p) for p in _programs(fw))

    with fusion.disabled():
        fw2 = _cavity(devices=2)
        for sk in fw2.skeletons:
            sk.plan.fuse = True  # explicit True beats the disabled default
        fw2.step(1)
    assert not any(_unfused(p) for p in _programs(fw2))


def test_timing_model_unchanged_by_fusion():
    """Fusion batches replay dispatch only: the recorded queues the DES
    simulator prices are identical, so the modeled makespan is too."""
    fused = _cavity()
    fused.step(1)
    with fusion.disabled():
        plain = _cavity()
        plain.step(1)
    assert fused.iteration_makespan() == plain.iteration_makespan()


def test_fallback_without_cc_is_bitwise(tmp_path):
    """REPRO_DISABLE_CC forces the interpreted kernels inside fused
    units — LBM's and the CG maps / stencil / dots alike; results must
    not change and no object cache may be touched (separate process: the
    codegen cache and the availability probe are process-global)."""
    poisson = (
        "from repro.solvers import PoissonSolver, manufactured_problem\n"
        "ps = PoissonSolver(Backend.sim_gpus(2), (8, 6, 5))\n"
        "rhs = manufactured_problem((8, 6, 5))[1]\n"
        "ps.set_rhs(lambda z, y, x: rhs[z, y, x])\n"
        "ps.solve(max_iterations=6, tolerance=1e-30)\n"
    )
    code = (
        "import numpy as np\n"
        "from repro.system import Backend\n"
        "from repro.solvers.lbm import LidDrivenCavity\n"
        f"fw = LidDrivenCavity(Backend.sim_gpus(4), {SHAPE!r}, omega=1.1, lid_velocity=0.08)\n"
        "fw.step(5)\n" + poisson + "units = [u for sk in (*fw.skeletons, ps.cg.sk_init, ps.cg.sk_a, ps.cg.sk_b)"
        " for u in sk.plan._ensure_program().dispatch]\n"
        "assert not any(u.specialized for u in units)\n"
        f"np.savez({str(tmp_path / 'nocc.npz')!r}, lbm=fw.current.to_numpy(), poisson=ps.solution())\n"
    )
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, REPRO_DISABLE_CC="1", PYTHONPATH="src", TMPDIR=str(tmpdir))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=300)
    assert list(tmpdir.iterdir()) == [], "REPRO_DISABLE_CC must touch no cache"
    got = np.load(tmp_path / "nocc.npz")
    ref = _cavity()
    ref.step(5)
    assert np.array_equal(got["lbm"], ref.current.to_numpy())
    here = {"Backend": Backend}
    exec(poisson, here)  # the same solve in this process, whatever kernels it has
    assert np.array_equal(got["poisson"], here["ps"].solution())


def test_specialized_kernels_used_when_cc_available():
    from repro import codegen

    if not codegen.available():
        pytest.skip("no C compiler in this environment")
    fw = _cavity()
    fw.step(1)
    specialized = [u for p in _programs(fw) for u in p.dispatch if u.specialized]
    assert specialized, "C toolchain available but no kernel was specialized"


def test_fused_replay_under_observability_keeps_constituent_spans():
    fw = _cavity()
    fw.step(1)  # freeze fused programs first, outside instrumentation
    obs.enable(reset=True)
    try:
        fw.step(1)
        spans = obs.tracer().spans
        cats = {s.cat for s in spans}
        assert "fused" in cats, "no fused envelope spans under observability"
        kernel_spans = [s for s in spans if s.cat == "kernel"]
        copy_spans = [s for s in spans if s.cat == "copy"]
        assert kernel_spans and copy_spans, "constituent spans lost in fused replay"
        envelopes = [s for s in spans if s.cat == "fused"]
        assert all(s.args.get("fused", 0) > 1 for s in envelopes)
    finally:
        obs.disable()


def test_fusion_stats_populated():
    fw = _cavity()
    fw.step(1)
    for program in _programs(fw):
        stats = program.stats
        assert stats.dispatch_units == len(program.dispatch)
        assert stats.fusion_ratio == pytest.approx(len(program.steps) / len(program.dispatch))
        assert stats.fused_steps == sum(
            len(u.steps) for u in program.dispatch if len(u.steps) > 1
        )


def test_single_device_program_still_fuses_kernels():
    """No halo copies at one device, but kernel steps still become
    (possibly specialized) dispatch units."""
    fw = _cavity(devices=1)
    fw.step(3)
    with fusion.disabled():
        plain = _cavity(devices=1)
        plain.step(3)
    assert np.array_equal(fw.current.to_numpy(), plain.current.to_numpy())
    for program in _programs(fw):
        assert program.dispatch and all(s.kind == "kernel" for u in program.dispatch for s in u.steps)


def test_interleaving_check_vetoes_only_what_a_member_moves_past():
    """A member runs at its unit's head, ahead of every step other queues
    issue in between: only a conflict between *it* and one of those may
    veto it — not one that involves the head, which does not move.  The
    extended-OCC CG's map halves on one queue with the other half's writes
    interleaved are the case (``update_x`` reads the ``p`` that
    ``update_p.boundary`` writes): 26 units, where checking the whole
    chain made 30."""
    from repro.workloads import JobSpec, build

    app = build(JobSpec.make("poisson", (24, 24, 24), 2, devices=4, occ="extended"))
    program = next(sk for sk in app.skeletons if sk.name == "cg_a").plan._ensure_program()
    assert program.stats.dispatch_units == 26
    seq = {id(s): i for i, s in enumerate(program.steps)}
    for unit in program.dispatch:
        head = seq[id(unit.steps[0])]
        for member in unit.steps[1:]:
            passed = [s for s in program.steps[head : seq[id(member)]] if s.queue is not member.queue]
            acc = fusion._accesses(member)
            assert not any(fusion._conflicts(acc, fusion._accesses(s)) for s in passed)
