"""The fused axis of the conformance matrix.

Kernel fusion is on by default, so the main differential matrix
(``test_differential.py``) already proves *fused* dispatch bitwise
against the native baselines.  This module pins the axis explicitly:
every solver runs each multi-device (occ, mode) configuration twice —
once with ``JobSpec.fused`` True, once False — and both legs must match the native fingerprints bit for bit.  That makes
"fusion is a pure plan-to-plan transform" a tested invariant rather
than a design note: if a fused chain ever reorders a dependent step,
batches a halo exchange wrongly, or a codegen-specialized kernel drifts
by one ULP, exactly one leg of this axis breaks and names the
configuration.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.skeleton import Occ

from .harness import SOLVERS, assert_bitwise_equal, matrix_configs, weights_for

# The weights axis is already crossed with fusion in the main matrix
# (which runs fused by default); here the axis under test is fuse
# itself, over every solver x devices x occ x mode.
CONFIGS = [cfg for cfg in matrix_configs(device_counts=(2, 4, 8)) if cfg[3] == "uniform"]


def _config_id(cfg) -> str:
    devices, occ, mode, weighting = cfg
    return f"{devices}dev-{occ.value}-{mode}"


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_fused_axis_matches_native_bitwise(solver, config, fuse):
    devices, occ, mode, weighting = config
    run, native = SOLVERS[solver]
    weights = weights_for(solver, devices, weighting)
    got = run(devices, occ, mode, weights, fused=fuse)
    label = f"{solver}[{_config_id(config)}-{'fused' if fuse else 'unfused'}]"
    assert_bitwise_equal(got, native(), label)


def test_lbm_program_actually_fuses():
    """The axis must not pass vacuously: the fused LBM program at four
    devices has to batch its halo-exchange chains and specialize its
    kernels, or the fused leg above is just the unfused leg renamed."""
    from repro.solvers.lbm import LidDrivenCavity
    from repro.system import Backend

    from .harness import LBM_SHAPE

    fw = LidDrivenCavity(Backend.sim_gpus(4), LBM_SHAPE, omega=1.1, lid_velocity=0.08)
    fw.step(1)
    for sk in fw.skeletons:
        program = sk.plan._ensure_program()
        assert len(program.dispatch) < len(program.steps)
        assert program.stats.fusion_ratio > 5.0
        chain_lengths = sorted(len(u.steps) for u in program.dispatch if len(u.steps) > 1)
        assert chain_lengths, "no multi-step units: copy chains did not fuse"


def test_poisson_program_runs_generated_kernels():
    """Same for the CG solvers: with a C compiler every Poisson kernel unit
    — stencil, maps, dots, on every data view — must be specialised, or the
    fused leg above silently measures the interpreted closures."""
    from repro import codegen
    from repro.workloads import build

    from .harness import served_spec

    if not codegen.available():
        pytest.skip("no C compiler in this environment")
    app = build(served_spec("poisson", 4, Occ.TWO_WAY, "serial", None))
    app.run()
    for sk in app.skeletons:
        kernel_units = [u for u in sk.plan._ensure_program().dispatch if u.steps[0].kind == "kernel"]
        assert kernel_units and all(u.specialized for u in kernel_units), sk.name
    app.close()


def test_disabled_context_leaves_singleton_unspecialised_units():
    from repro.workloads import build

    from .harness import served_spec

    app = build(dataclasses.replace(served_spec("lbm", 2, Occ.STANDARD, "serial", None), fused=False))
    app.run()
    for sk in app.skeletons:
        program = sk.plan._ensure_program()
        assert [u.steps for u in program.dispatch] == [[s] for s in program.steps]
        assert not any(u.specialized for u in program.dispatch)
    app.close()
