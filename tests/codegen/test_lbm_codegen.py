"""One D3Q19 object per lattice: the lid speed is an argument, not source text."""

from __future__ import annotations

import pytest

from repro import codegen
from repro.skeleton import fusion
from repro.solvers.lbm import LidDrivenCavity
from repro.solvers.lbm.codegen import compile_twopop, generate_twopop_source, lid_corrections
from repro.solvers.lbm.lattice import D3Q19
from repro.system import Backend

pytestmark = pytest.mark.skipif(not codegen.available(), reason="no C compiler in this environment")


def cavity(lid: float) -> LidDrivenCavity:
    return LidDrivenCavity(Backend.sim_gpus(2), (8, 6, 6), omega=1.1, lid_velocity=lid)


@pytest.mark.parametrize("lid", [0.0, 0.05, 0.0875])
def test_compiled_cavity_equals_interpreted_at_any_lid_speed(lid):
    compiled = cavity(lid)
    compiled.step(4)
    units = [u for sk in compiled.skeletons for u in sk.plan._ensure_program().dispatch if u.steps[0].kind == "kernel"]
    assert units and all(u.specialized for u in units)
    with fusion.disabled():
        interpreted = cavity(lid)
        interpreted.step(4)
    # bytes, not values: a still lid must not turn a -0.0 into +0.0
    assert compiled.current.to_numpy().tobytes() == interpreted.current.to_numpy().tobytes()


def test_lid_speed_is_not_part_of_the_translation_unit():
    moving, still = generate_twopop_source(D3Q19, True), generate_twopop_source(D3Q19, False)
    assert moving.count("from_lid ? corr[") == len(lid_corrections(D3Q19, 0.05)) == 5
    assert "from_lid ?" not in still, "a still lid adds nothing: + 0.0 would flip a -0.0"
    assert compile_twopop(D3Q19, True) is compile_twopop(D3Q19, True) is not compile_twopop(D3Q19, False)
