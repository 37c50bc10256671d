import pytest

from repro.sim.machine import mixed_pcie
from repro.skeleton import Occ, TuneDecision
from repro.solvers.lbm import LidDrivenCavity
from repro.system import Backend, DeviceSet


@pytest.fixture()
def cavity():
    backend = Backend(DeviceSet.gpus(4), machine=mixed_pcie(4))
    return LidDrivenCavity(backend, (1024, 96, 96), virtual=True)


def test_autotune_returns_decision_and_adopts_it(cavity):
    sk = cavity.skeletons[0]
    decision = sk.autotune()
    assert isinstance(decision, TuneDecision)
    assert decision.makespan <= decision.baseline_makespan
    assert decision.improvement >= 0.0
    # the decision is adopted in place: the next run uses it
    assert sk.occ == Occ(decision.occ)
    assert sk.plan.default_mode == decision.mode


def test_autotune_improves_on_heterogeneous_machine(cavity):
    """At benchmark scale on the mixed machine, OCC x mode search alone
    must already buy a measurable DES win over the serial default."""
    decision = cavity.skeletons[0].autotune()
    assert decision.improvement >= 0.10
    assert decision.mode == "parallel"


def test_autotune_candidates_cover_search_space(cavity):
    decision = cavity.skeletons[0].autotune()
    combos = {(occ, mode) for occ, mode, _ in decision.candidates}
    assert combos == {(o.value, m) for o in Occ for m in ("serial", "parallel")}


def test_autotune_respects_restricted_levels(cavity):
    sk = cavity.skeletons[1]
    decision = sk.autotune(occ_levels=[Occ.STANDARD], modes=("serial",))
    assert decision.occ == Occ.STANDARD.value
    assert decision.mode == "serial"
