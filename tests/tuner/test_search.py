import json

import numpy as np
import pytest

from repro.sim.machine import mixed_pcie, pcie_a100
from repro.skeleton import Occ
from repro.tuner import TunePlan, tune_workload


@pytest.fixture(scope="module")
def mixed_plan() -> TunePlan:
    return tune_workload("lbm", mixed_pcie(4), devices=4)


def test_heterogeneous_improvement_meets_acceptance_bar(mixed_plan):
    """The PR's acceptance criterion: on a heterogeneous machine the
    tuner's weighted slabs + OCC/mode choice must land >=15% below the
    uniform-slab default-OCC baseline in DES makespan."""
    assert mixed_plan.improvement >= 0.15
    assert mixed_plan.best.weights is not None, "winner must use tuned slabs"
    assert mixed_plan.best.mode == "parallel", "per-device issue must win on the mixed box"
    assert mixed_plan.best.makespan < mixed_plan.baseline.makespan


def test_tuned_weights_beat_uniform_like_for_like(mixed_plan):
    """Weights alone (same OCC, same mode) must already win on the
    heterogeneous machine — the improvement is not all from the mode."""
    by = {(c.occ, c.mode, c.weights is None): c.makespan for c in mixed_plan.candidates}
    for mode in ("serial", "parallel"):
        uniform = by[("standard", mode, True)]
        tuned = by[("standard", mode, False)]
        assert tuned < uniform


def test_shares_favor_fast_ranks(mixed_plan):
    shares = np.asarray(mixed_plan.shares)
    assert shares[0] > shares[1] and shares[2] > shares[3]
    assert float(shares.sum()) == pytest.approx(1.0)


def test_homogeneous_machine_keeps_uniform_slabs():
    plan = tune_workload("poisson", pcie_a100(4), devices=4)
    assert plan.best.weights is None
    assert np.allclose(plan.shares, 0.25, atol=0.01)


def test_baseline_is_uniform_standard_serial(mixed_plan):
    assert mixed_plan.baseline.occ == Occ.STANDARD.value
    assert mixed_plan.baseline.mode == "serial"
    assert mixed_plan.baseline.weights is None


def test_candidate_matrix_is_complete(mixed_plan):
    # weights {uniform, tuned, blend} x occ {4} x mode {2}
    assert len(mixed_plan.candidates) == 3 * len(Occ) * 2
    labels = {(c.occ, c.mode) for c in mixed_plan.candidates}
    assert labels == {(o.value, m) for o in Occ for m in ("serial", "parallel")}


def test_plan_json_round_trip(tmp_path, mixed_plan):
    path = tmp_path / "TUNE_lbm.json"
    mixed_plan.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["experiment"] == "lbm"
    assert doc["machine"] == "mixed-pcie-4"
    assert doc["improvement"] == pytest.approx(mixed_plan.improvement)
    assert doc["best"]["makespan"] == pytest.approx(mixed_plan.best.makespan)
    assert len(doc["candidates"]) == len(mixed_plan.candidates)


def test_best_occ_resolves_to_enum(mixed_plan):
    assert mixed_plan.best_occ in set(Occ)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown experiment 'nonsense'"):
        tune_workload("nonsense", pcie_a100(2), devices=2)


def test_uniform_best_and_tuned_delta(mixed_plan):
    ub = mixed_plan.uniform_best
    assert ub is not None and ub.weights is None
    uniforms = [c for c in mixed_plan.candidates if c.weights is None]
    assert all(c.makespan >= ub.makespan for c in uniforms)
    assert mixed_plan.tuned_vs_uniform == pytest.approx(
        1.0 - mixed_plan.best.makespan / ub.makespan
    )
    # the heterogeneous box: tuned shares beat even the best uniform config
    assert mixed_plan.tuned_vs_uniform > 0.0
    assert mixed_plan.to_dict()["tuned_vs_uniform"] == pytest.approx(
        mixed_plan.tuned_vs_uniform
    )
