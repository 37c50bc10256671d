"""The cache/serving axis of the differential conformance matrix.

The gateway serves every solver from warm cached programs; this axis
proves the plan cache is *numerics-neutral*: a gateway-served result —
cold compile or warm replay, batched or not — is bitwise-identical to
the direct ``Skeleton.run`` path, and hence to the native baselines the
rest of the matrix anchors on.  The tuner leg closes the loop the issue
names: a :class:`TunePlan` persisted to the cache, JSON-round-tripped
and replayed through ``Skeleton.run`` produces the same bits as a cold
compile under the same decision.
"""

from __future__ import annotations

import json

import pytest

from repro.serving import Gateway, PlanCache
from repro.skeleton import Occ
from repro.tuner import TunePlan

from .harness import SOLVERS, assert_bitwise_equal, run_served, served_spec

DEVICES = 2


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_served_matches_native_and_direct(solver, mode):
    run, native = SOLVERS[solver]
    with Gateway(workers=2) as gw:
        served = run_served(gw, solver, DEVICES, Occ.STANDARD, mode, None)
        warm = run_served(gw, solver, DEVICES, Occ.STANDARD, mode, None)
    assert_bitwise_equal(served, native(), f"{solver}/served-{mode} vs native")
    assert_bitwise_equal(warm, served, f"{solver}/served-{mode} warm vs cold")
    direct = run(DEVICES, Occ.STANDARD, mode, None)
    assert_bitwise_equal(served, direct, f"{solver}/served-{mode} vs direct")


def test_cached_tune_plan_replays_bitwise_identical(tmp_path):
    """A TunePlan persisted to the plan cache and replayed through
    Skeleton.run matches the cold compile under the same decision."""
    spec = served_spec("poisson", DEVICES, Occ.STANDARD, "serial", None)
    run, _ = SOLVERS["poisson"]

    with Gateway(cache=PlanCache(root=tmp_path), workers=1) as gw:
        tuned = gw.tuned_spec(spec)  # cold: full DES search, then persisted
        first = gw.submit("t", tuned).result(timeout=600)

    with Gateway(cache=PlanCache(root=tmp_path), workers=1) as gw2:
        replayed = gw2.tuned_spec(spec)  # warm: read back from disk
        assert replayed == tuned
        second = gw2.submit("t", replayed).result(timeout=600)
        assert gw2.cache.persisted_loads >= 1  # no re-search happened

    assert_bitwise_equal(
        second.fingerprints, first.fingerprints, "poisson/tuned replay vs cold"
    )
    # the decision itself survives the JSON round-trip exactly, and the
    # direct Skeleton.run path under that decision agrees bit for bit
    weights = tuned.weights
    direct = run(tuned.devices, Occ(tuned.occ), tuned.mode, weights)
    assert_bitwise_equal(first.fingerprints, direct, "poisson/served-tuned vs direct")


def test_tune_plan_json_round_trip_is_exact():
    from repro.sim import dgx_a100
    from repro.tuner import tune_workload

    plan = tune_workload("poisson", dgx_a100(DEVICES), devices=DEVICES)
    clone = TunePlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert clone.best == plan.best and clone.baseline == plan.baseline
    assert clone.candidates == plan.candidates
    assert clone.shares == plan.shares
    assert clone.to_dict() == plan.to_dict()
