"""The fault matrix: every fault class either recovers or raises typed.

Runs the chaos miniatures (Poisson CG and the LBM cavity) under each
single-class fault profile of :data:`repro.bench.chaos.PROFILES` and
asserts the end-to-end guarantee: the recovered result is bitwise the
fault-free one, the recovered schedule proves its dependencies, and
recovery genuinely fired — every fault kind the profile arms was
injected, retries absorbed the transient ones, corruption rolled back,
losses degraded the backend.  Silent corruption is the one outcome that
must be impossible.
"""

import numpy as np
import pytest

from repro import resilience as res
from repro.bench.chaos import CHAOS_SPECS, PROFILES, _backend, chaos_spec, run_chaos
from repro.resilience import CorruptionDetected, FaultPlan, RecoveryPolicy
from repro.system import ParallelEngine
from repro.workloads import build, resilient_factory

#: the single-class rows; the composite storm is tests/bench/test_chaos.py's
SINGLE_CLASS = tuple(p for p in PROFILES if p != "storm")


@pytest.mark.parametrize("profile", SINGLE_CLASS)
@pytest.mark.parametrize("name", sorted(CHAOS_SPECS))
def test_fault_matrix_recovers_and_matches(name, profile):
    report = run_chaos(name, profile=profile, seed=1234)
    assert report.match, f"recovered result diverged: max |err| = {report.max_abs_error:.3e}"
    assert report.violations == 0
    assert report.ok
    # no vacuous cell: every kind the row arms was delivered at least once
    for kind in PROFILES[profile].split:
        assert report.injected.get(kind, 0) >= 1, (kind, report.injected)
    if profile == "corruption":
        assert report.rollbacks >= 1
    else:  # retries absorb the transient faults
        assert report.rollbacks == 0
    if profile == "transient+loss":
        assert report.device_losses == 1
        assert report.surviving_devices == report.devices - 1
    else:
        assert report.device_losses == 0
        assert report.surviving_devices == report.devices


def test_corruption_profile_actually_rolls_back():
    report = run_chaos("poisson", profile="corruption", events=20, seed=1234)
    assert report.faults["injected"]["corrupt"] > 0
    assert report.rollbacks > 0
    assert report.match
    # the row's cap bounds the replay cascade, and a row that does not
    # tamper restores every rollback from the newest generation
    assert report.injected["corrupt"] <= 20 + 3
    assert report.tampers == 0 and report.checkpoints["fallbacks"] == 0


def test_same_seed_reproduces_the_same_fault_history():
    a = run_chaos("poisson", profile="transient", seed=7)
    b = run_chaos("poisson", profile="transient", seed=7)
    assert a.faults == b.faults
    assert a.rollbacks == b.rollbacks
    assert a.max_abs_error == b.max_abs_error


def test_corruption_without_recovery_is_never_silent():
    # with rollback disabled (max_rollbacks=0), an injected corruption must
    # surface as a typed error — the run may also happen to dodge every
    # draw, but a wrong silent answer is forbidden
    with pytest.raises(CorruptionDetected):
        run_chaos("poisson", profile="corruption", seed=1234, policy=RecoveryPolicy(max_rollbacks=0))


def test_loss_profile_requires_two_devices():
    # two survivors at least: tuned degradation wants a fleet
    with pytest.raises(ValueError, match="needs >= 2 survivors"):
        run_chaos("poisson", profile="transient+loss", devices=2)


def test_unknown_workload_and_profile_rejected():
    with pytest.raises(KeyError, match="unknown experiment 'nope'; expected one of: lbm, poisson"):
        run_chaos("nope")
    with pytest.raises(KeyError, match="unknown experiment 'cg'"):
        run_chaos("cg")  # one name per experiment: the CG miniature is `poisson`
    with pytest.raises(ValueError, match="unknown fault profile 'nope'"):
        run_chaos("poisson", profile="nope")


def test_alloc_faults_surface_during_build():
    # allocation faults hit at field-creation time; the driver does not
    # checkpoint-recover builds, so the typed error must propagate
    from repro.system import AllocationError

    spec = chaos_spec("poisson", 3)
    plan = FaultPlan(seed=0, alloc=1.0)
    driver = res.ResilientDriver(resilient_factory(spec), _backend(3), spec.steps, plan=plan)
    with pytest.raises(AllocationError, match="injected"):
        driver.run()


# -- faults inside the recovery actions themselves ----------------------------
def _driven(name, plan, policy, mode="serial", steps=None):
    """(driver, recovered result, fault-free result) of one miniature under ``plan``."""
    spec = chaos_spec(name, 3, mode=mode, steps=steps)
    reference = build(spec, backend=_backend(3))
    reference.run()
    driver = res.ResilientDriver(resilient_factory(spec), _backend(3), spec.steps, policy=policy, plan=plan)
    return driver, driver.run().result_array(), reference.result_array()


@pytest.mark.parametrize("seed", range(1, 8))
def test_a_fault_that_exhausts_a_recovery_action_costs_one_more_rollback(seed):
    """Seeds 1, 5, 6 exhaust a copy inside the factory's eager halo sync,
    seeds 2, 3, 4, 7 inside a rollback's restore (its halo refresh): the
    build / restore is retried under advanced draw counters and the job
    finishes bitwise, instead of dying with most of its budget unspent."""
    plan = FaultPlan(seed, launch=0.25, copy=0.25)
    policy = RecoveryPolicy(checkpoint_interval=2, max_rollbacks=1000, max_attempts=2)
    driver, got, want = _driven("poisson", plan, policy, steps=4)
    assert np.array_equal(got, want)
    assert 2 < driver.rollbacks <= 1000

    none = RecoveryPolicy(checkpoint_interval=2, max_rollbacks=0, max_attempts=2)
    with pytest.raises(res.FaultExhausted):
        _driven("poisson", FaultPlan(seed, launch=0.25, copy=0.25), none, steps=4)


# -- recovery under the parallel engine ---------------------------------------
# corruption NaNs flow through CG's dot-product partials until the guardrail
# rolls the step back: expected injection, as in the chaos soak
@pytest.mark.filterwarnings("ignore:invalid value encountered in reduce:RuntimeWarning")
@pytest.mark.parametrize("name, copy", [("poisson", 0.03), ("lbm", 0.01)])
def test_harsh_plan_recovers_bitwise_when_worker_faults_abort_parallel_batches(name, copy, monkeypatch):
    """A fault that exhausts its retries inside an engine worker aborts the
    batch and re-raises on the host; the driver rolls back from there and
    the recovered result is the fault-free one, bit for bit."""
    aborted = []
    execute = ParallelEngine.execute

    def counting(self, *args, **kwargs):
        try:
            return execute(self, *args, **kwargs)
        except res.ResilienceError:
            aborted.append(1)
            raise

    monkeypatch.setattr(ParallelEngine, "execute", counting)
    policy = RecoveryPolicy(checkpoint_interval=2, max_rollbacks=400, max_attempts=3)
    for seed in (1, 2, 3):
        plan = FaultPlan(seed, launch=0.2, copy=copy, corrupt=0.005)
        _driver, got, want = _driven(name, plan, policy, mode="parallel")
        assert np.array_equal(got, want), f"{name} seed {seed}"
    assert aborted, "no batch aborted: the plan is not harsh enough to test anything"
