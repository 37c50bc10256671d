"""The fault matrix: every fault class either recovers or raises typed.

Runs the miniature Poisson-CG and LBM pipelines under each seeded fault
profile and asserts the end-to-end guarantee: the recovered result
matches the fault-free run (within solver tolerance), the recovered
schedule proves its dependencies, and recovery genuinely fired — faults
were injected, retries absorbed them, losses degraded the backend.
Silent corruption is the one outcome that must be impossible.
"""

import numpy as np
import pytest

from repro import resilience as res
from repro.bench.faulted import PROFILES, WORKLOADS, _backend, make_plan, run_faulted
from repro.resilience import CorruptionDetected, FaultPlan, RecoveryPolicy, RetryPolicy
from repro.system import ParallelEngine
from repro.workloads import build, resilient_factory


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fault_matrix_recovers_and_matches(name, profile):
    report = run_faulted(name, profile=profile)
    assert report.match, f"recovered result diverged: max |err| = {report.max_abs_error:.3e}"
    assert report.violations == 0
    if profile in ("transient", "transient+loss"):
        assert report.faults["injected"]["launch"] + report.faults["injected"]["copy"] > 0
    if profile == "transient+loss":
        assert report.devices_lost == 1
        assert report.surviving_devices == report.devices - 1
    else:
        assert report.devices_lost == 0
        assert report.surviving_devices == report.devices


def test_corruption_profile_actually_rolls_back():
    # seed chosen so the CG miniature takes corruption hits
    report = run_faulted("poisson", profile="corruption", seed=1234)
    assert report.faults["injected"]["corrupt"] > 0
    assert report.rollbacks > 0
    assert report.match


def test_same_seed_reproduces_the_same_fault_history():
    a = run_faulted("poisson", profile="transient", seed=7)
    b = run_faulted("poisson", profile="transient", seed=7)
    assert a.faults == b.faults
    assert a.rollbacks == b.rollbacks
    assert a.max_abs_error == b.max_abs_error


def test_corruption_without_recovery_is_never_silent():
    # with rollback disabled ("raise"), an injected corruption must surface
    # as a typed error — the run may also happen to dodge every draw, but a
    # wrong silent answer is forbidden
    wl = WORKLOADS["poisson"]
    plan = make_plan(wl, "corruption", seed=1234, devices=3)
    policy = RecoveryPolicy(divergence="raise")
    driver = res.ResilientDriver(
        resilient_factory(wl.spec(3)), _backend(3), wl.steps, policy=policy, plan=plan
    )
    with pytest.raises(CorruptionDetected):
        driver.run()
    assert plan.injected("corrupt") > 0


def test_loss_profile_requires_two_devices():
    with pytest.raises(ValueError, match="at least 2"):
        make_plan(WORKLOADS["poisson"], "transient+loss", seed=0, devices=1)


def test_unknown_workload_and_profile_rejected():
    with pytest.raises(KeyError, match="unknown experiment 'nope'; expected one of: poisson, lbm"):
        run_faulted("nope")
    with pytest.raises(KeyError, match="unknown experiment 'cg'"):
        run_faulted("cg")  # one name per experiment: the CG miniature is `poisson`
    with pytest.raises(KeyError, match="unknown fault profile"):
        make_plan(WORKLOADS["poisson"], "nope", seed=0, devices=3)


def test_alloc_faults_surface_during_build():
    # allocation faults hit at field-creation time; the driver does not
    # checkpoint-recover builds, so the typed error must propagate
    from repro.system import AllocationError

    wl = WORKLOADS["poisson"]
    plan = FaultPlan(seed=0, alloc=1.0)
    driver = res.ResilientDriver(resilient_factory(wl.spec(3)), _backend(3), wl.steps, plan=plan)
    with pytest.raises(AllocationError, match="injected"):
        driver.run()


# -- faults inside the recovery actions themselves ----------------------------
def _driven(name, plan, policy, mode="serial", steps=None):
    """(driver, recovered result, fault-free result) of one miniature under ``plan``."""
    wl = WORKLOADS[name]
    spec = wl.spec(3, mode=mode, steps=steps)
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
    retry = RetryPolicy(max_attempts=2, base_delay=0.0)
    policy = RecoveryPolicy(checkpoint_interval=2, max_rollbacks=1000, retry=retry)
    driver, got, want = _driven("poisson", plan, policy, steps=4)
    assert np.array_equal(got, want)
    assert 2 < driver.rollbacks <= 1000

    none = RecoveryPolicy(checkpoint_interval=2, max_rollbacks=0, retry=retry)
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
    policy = RecoveryPolicy(
        checkpoint_interval=2, max_rollbacks=400, retry=RetryPolicy(max_attempts=3, base_delay=0.0)
    )
    for seed in (1, 2, 3):
        plan = FaultPlan(seed, launch=0.2, copy=copy, corrupt=0.005)
        _driver, got, want = _driven(name, plan, policy, mode="parallel")
        assert np.array_equal(got, want), f"{name} seed {seed}"
    assert aborted, "no batch aborted: the plan is not harsh enough to test anything"
