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
from repro.resilience import CorruptionDetected, FaultPlan, RecoveryPolicy
from repro.workloads import resilient_factory


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
    with res.session(plan, policy):
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
    with res.session(plan):
        with pytest.raises(AllocationError, match="injected"):
            driver.run()
