"""Bounded retry of transient faults: absorption, exhaustion, no waiting."""

import sys
import time

import numpy as np
import pytest

from repro import observability as obs
from repro import resilience as res
from repro.resilience import (
    FaultExhausted,
    FaultPlan,
    LaunchFault,
    RecoveryPolicy,
    TransientFault,
    run_with_retry,
)
from repro.skeleton import Skeleton
from tests.resilience.test_injection_sites import build, make_increment


def test_success_without_faults_is_one_attempt():
    attempt = run_with_retry(lambda: None, "launch", "s", 4, None)
    assert attempt == 1


def test_injected_transients_are_absorbed():
    # inject exactly 2 faults, then the plan runs dry
    plan = FaultPlan(seed=0, launch=1.0, max_injections={"launch": 2})
    ran = []
    attempt = run_with_retry(lambda: ran.append(1), "launch", "s", 4, plan)
    assert attempt == 3
    assert ran == [1]  # the command itself ran exactly once


def test_exhaustion_raises_typed_error_with_context():
    plan = FaultPlan(seed=0, launch=1.0)
    with pytest.raises(FaultExhausted) as exc_info:
        run_with_retry(lambda: None, "launch", "s", 3, plan)
    err = exc_info.value
    assert err.kind == "launch"
    assert err.site == "s"
    assert err.attempts == 3
    assert isinstance(err.__cause__, TransientFault)


def test_fn_raised_transients_also_retry():
    fails = iter([True, True, False])

    def flaky():
        if next(fails):
            raise LaunchFault("s", 0)

    attempt = run_with_retry(flaky, "launch", "s", 4, None)
    assert attempt == 3


def test_non_transient_errors_propagate_untouched():
    def broken():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        run_with_retry(broken, "launch", "s", 4, None)


def test_retry_metrics_recorded():
    obs.reset()
    obs.enable()
    try:
        plan = FaultPlan(seed=0, launch=1.0, max_injections={"launch": 2})
        run_with_retry(lambda: None, "launch", "s", 4, plan)
        m = obs.OBS.metrics
        assert m.total("faults_injected") == 2
        assert m.total("retries") == 2
    finally:
        obs.reset()


def test_invalid_policy_rejected():
    with pytest.raises(ValueError, match="max_attempts"):
        RecoveryPolicy(max_attempts=0)


def test_retries_never_sleep(monkeypatch):
    """A seeded plan forces launch and copy retries; none of them waits,
    since waiting cannot clear a fault the plan itself raised, and the
    result is the fault-free one."""
    real_sleep = time.sleep
    slept = []

    def refuse(seconds):
        raise AssertionError(f"a retry slept {seconds} s")

    def watch(frame, event, arg):  # also sees a sleep bound before the patch
        if event == "c_call" and arg is real_sleep:
            slept.append(frame.f_code.co_name)

    monkeypatch.setattr(time, "sleep", refuse)
    backend, grid, u = build()
    sk = Skeleton(backend, [make_increment(grid, u)], name="patient")
    plan = FaultPlan(seed=3, launch=0.3, copy=0.3)
    sys.setprofile(watch)
    try:
        with res.session(backend, plan, RecoveryPolicy(max_attempts=6)):
            for _ in range(6):
                sk.run()
                u.sync_halo_now()
    finally:
        sys.setprofile(None)
    assert plan.injected("launch") > 0 and plan.injected("copy") > 0
    assert not slept, f"retries slept in {slept}"
    assert np.all(u.to_numpy() == 6.0)
