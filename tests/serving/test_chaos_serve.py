"""Seeded chaos soak for the gateway: a device dies mid-serve.

A victim tenant's job is routed through the resilience layer under a
seeded :class:`~repro.resilience.FaultPlan` (transient launch/copy faults,
and a loss that kills the highest rank after a fixed command count),
while other tenants keep serving plain jobs from warm programs.  The bar: the in-flight job recovers per
its :class:`RecoveryPolicy` (rollback-and-replay, degradation onto the
survivors), and the *other* tenants' latency histograms stay populated
— one tenant's faults are not another tenant's outage.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import observability as obs
from repro import resilience as res
from repro.serving import Gateway, JobFailed, JobSpec

POISSON = JobSpec.make("poisson", (8, 6, 6), 3, devices=2)
#: a 12^3 cavity, 16 steps, so the loss trigger fires mid-run; a fault
#: job runs its spec
VICTIM = JobSpec.make("lbm", (12, 12, 12), 16, devices=3)
#: the victim on one device: a loss leaves no survivor to degrade onto
LONE = JobSpec.make("lbm", (12, 12, 12), 16, devices=1)

SEED = 1234


def transient(seed=SEED):
    return res.FaultPlan(seed, launch=0.05, copy=0.05)


def transient_and_loss():
    """Transient faults, and the victim's top rank dies after 350 commands."""
    return res.FaultPlan(SEED, launch=0.05, copy=0.05, device_loss={VICTIM.devices - 1: 350})


def test_device_loss_mid_serve_recovers_and_other_tenants_keep_serving():
    policy = res.RecoveryPolicy(checkpoint_interval=4)
    with Gateway(workers=2) as gw:
        before = [gw.submit("steady", POISSON) for _ in range(2)]
        victim = gw.submit(
            "victim", VICTIM, faults=transient_and_loss(), policy=policy
        )
        after = [gw.submit("steady", POISSON) for _ in range(2)]
        results = [j.result(timeout=600) for j in before + after]
        vr = victim.result(timeout=600)

    # the device loss actually fired and recovery degraded onto survivors
    assert vr.devices_lost >= 1
    assert vr.fingerprints["f"].shape[-3:] == (12, 12, 12)
    assert np.isfinite(vr.fingerprints["f"]).all()
    assert obs.OBS.metrics.total("devices_lost") >= 1
    assert obs.OBS.metrics.total("faults_injected") >= 1

    # steady tenant: every job fine, warm hits after the first
    assert sum(r.cache_hit for r in results) >= 3
    for r in results[1:]:
        assert np.array_equal(
            r.fingerprints["solution"], results[0].fingerprints["solution"]
        )

    # per-tenant latency histograms populated on both sides of the fault
    summaries = {
        s["labels"]["tenant"]: s
        for s in obs.OBS.metrics.histogram_summaries("serve_job_seconds")
    }
    assert summaries["steady"]["count"] == 4
    assert summaries["victim"]["count"] == 1
    assert summaries["steady"]["p99"] > 0


def test_seeded_chaos_is_reproducible():
    """Same seed, same fault trajectory: recovery counters match."""
    policy = res.RecoveryPolicy(checkpoint_interval=4)
    runs = []
    for _ in range(2):
        with Gateway(workers=1) as gw:
            job = gw.submit(
                "v", VICTIM, faults=transient_and_loss(), policy=policy
            )
            runs.append(job.result(timeout=600))
    assert runs[0].devices_lost == runs[1].devices_lost
    assert runs[0].rollbacks == runs[1].rollbacks
    assert np.array_equal(runs[0].fingerprints["f"], runs[1].fingerprints["f"])


def test_transient_faults_retry_per_policy_and_surface_budget_exhaustion():
    # a generous retry budget recovers the transient profile outright
    with Gateway(workers=1) as gw:
        ok = gw.submit(
            "v",
            JobSpec.make("poisson", (16, 16, 16), 20, devices=2),
            faults=transient(7),
            policy=res.RecoveryPolicy(checkpoint_interval=8),
        ).result(timeout=600)
    assert ok.devices_lost == 0
    assert np.isfinite(ok.fingerprints["solution"]).all()
    assert obs.OBS.metrics.total("retries") >= 0  # retry path exists under obs

    # a fleet that runs out of devices fails *typed* when its last one
    # dies, and the failure is contained to its handle
    with Gateway(workers=1) as gw:
        doomed = gw.submit(
            "v",
            LONE,
            faults=res.FaultPlan(SEED, launch=0.05, copy=0.05, device_loss={0: 10}),
            policy=res.RecoveryPolicy(checkpoint_interval=4),
        )
        bystander = gw.submit("steady", POISSON)
        with pytest.raises(JobFailed) as exc_info:
            doomed.result(timeout=600)
        assert isinstance(exc_info.value.__cause__, res.ResilienceError)
        assert bystander.result(timeout=600).fingerprints["solution"].shape == (8, 6, 6)
    assert gw.stats()["failed"] == 1 and gw.stats()["done"] == 1


def test_fault_profile_job_solves_the_spec_it_was_submitted_with():
    """A fault job is the plain job plus recovery: same problem (shape,
    params, occ), same fingerprint keys, and — transient faults absorbed
    by a generous retry budget, Krylov-state checkpoints — the same bits."""
    specs = [
        JobSpec.make("lbm", (10, 6, 6), 6, devices=2, occ="extended", omega=1.2, lid_velocity=0.07),
        JobSpec.make("poisson", (8, 6, 6), 4, devices=2, rhs="ones"),
    ]
    policy = res.RecoveryPolicy(max_attempts=12, checkpoint_interval=2)
    with Gateway(workers=1) as gw:
        for spec in specs:
            plain = gw.submit("plain", spec).result(timeout=600)
            faulted = gw.submit(
                "victim", spec, faults=transient(), policy=policy
            ).result(timeout=600)
            assert set(faulted.fingerprints) == set(plain.fingerprints)
            for key, want in plain.fingerprints.items():
                assert np.array_equal(faulted.fingerprints[key], want), f"{spec.experiment}/{key}"
    assert obs.OBS.metrics.total("faults_injected") >= 1


def test_any_experiment_takes_a_fault_plan():
    """A fault job is not limited to the chaos miniatures: a Kármán job
    under transient faults returns the plain job's fingerprints bitwise."""
    spec = JobSpec.make("karman", (16, 24), 6, devices=2)
    with Gateway(workers=1) as gw:
        plain = gw.submit("plain", spec).result(timeout=600)
        faulted = gw.submit("victim", spec, faults=(plan := transient(7))).result(timeout=600)
    assert plan.injected() >= 1
    assert set(faulted.fingerprints) == set(plain.fingerprints)
    for key, want in plain.fingerprints.items():
        assert np.array_equal(faulted.fingerprints[key], want), key


# -- fault jobs overlap plain jobs: no lock, no leak --------------------------
def test_fault_job_completes_while_a_plain_job_is_parked_mid_flight():
    """Nothing makes a fault job wait for the other workers to drain: with
    one worker parked inside a plain job, the fault job on the second
    worker runs to completion."""
    from tests.serving.test_gateway import entry_lock, wait_until_picked

    policy = res.RecoveryPolicy(checkpoint_interval=4)
    with Gateway(workers=2) as gw:
        with entry_lock(gw, POISSON):
            parked = gw.submit("steady", POISSON)
            wait_until_picked(gw)  # a worker holds it, stalled on the lock
            victim = gw.submit(
                "victim", VICTIM, faults=transient_and_loss(), policy=policy
            )
            assert victim.result(timeout=120).devices_lost >= 1
            assert not parked.done()
        assert parked.result(timeout=120).fingerprints["solution"].shape == (8, 6, 6)


def test_plain_jobs_of_the_same_spec_run_untouched_beside_an_armed_fault_job():
    """A fault job armed at rate 1.0 is held mid-flight — session armed, first
    launch undecided — while plain jobs of the *same spec* go through the
    other worker: they finish bitwise on their direct run without one draw
    from the plan, then the fault job fails typed, alone."""
    from repro.serving import build_served

    app = build_served(POISSON)
    direct = app.run()
    app.close()

    reached, release = threading.Event(), threading.Event()

    class HeldPlan(res.FaultPlan):
        def decide(self, kind, site):
            reached.set()
            assert release.wait(120), "the test never released the fault job"
            return super().decide(kind, site)

    plan = HeldPlan(SEED, launch=1.0)
    once = res.RecoveryPolicy(max_attempts=1, max_rollbacks=0)
    with Gateway(workers=2) as gw:
        doomed = gw.submit("victim", POISSON, faults=plan, policy=once)
        assert reached.wait(120), "the fault job never reached an injection site"
        try:
            plain = [gw.submit("steady", POISSON).result(timeout=120) for _ in range(3)]
            assert not doomed.done() and not plan._draws  # nobody else consulted the plan
        finally:
            release.set()
        with pytest.raises(JobFailed) as exc_info:
            doomed.result(timeout=120)
    assert isinstance(exc_info.value.__cause__, res.FaultExhausted)
    assert plan.injected() == 1
    for r in plain:
        for key, want in direct.items():
            assert np.array_equal(r.fingerprints[key], want), key
    assert gw.stats()["done"] == 3 and gw.stats()["failed"] == 1
