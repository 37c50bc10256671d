"""Gateway behaviour: admission, fairness, batching, warm-path latency.

The concurrency stress here is the satellite the issue names: many
threads submitting mixed lbm/poisson jobs against one warm runtime,
with the bar being *no deadlock, fair completion per tenant, the
queue-depth gauge back at zero*.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import observability as obs
from repro.serving import (
    AdmissionRejected,
    Gateway,
    GatewayClosed,
    JobSpec,
    PlanCache,
    plan_key,
)
from repro.serving.gateway import JobResult

LBM = JobSpec.make("lbm", (8, 6, 6), 2, devices=2, omega=1.1)
POISSON = JobSpec.make("poisson", (8, 6, 6), 3, devices=2)


def entry_lock(gw: Gateway, spec: JobSpec):
    """The plan-cache lock of ``spec``'s warm program: while the test holds
    it, a worker that picked a plain job of that spec is parked mid-job."""
    return gw.cache.store(plan_key(spec, gw.machine_factory(spec.devices).name)).lock


def wait_until_picked(gw: Gateway) -> None:
    """Return once the workers have taken every queued job (bounded wait)."""
    for _ in range(500):
        if gw.stats()["pending"] == 0:
            return
        threading.Event().wait(0.01)


def _gauge_value(name: str) -> float:
    series = obs.OBS.metrics.series(name)
    return sum(s.value for s in series)


# -- basics -------------------------------------------------------------------
def test_warm_replay_is_bitwise_identical_and_skips_compile():
    with Gateway(workers=1) as gw:
        cold = gw.submit("a", POISSON).result(timeout=300)
        before = sum(1 for s in obs.tracer().spans if s.cat == "compile")
        warm = gw.submit("a", POISSON).result(timeout=300)
        after = sum(1 for s in obs.tracer().spans if s.cat == "compile")
    assert not cold.cache_hit and warm.cache_hit
    # the acceptance bar: a warm job compiles *nothing*
    assert after - before == 0
    for key in cold.fingerprints:
        assert np.array_equal(cold.fingerprints[key], warm.fingerprints[key])


def test_warm_latency_beats_cold_by_4x():
    """Bench-style miniature: warm-start < 25% of cold-start wall.

    Cold must mean *per-key compile*, not process warm-up: the first
    LBM job in a process also pays the one-time C-codegen cache, which
    would flatter the ratio, so a throwaway job pays it first.  An
    8-way graph keeps the compile phase tens of milliseconds — large
    against scheduler jitter — and both sides take the min of several
    samples (fresh gateway per cold sample, so each one recompiles).
    Measured with observability off (the suite fixture enables it):
    per-span tracing taxes the warm replay far more than the compile,
    and the production default this bar describes is tracing-off.
    """
    obs.disable()  # the autouse fixture's obs.reset() restores state
    big = JobSpec.make("lbm", (16, 12, 12), 2, devices=8, omega=1.1)
    with Gateway(workers=1) as gw:
        gw.submit("w", LBM).result(timeout=300)  # one-time codegen cost

    ratios = []
    for _ in range(3):
        with Gateway(workers=1) as gw:
            cold = gw.submit("a", big).result(timeout=300).seconds
            warm = min(
                gw.submit("a", big).result(timeout=300).seconds for _ in range(4)
            )
        ratios.append(warm / cold)
        if ratios[-1] < 0.25:
            return
    pytest.fail(f"warm/cold ratios never beat 0.25: {ratios}")


def test_unknown_experiment_raises():
    with pytest.raises(KeyError, match="unknown experiment 'navier'"):
        JobSpec.make("navier", (8,), 2)


def test_submit_after_close_raises():
    gw = Gateway(workers=1)
    gw.close()
    with pytest.raises(GatewayClosed):
        gw.submit("a", LBM)
    gw.close()  # idempotent


# -- admission control --------------------------------------------------------
def test_bounded_queue_rejects_past_max_queue():
    gw = Gateway(workers=1, max_queue=2)
    try:
        with entry_lock(gw, POISSON):  # stall the worker mid-execute
            first = gw.submit("a", POISSON)
            # the worker has *picked* the first job (pending drained to 0),
            # so the two below are deterministic queue fill
            wait_until_picked(gw)
            queued = [gw.submit("a", POISSON) for _ in range(2)]
            with pytest.raises(AdmissionRejected):
                gw.submit("b", POISSON)
            assert gw.rejected == 1
            assert obs.OBS.metrics.total("serve_rejected") == 1
        for job in [first, *queued]:
            job.result(timeout=300)
    finally:
        gw.close()
    assert _gauge_value("serve_queue_depth") == 0


# -- fairness + batching ------------------------------------------------------
def test_fair_scheduling_interleaves_tenants():
    """With vtime fairness, a second tenant is served before the first
    tenant's backlog — submission order is not completion order."""
    gw = Gateway(workers=1, batch_limit=1)  # batch_limit=1: pure fairness
    try:
        with entry_lock(gw, POISSON):  # hold the worker so the queue pre-fills
            a_jobs = [gw.submit("a", POISSON) for _ in range(4)]
            b_jobs = [gw.submit("b", POISSON) for _ in range(4)]
        results_a = [j.result(timeout=300) for j in a_jobs]
        results_b = [j.result(timeout=300) for j in b_jobs]
    finally:
        gw.close()
    start = lambda r: r.queue_wait_seconds  # noqa: E731 - same submit burst, wait == start order
    # tenant b's first job ran before tenant a's backlog finished
    assert min(start(r) for r in results_b) < max(start(r) for r in results_a)
    stats = gw.stats()
    assert stats["done"] == 8 and stats["failed"] == 0
    # both tenants were charged service time
    assert stats["tenants"]["a"] > 0 and stats["tenants"]["b"] > 0


def test_batching_joins_same_key_jobs():
    gw = Gateway(workers=1, batch_limit=4)
    try:
        with entry_lock(gw, LBM):
            jobs = [gw.submit("a", LBM) for _ in range(5)]
        results = [j.result(timeout=300) for j in jobs]
    finally:
        gw.close()
    assert gw.batch_joins > 0
    assert any(r.batched for r in results)
    # batching never changes the numbers
    for r in results[1:]:
        assert np.array_equal(r.fingerprints["f"], results[0].fingerprints["f"])


# -- the concurrency stress ---------------------------------------------------
def _stress(gw: Gateway, threads: int, per_thread: int) -> dict[str, list]:
    specs = [LBM, POISSON]
    failures: list = []
    done: dict[str, list] = {f"t{i}": [] for i in range(threads)}

    def submitter(tenant: str, idx: int):
        try:
            handles = [
                gw.submit(tenant, specs[(idx + n) % len(specs)]) for n in range(per_thread)
            ]
            done[tenant] = [h.result(timeout=600) for h in handles]
        except Exception as exc:  # noqa: BLE001 - surfaced via the failures list
            failures.append((tenant, exc))

    workers = [
        threading.Thread(target=submitter, args=(f"t{i}", i)) for i in range(threads)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=600)
        assert not t.is_alive(), "stress submitter deadlocked"
    assert not failures, failures
    return done


def test_concurrent_mixed_tenants_no_deadlock_and_fair_completion():
    gw = Gateway(workers=3, max_queue=256)
    try:
        done = _stress(gw, threads=4, per_thread=5)
    finally:
        gw.close()
    # every tenant completed every job — nobody was starved
    assert all(len(rs) == 5 for rs in done.values())
    assert gw.stats()["done"] == 20 and gw.stats()["failed"] == 0
    assert _gauge_value("serve_queue_depth") == 0
    assert _gauge_value("serve_inflight") == 0
    # per-tenant latency histograms populated for report p50/p90/p99
    tenants = {
        s["labels"]["tenant"] for s in obs.OBS.metrics.histogram_summaries("serve_job_seconds")
    }
    assert tenants == set(done)
    # identical jobs produced identical fingerprints across tenants
    lbm_results = [r for rs in done.values() for r in rs if r.spec == LBM]
    for r in lbm_results[1:]:
        assert np.array_equal(r.fingerprints["f"], lbm_results[0].fingerprints["f"])


def test_dead_mode_is_refused_at_admission():
    """A spec naming a deleted mode cannot be built, let alone queued."""
    import dataclasses

    with pytest.raises(ValueError, match=r"'process'.*\('serial', 'parallel'\)"):
        JobSpec.make("lbm", (8, 6, 6), 2, devices=2, mode="process", omega=1.1)
    with pytest.raises(ValueError, match="unknown execution mode"):
        dataclasses.replace(LBM, mode="process")


# -- unfused jobs -------------------------------------------------------------
def test_unfused_and_fused_jobs_run_concurrently_on_their_own_plans():
    """``fused`` is pinned on the job's plans, not flipped process-wide: an
    unfused job shares the gateway with a fused one and neither leaks into
    the other's program freeze."""
    from repro.serving import build_served

    unfused = JobSpec.make("lbm", (8, 6, 6), 2, devices=2, fused=False, omega=1.1)
    direct = {}
    for spec in (LBM, unfused):
        app = build_served(spec)
        try:
            direct[spec] = app.run()["f"]
        finally:
            app.close()
    with Gateway(workers=2) as gw:
        # several of each in flight at once, so the two workers overlap them
        jobs = [gw.submit(tenant, spec) for _ in range(3) for tenant, spec in (("a", LBM), ("b", unfused))]
        results = [job.result(timeout=300) for job in jobs]
        ratios = {
            spec: [sk.plan._ensure_program().stats.fusion_ratio for sk in gw.cache.peek(job.key).program.skeletons]
            for job, spec in zip(jobs[:2], (LBM, unfused))
        }
    for r in results:
        assert np.array_equal(r.fingerprints["f"], direct[r.spec])
    # fusion is dispatch-only: the numbers are identical either way
    assert np.array_equal(direct[LBM], direct[unfused])
    assert all(ratio > 1 for ratio in ratios[LBM])
    assert all(ratio == 1 for ratio in ratios[unfused])
    assert any(r.cache_hit for r in results if r.spec == unfused)  # its own cache key


def test_gateway_shares_cache_and_estimates_order_admission(tmp_path):
    cache = PlanCache(root=tmp_path)
    with Gateway(cache=cache, workers=1) as gw:
        gw.submit("a", POISSON).result(timeout=300)
    # the estimate was persisted; a new gateway's submit picks it up
    with Gateway(cache=PlanCache(root=tmp_path), workers=1) as gw2:
        job = gw2.submit("a", POISSON)
        assert job.estimate > 0.0  # DES estimate, read back from disk
        job.result(timeout=300)


def test_job_counters_lose_no_update_under_contention(monkeypatch):
    """``done`` / ``failed`` are bumped by every worker: with jobs reduced to
    nothing and the interpreter switching threads as often as it can, a
    read-modify-write outside the gateway's lock would drop increments."""
    import sys

    def instant(self, job, queue_wait):
        if job.tenant == "bad":
            raise RuntimeError("boom")
        return JobResult(job.tenant, job.spec, {}, 0.0, queue_wait, cache_hit=True)

    monkeypatch.setattr(Gateway, "_run_cached", instant)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Gateway(workers=8, max_queue=4096) as gw:
            jobs = [gw.submit("bad" if n % 3 == 0 else "ok", POISSON) for n in range(3000)]
            for job in jobs:
                assert job._done.wait(120), "a job never resolved"
            stats = gw.stats()
    finally:
        sys.setswitchinterval(interval)
    assert (stats["done"], stats["failed"]) == (2000, 1000)


# -- what a warm submit computes ------------------------------------------------
def test_warm_resubmits_build_no_machine_and_hash_no_key(monkeypatch):
    """A spec's plan key is built and hashed once: warm re-submits of it
    call neither the machine factory nor ``PlanKey.to_json``, and the
    spec -> key map never outgrows the cache's ``max_programs``."""
    from repro.serving import PlanKey
    from repro.sim import dgx_a100

    machines, dumps = [], []
    to_json = PlanKey.to_json

    def counting_machine(devices):
        machines.append(devices)
        return dgx_a100(devices)

    def counting_to_json(self):
        dumps.append(self)
        return to_json(self)

    monkeypatch.setattr(PlanKey, "to_json", counting_to_json)
    with Gateway(cache=PlanCache(max_programs=2), machine_factory=counting_machine, workers=1) as gw:
        cold = gw.submit("a", LBM).result(timeout=300)
        assert machines and dumps  # the cold job keyed and built its program
        machines.clear()
        dumps.clear()
        warm = [gw.submit("a", LBM).result(timeout=300) for _ in range(3)]
        assert (machines, dumps) == ([], [])
        assert all(r.cache_hit for r in warm)
        assert all(np.array_equal(r.fingerprints["f"], cold.fingerprints["f"]) for r in warm)

        specs = [JobSpec.make("lbm", (8, 6, 6), steps, devices=2, omega=1.1) for steps in range(3, 8)]
        for spec in specs:
            gw.submit("a", spec).result(timeout=300)
            assert gw._plan_key.cache_info().currsize <= gw.cache.max_programs
        machines.clear()
        gw.submit("a", specs[-1]).result(timeout=300)  # still mapped
        assert machines == []
        gw.submit("a", specs[0]).result(timeout=300)  # dropped: keyed (and built) again
        assert machines == [2, 2]
