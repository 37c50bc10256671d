"""The persistent plan cache: keys, persistence, LRU, metrics.

The property tests pin the two facts the whole cache rests on: a
:class:`PlanKey` survives its canonical JSON form exactly (so the same
configuration always lands on the same ``<digest>.json``), and distinct
configurations never share a digest (so a cache hit can never hand back
a program compiled for a different workload/machine/occ/mode/weights/
fusion tuple).
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.serving import (
    CACHE_SCHEMA,
    ENV_VAR,
    JobSpec,
    PlanCache,
    PlanCacheError,
    PlanKey,
    plan_key,
    workload_signature,
)
from repro.tuner import TunePlan, tune_workload

# -- strategies ---------------------------------------------------------------
_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="-_[]x=;."),
    min_size=1,
    max_size=24,
)
_weights = st.one_of(
    st.none(),
    st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=1, max_size=8
    ).map(tuple),
)


def _keys():
    return st.builds(
        PlanKey,
        workload=_names,
        machine=_names,
        devices=st.integers(min_value=1, max_value=16),
        occ=st.sampled_from(["none", "standard", "extended", "two-way-extended"]),
        mode=st.sampled_from(["serial", "parallel"]),
        weights=_weights,
        fused=st.booleans(),
    )


@settings(max_examples=120, deadline=None)
@given(_keys())
def test_key_round_trips_through_json(key):
    assert PlanKey.from_dict(json.loads(key.to_json())) == key
    assert PlanKey.from_dict(json.loads(json.dumps(key.to_dict()))) == key
    # the canonical form is stable, so the digest is too
    assert PlanKey.from_dict(json.loads(key.to_json())).digest == key.digest


@settings(max_examples=120, deadline=None)
@given(_keys(), _keys())
def test_distinct_keys_never_collide(a, b):
    if a == b:
        assert a.digest == b.digest
    else:
        assert a.digest != b.digest


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["lbm", "karman", "poisson", "elasticity"]),
    st.lists(st.integers(min_value=2, max_value=32), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
)
def test_workload_signature_round_trips_and_separates(exp, shape, steps, omega):
    spec = JobSpec.make(exp, shape, steps, omega=omega)
    # the signature ignores configuration axes ...
    for mode in ("serial", "parallel"):
        other = JobSpec.make(exp, shape, steps, mode=mode, occ="extended", omega=omega)
        assert workload_signature(other) == workload_signature(spec)
    # ... but any workload-identity change separates it
    bumped = JobSpec.make(exp, shape, steps + 1, omega=omega)
    assert workload_signature(bumped) != workload_signature(spec)
    # and the derived plan keys stay JSON-stable
    key = plan_key(spec, "dgx-a100-2")
    assert PlanKey.from_dict(json.loads(key.to_json())) == key


def test_tuning_key_cannot_collide_with_real_configs():
    spec = JobSpec.make("lbm", (8, 6, 6), 4)
    key = plan_key(spec, "dgx-a100-2")
    tkey = key.tuning_key()
    assert tkey != key and tkey.digest != key.digest
    # idempotent: the tuning key of a tuning key is itself
    assert tkey.tuning_key() == tkey


# -- persistence --------------------------------------------------------------
def _plan(machine="dgx-a100-2", devices=2) -> TunePlan:
    from repro.sim import dgx_a100

    return tune_workload("poisson", dgx_a100(devices), devices=devices)


def test_tune_plan_persists_across_cache_instances(tmp_path):
    key = plan_key(JobSpec.make("poisson", (8, 6, 6), 5), "dgx-a100-2").tuning_key()
    plan = _plan()
    first = PlanCache(root=tmp_path)
    first.store(key, tune_plan=plan, estimate_seconds=0.25)
    assert first.persisted_writes == 1

    fresh = PlanCache(root=tmp_path)
    entry = fresh.lookup(key)
    assert entry is not None and fresh.persisted_loads == 1
    assert entry.estimate_seconds == 0.25
    assert entry.tune_plan.to_dict() == plan.to_dict()
    # the round-trip is exact, including the derived properties
    assert entry.tune_plan.improvement == plan.improvement
    assert entry.tune_plan.best == plan.best


def test_env_var_configures_the_root(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    cache = PlanCache()
    assert cache.root == tmp_path
    key = plan_key(JobSpec.make("lbm", (8, 6, 6), 3), "dgx-a100-2")
    cache.store(key, estimate_seconds=1.5)
    assert (tmp_path / f"{key.digest}.json").exists()
    monkeypatch.delenv(ENV_VAR)
    assert PlanCache().root is None


def test_corrupt_and_alien_entries_raise_typed_errors(tmp_path):
    cache = PlanCache(root=tmp_path)
    key = plan_key(JobSpec.make("lbm", (8, 6, 6), 3), "dgx-a100-2")
    path = tmp_path / f"{key.digest}.json"

    path.write_text("{ not json")
    with pytest.raises(PlanCacheError, match="corrupt"):
        cache.lookup(key)

    path.write_text(json.dumps({"schema": "repro-plancache/99", "key": key.to_dict()}))
    with pytest.raises(PlanCacheError, match="unknown plan-cache schema"):
        cache.lookup(key)

    other = plan_key(JobSpec.make("lbm", (8, 6, 6), 4), "dgx-a100-2")
    path.write_text(
        json.dumps({"schema": CACHE_SCHEMA, "key": other.to_dict(), "estimate_seconds": 1.0})
    )
    with pytest.raises(PlanCacheError, match="key mismatch"):
        cache.lookup(key)


def test_entries_naming_a_deleted_mode_raise_typed_errors(tmp_path):
    """An old REPRO_PLAN_CACHE root may still say mode="process": the load
    fails typed, nothing with that mode reaches a worker."""
    cache = PlanCache(root=tmp_path)
    key = plan_key(JobSpec.make("lbm", (8, 6, 6), 3), "dgx-a100-2")

    stale_key = dict(key.to_dict(), mode="process")
    (tmp_path / f"{key.digest}.json").write_text(
        json.dumps({"schema": CACHE_SCHEMA, "key": stale_key, "estimate_seconds": 1.0})
    )
    with pytest.raises(PlanCacheError, match="unknown execution mode 'process'"):
        cache.lookup(key)

    tkey = key.tuning_key()
    cand = {"occ": "standard", "mode": "serial", "weights": None, "makespan": 1.0}
    plan = {
        "experiment": "lbm",
        "machine": "dgx-a100-2",
        "devices": 2,
        "best": cand,
        "baseline": cand,
        "shares": [0.5, 0.5],
        "candidates": [cand, dict(cand, mode="process", makespan=2.0)],
    }
    (tmp_path / f"{tkey.digest}.json").write_text(
        json.dumps({"schema": CACHE_SCHEMA, "key": tkey.to_dict(), "tune_plan": plan})
    )
    with pytest.raises(PlanCacheError, match="unknown execution mode 'process'"):
        cache.lookup(tkey)
    plan["candidates"].pop()
    (tmp_path / f"{tkey.digest}.json").write_text(
        json.dumps({"schema": CACHE_SCHEMA, "key": tkey.to_dict(), "tune_plan": plan})
    )
    assert cache.lookup(tkey).tune_plan.best.mode == "serial"


def test_entries_carrying_a_stale_fit_quality_still_load(tmp_path):
    """Plans written before online recalibration was removed carry a
    ``fit_quality`` key; the plan and the cache both ignore it."""
    key = plan_key(JobSpec.make("poisson", (8, 6, 6), 5), "dgx-a100-2").tuning_key()
    plan = _plan()
    stale = dict(plan.to_dict(), fit_quality=0.4)
    assert TunePlan.from_dict(stale).to_dict() == plan.to_dict()
    (tmp_path / f"{key.digest}.json").write_text(
        json.dumps({"schema": CACHE_SCHEMA, "key": key.to_dict(), "tune_plan": stale})
    )
    entry = PlanCache(root=tmp_path).lookup(key)
    assert entry.tune_plan.to_dict() == plan.to_dict()


# -- hit/miss/evict bookkeeping ----------------------------------------------
class _FakeProgram:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def test_hit_miss_counters_and_obs_metrics():
    cache = PlanCache()
    key = plan_key(JobSpec.make("lbm", (8, 6, 6), 3), "dgx-a100-2")
    assert cache.lookup(key) is None and cache.misses == 1
    cache.store(key, program=_FakeProgram(), release=lambda p: p.close())
    entry = cache.lookup(key)
    assert entry is not None and cache.hits == 1
    m = obs.OBS.metrics
    assert m.total("plan_cache_misses") == 1
    assert m.total("plan_cache_hits") == 1


def test_peek_does_not_count(tmp_path):
    cache = PlanCache(root=tmp_path)
    key = plan_key(JobSpec.make("lbm", (8, 6, 6), 3), "dgx-a100-2")
    assert cache.peek(key) is None
    cache.store(key, estimate_seconds=2.0)
    entry = cache.peek(key)
    assert entry is not None and entry.estimate_seconds == 2.0
    assert cache.hits == 0 and cache.misses == 0
    # a fresh instance peeks the persisted entry, also uncounted
    fresh = PlanCache(root=tmp_path)
    assert fresh.peek(key).estimate_seconds == 2.0
    assert fresh.hits == 0 and fresh.misses == 0


def test_lru_evicts_oldest_program_and_releases_it():
    cache = PlanCache(max_programs=2)
    keys = [plan_key(JobSpec.make("lbm", (8, 6, 6), s), "dgx-a100-2") for s in (1, 2, 3)]
    programs = [_FakeProgram() for _ in keys]
    for key, prog in zip(keys[:2], programs[:2]):
        cache.store(key, program=prog, release=lambda p: p.close())
    cache.lookup(keys[1])  # make keys[0] the LRU
    cache.store(keys[2], program=programs[2], release=lambda p: p.close())
    assert cache.evictions == 1
    assert programs[0].closed and not programs[1].closed and not programs[2].closed
    # the evicted entry survives program-less (plans/estimates are cheap)
    entry = cache.lookup(keys[0])
    assert entry is not None and entry.program is None
    assert obs.OBS.metrics.total("plan_cache_evictions") == 1


def test_eviction_skips_entries_locked_by_a_running_job():
    cache = PlanCache(max_programs=1)
    k1 = plan_key(JobSpec.make("lbm", (8, 6, 6), 1), "dgx-a100-2")
    k2 = plan_key(JobSpec.make("lbm", (8, 6, 6), 2), "dgx-a100-2")
    p1, p2 = _FakeProgram(), _FakeProgram()
    entry1 = cache.store(k1, program=p1, release=lambda p: p.close())

    # a "job" holds entry1's lock on another thread, as the gateway does
    # while replaying; eviction must not block behind it or tear it down
    holding = threading.Event()
    done = threading.Event()

    def job():
        with entry1.lock:
            holding.set()
            done.wait(10)

    t = threading.Thread(target=job)
    t.start()
    assert holding.wait(10)
    try:
        cache.store(k2, program=p2, release=lambda p: p.close())
        assert cache.evictions == 1
        assert entry1.program is None  # evicted from the cache's view ...
        assert not p1.closed  # ... but not closed out from under the job
    finally:
        done.set()
        t.join()


def test_clear_releases_programs_but_keeps_disk(tmp_path):
    cache = PlanCache(root=tmp_path)
    key = plan_key(JobSpec.make("lbm", (8, 6, 6), 3), "dgx-a100-2")
    prog = _FakeProgram()
    cache.store(key, program=prog, estimate_seconds=1.0, release=lambda p: p.close())
    cache.clear()
    assert prog.closed and cache.stats()["entries"] == 0
    assert (tmp_path / f"{key.digest}.json").exists()
    assert PlanCache(root=tmp_path).lookup(key).estimate_seconds == 1.0
