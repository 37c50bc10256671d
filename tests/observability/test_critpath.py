"""Critical-path analyzer cross-checked against the DES.

The invariants under test are the ones the dashboard's numbers rest on:

* the reconstructed path total equals the simulated makespan *exactly*
  (the DES records each span's binding constraint, so the walk is a
  replay of the schedule's own reasoning, not an estimate);
* the happens-before dependency chain never exceeds any replay's
  makespan (it ignores resource contention and host dispatch);
* per-device busy/blocked/idle fractions sum to 1.
"""

import pytest

from repro.bench.dashboard import miniature
from repro.observability import critical_path, dependency_chain, device_utilization
from repro.sim.replay import sim_replay
from repro.workloads import build


def _traced(exp: str, devices: int, mode: str):
    app = build(miniature(exp, devices))
    app.run()
    sk = app.step_skeletons[0]
    result = sk.last_result or sk.record()
    trace = sim_replay(result, sk.backend.machine, mode=mode)
    return sk, result, trace


@pytest.mark.parametrize("exp", ["lbm", "poisson"])
@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_path_total_equals_makespan_exactly(exp, mode):
    _, _, trace = _traced(exp, 3, mode)
    cp = critical_path(trace)
    assert cp.total == pytest.approx(trace.makespan, rel=1e-12)
    # the acceptance bound is 1%; the construction delivers exact
    assert abs(cp.total - trace.makespan) <= 0.01 * trace.makespan
    assert sum(cp.breakdown.values()) == pytest.approx(cp.total, rel=1e-9)
    assert all(v >= 0.0 for v in cp.breakdown.values())


@pytest.mark.parametrize("exp", ["lbm", "poisson"])
def test_dependency_chain_lower_bounds_every_mode(exp):
    for mode in ("serial", "parallel"):
        sk, result, trace = _traced(exp, 3, mode)
        chain = dependency_chain(result.queues, sk.backend.machine)
        assert chain.total > 0.0 and chain.commands
        assert chain.total <= trace.makespan * (1.0 + 1e-9)


@pytest.mark.parametrize("exp", ["lbm", "poisson"])
def test_device_utilization_fractions_sum_to_one(exp):
    _, _, trace = _traced(exp, 3, "parallel")
    util = device_utilization(trace)
    assert sorted(util) == sorted({s.device for s in trace.spans})
    for dev, frac in util.items():
        assert set(frac) == {"busy", "blocked", "idle"}
        assert all(v >= -1e-12 for v in frac.values()), (dev, frac)
        assert sum(frac.values()) == pytest.approx(1.0, abs=1e-9)
        assert frac["busy"] > 0.0


def test_empty_trace_degenerates_cleanly():
    from repro.sim.trace import Trace

    cp = critical_path(Trace([]))
    assert cp.total == 0.0 and cp.segments == []
    assert device_utilization(Trace([])) == {}
