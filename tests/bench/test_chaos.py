"""Chaos soak: the composite-fault storm with a bitwise acceptance bar."""

import json

import pytest

from repro.bench.chaos import (
    CHAOS_SCHEMA,
    CHAOS_SPECS,
    make_chaos_plan,
    run_chaos,
)

# the storm's corruption faults write NaN/Inf into CG's fields on purpose;
# the dot-product partials (sets/loader.py deposit_sums) then sum over them
# until the guardrail rolls the step back — expected injection, not a bug
injected_nonfinite = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in reduce:RuntimeWarning"
)


@injected_nonfinite
@pytest.mark.parametrize("name", sorted(CHAOS_SPECS))
def test_soak_survives_the_full_storm(name):
    """The PR's acceptance criterion: >= 50 seeded fault events — among
    them >= 2 permanent device losses and >= 1 corrupted checkpoint — and
    the run still finishes bitwise identical to its fault-free twin."""
    report = run_chaos(name, events=50, seed=2026)
    assert report.match, "recovered result must be bitwise identical"
    assert report.violations == 0
    assert report.events_total >= 50
    assert report.device_losses >= 2
    assert report.tampers >= 1
    assert report.checkpoints["fallbacks"] >= 1
    assert report.ok
    # every degrade on the mixed fleet adopted tuned shares that the DES
    # scores >= 10% below the uniform degraded plan
    assert len(report.degrade_reports) == report.device_losses
    for rep in report.degrade_reports:
        assert rep["improvement"] >= 0.10
        assert len(set(rep["weights"])) > 1


@injected_nonfinite
def test_serial_soak_is_a_pure_function_of_its_seed():
    """Recovery never changes the replay mode a job asked for, no session
    outlives the run that armed it, and no recovery decision reads a wall
    clock or the tracer, so a serial soak's whole fault history repeats,
    twice in one process too — with observability armed, as the CLI runs
    it (docs/resilience.md)."""
    first, second = (run_chaos("poisson", events=50, seed=2026) for _ in range(2))
    assert first.ok and second.ok
    assert (first.injected, first.rollbacks, first.tampers, first.device_losses) == (
        second.injected,
        second.rollbacks,
        second.tampers,
        second.device_losses,
    )


def test_plan_calibration_targets_the_budget():
    draws = {"launch": 1000, "copy": 500}
    plan = make_chaos_plan(3, 50, draws, {3: 400, 2: 800}, devices=4, profile="storm")
    for kind in ("launch", "copy", "corrupt"):
        assert 0.0 < plan.rates[kind] <= 0.2, kind
    # corruption opportunities are proxied by launch draws (the zero-rate
    # probe never reaches the corruption wrapper)
    assert plan.rates["corrupt"] > 0.0
    assert set(plan.device_loss) == {2, 3}
    # staggered triggers: the top rank dies first, mid-run
    assert plan.device_loss[3] == int(400 * 0.35)
    assert plan.device_loss[2] == int(800 * (0.35 + 0.3))
    assert plan.max_injections["corrupt"] >= int(0.35 * 50)

    # a single-class row arms only its own kinds and losses
    transient = make_chaos_plan(3, 50, draws, {3: 400}, devices=4, profile="transient+loss")
    assert transient.rates["corrupt"] == 0.0 and transient.rates["launch"] > 0.0
    assert set(transient.device_loss) == {3} and not transient.max_injections
    corruption = make_chaos_plan(3, 50, draws, {}, devices=4, profile="corruption")
    assert corruption.rates["launch"] == corruption.rates["copy"] == 0.0
    assert corruption.rates["corrupt"] > 0.0 and not corruption.device_loss


@injected_nonfinite
def test_report_document_and_renderers():
    report = run_chaos("poisson", events=12, seed=5)
    doc = json.loads(json.dumps(report.to_json()))  # JSON-serialisable as-is
    assert doc["schema"] == CHAOS_SCHEMA
    assert doc["workload"] == "poisson"
    assert doc["profile"] == "storm"
    assert doc["events"]["total"] == report.events_total
    assert doc["result"]["match_bitwise"] is True
    assert doc["result"]["violations"] == 0
    assert doc["flight_sample"] and all(isinstance(ring, list) for ring in doc["flight_sample"].values())

    text = report.summary()  # the one terminal view
    assert "chaos storm: poisson" in text
    assert "device loss(es)" in text
    assert "bitwise identical" in text


def test_rejects_bad_configuration():
    with pytest.raises(KeyError, match="unknown experiment 'nope'; expected one of: lbm, poisson"):
        run_chaos("nope")
    with pytest.raises(ValueError, match="events"):
        run_chaos("lbm", events=0)
    with pytest.raises(ValueError, match="survivors"):
        run_chaos("lbm", devices=3)  # the storm loses two
