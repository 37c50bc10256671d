"""Flight recorder: bounded rings, dump artifacts, and the post-mortem
contract — a terminal failure leaves a FLIGHT_*.json that names the
failing site."""

import json

from repro.observability import flight
from repro.observability.flight import FlightRecorder


def test_ring_is_bounded_per_track():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record("device0", "kernel", f"k{i}")
    rec.record("host", "note", "alone")
    snap = rec.snapshot()
    assert [e["name"] for e in snap["device0"]] == ["k6", "k7", "k8", "k9"]
    assert [e["name"] for e in snap["host"]] == ["alone"]
    assert rec.records == 11  # evictions do not uncount events


def test_sequence_is_global_across_tracks():
    rec = FlightRecorder()
    rec.record("a", "note", "first")
    rec.record("b", "note", "second")
    snap = rec.snapshot()
    assert snap["a"][0]["seq"] < snap["b"][0]["seq"]


def test_dump_writes_schema_and_events(tmp_path):
    rec = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
    rec.record("device1", "fault", "axpy@1", {"kind": "device_lost", "rank": 1})
    path = rec.dump("unit_test", {"why": "testing"})
    doc = json.loads((tmp_path / "FLIGHT_unit_test_0.json").read_text())
    assert path.endswith("FLIGHT_unit_test_0.json")
    assert doc["schema"] == "repro-flight/1"
    assert doc["reason"] == "unit_test" and doc["context"] == {"why": "testing"}
    ev = doc["tracks"]["device1"][0]
    assert ev["kind"] == "fault" and ev["name"] == "axpy@1"
    assert ev["detail"] == {"kind": "device_lost", "rank": 1}
    # repeated dumps get distinct file names
    rec.dump("unit_test")
    assert (tmp_path / "FLIGHT_unit_test_1.json").exists()


def test_permanent_device_loss_dump_names_failing_site(tmp_path):
    """End-to-end post-mortem: an injected permanent device loss that the
    driver cannot degrade around must leave a FLIGHT dump whose fault
    event carries the failing command's site key."""
    import pytest

    from repro.resilience import DeviceLost, FaultPlan, ResilientDriver
    from repro.system import Backend
    from tests.resilience.test_runner import CountingApp

    flight.FLIGHT.dump_dir = str(tmp_path)
    # a one-device fleet: losing its device leaves nothing to degrade onto
    plan = FaultPlan(seed=0, device_loss={0: 1})
    driver = ResilientDriver(CountingApp, Backend.sim_gpus(1), steps=4, plan=plan)
    with pytest.raises(DeviceLost):
        driver.run()

    dumps = sorted(tmp_path.glob("FLIGHT_resilience_*.json"))
    assert dumps, "terminal ResilienceError must produce a flight dump"
    doc = json.loads(dumps[0].read_text())
    assert doc["schema"] == "repro-flight/1"
    faults = [
        e
        for e in doc["tracks"].get("device0", [])
        if e["kind"] == "fault" and e.get("detail", {}).get("kind") == "device_lost"
    ]
    assert faults, f"no device_lost fault event in dump tracks: {sorted(doc['tracks'])}"
    # the site key names the command that touched the lost device
    assert "@" in faults[0]["name"]
    assert faults[0]["detail"]["rank"] == 0


def test_kind_counts_tallies_surviving_events_across_tracks():
    fr = FlightRecorder(capacity=4)
    fr.record("device0", "kernel", "k0")
    fr.record("device1", "kernel", "k1")
    fr.record("host", "fault", "boom", {"rank": 1})
    assert fr.kind_counts() == {"fault": 1, "kernel": 2}
    for i in range(6):  # overflow the device0 ring: only survivors count
        fr.record("device0", "copy", f"c{i}")
    assert fr.kind_counts() == {"copy": 4, "fault": 1, "kernel": 1}
