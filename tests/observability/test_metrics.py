"""Metrics registry unit tests: series identity, types, exporters."""

import json

import pytest

from repro.observability.metrics import MetricsRegistry


def test_counter_series_identity_and_totals():
    m = MetricsRegistry()
    m.counter("halo_bytes_sent", src="0", dst="1").inc(100)
    m.counter("halo_bytes_sent", dst="1", src="0").inc(50)  # label order irrelevant
    m.counter("halo_bytes_sent", src="1", dst="0").inc(7)
    assert m.value("halo_bytes_sent", src="0", dst="1") == 150
    assert m.total("halo_bytes_sent") == 157
    assert len(m.series("halo_bytes_sent")) == 2


def test_counter_rejects_decrease():
    m = MetricsRegistry()
    with pytest.raises(ValueError):
        m.counter("c").inc(-1)


def test_gauge_tracks_max():
    m = MetricsRegistry()
    g = m.gauge("memory_used_bytes", device="0")
    g.set(3)
    g.set(1)
    assert g.value == 1 and g.max == 3
    g.inc(5)
    assert g.value == 6 and g.max == 6


def test_histogram_summary():
    m = MetricsRegistry()
    h = m.histogram("alloc")
    for v in (1, 4, 16, 1000):
        h.observe(v)
    assert h.count == 4
    assert h.min == 1 and h.max == 1000
    assert h.mean == pytest.approx(1021 / 4)


def test_type_conflict_raises():
    m = MetricsRegistry()
    m.counter("x", a="1")
    with pytest.raises(TypeError):
        m.gauge("x", a="1")


def test_json_and_markdown_exports():
    m = MetricsRegistry()
    m.counter("allocations", device="gpu0").inc(3)
    m.gauge("memory_used_bytes", device="gpu0").set(2)
    m.histogram("sizes").observe(64)
    doc = m.to_json()
    json.dumps(doc)
    assert doc["allocations"][0]["value"] == 3
    md = m.to_markdown()
    assert "allocations" in md and "device=gpu0" in md
    assert MetricsRegistry().to_markdown() == "(no metrics recorded)"
