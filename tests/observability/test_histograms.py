"""Histogram metrics: exact percentiles up to the sample bound, a strided
bounded sample beyond it, and the label-cardinality guard."""

import random

import pytest

from repro.observability.metrics import Histogram, MetricsRegistry, _exact_quantile


def _hist():
    return MetricsRegistry().histogram("h")


def test_empty_histogram_summary():
    h = _hist()
    assert h.summary() == {"count": 0, "sum": 0.0, "mean": 0.0}
    assert h.quantile(0.5) == 0.0


def test_small_sample_percentiles_are_exact():
    h = _hist()
    for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
        h.observe(v)
    # 10 observations fit the sample: linear-interpolated exact values
    assert h.quantile(0.5) == pytest.approx(5.5)
    assert h.quantile(0.9) == pytest.approx(9.1)
    assert h.quantile(0.0) == 1.0
    assert h.quantile(1.0) == 10.0
    s = h.summary()
    assert s["count"] == 10 and s["min"] == 1.0 and s["max"] == 10.0
    assert s["mean"] == pytest.approx(5.5)
    assert set(s) >= {"p50", "p90", "p99"}


def test_streaming_quantiles_track_uniform_distribution():
    # well beyond the sample bound: percentiles come from the thinned sample
    rng = random.Random(42)
    h = _hist()
    n = 20_000
    for _ in range(n):
        h.observe(rng.uniform(0.0, 1.0))
    assert h.count == n
    assert h.quantile(0.5) == pytest.approx(0.5, abs=0.03)
    assert h.quantile(0.9) == pytest.approx(0.9, abs=0.03)
    assert h.quantile(0.99) == pytest.approx(0.99, abs=0.02)


def test_streaming_quantiles_track_heavy_tail():
    # exponential-ish tail: the shape real latencies have
    rng = random.Random(7)
    h = _hist()
    import math

    vals = [1e-4 * -math.log(1.0 - rng.random()) for _ in range(10_000)]
    for v in vals:
        h.observe(v)
    ordered = sorted(vals)
    for p in (0.5, 0.9, 0.99):
        exact = _exact_quantile(ordered, p)
        assert h.quantile(p) == pytest.approx(exact, rel=0.15)


def test_any_quantile_is_answerable_beyond_the_sample_bound():
    h = _hist()
    n = 4 * Histogram.SAMPLE_MAX + 10
    for i in range(n):
        h.observe(float(i))
    assert h.quantile(0.75) == pytest.approx(0.75 * (n - 1), rel=0.01)
    assert h.quantile(0.3) < h.quantile(0.75) < h.quantile(0.99)


def _stream(n: int, seed: int = 3) -> list[float]:
    rng = random.Random(seed)
    return [rng.expovariate(1.0) for _ in range(n)]


def test_percentiles_are_exact_at_the_sample_bound():
    vals = _stream(Histogram.SAMPLE_MAX)
    h = _hist()
    for v in vals:
        h.observe(v)
    ordered = sorted(vals)
    for p in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
        assert h.quantile(p) == _exact_quantile(ordered, p)
    assert h.percentiles() == {f"p{int(q * 100)}": _exact_quantile(ordered, q) for q in (0.5, 0.9, 0.99)}


def test_one_past_the_bound_reads_every_other_observation():
    vals = _stream(Histogram.SAMPLE_MAX + 1)
    h = _hist()
    for v in vals:
        h.observe(v)
    assert h.stride == 2
    kept = sorted(vals[::2])  # the 1st, 3rd, ... and the last observation
    for p in (0.25, 0.5, 0.75, 0.99):
        assert h.quantile(p) == _exact_quantile(kept, p)
    assert h.count == len(vals) and h.min == min(vals) and h.max == max(vals)
    assert h.total == sum(vals) and h.mean == pytest.approx(sum(vals) / len(vals))

    # on an evenly spaced stream the thinned sample loses nothing
    h = _hist()
    for i in range(Histogram.SAMPLE_MAX + 1):
        h.observe(float(i))
    for p in (0.25, 0.5, 0.75, 0.99):
        assert h.quantile(p) == pytest.approx(p * Histogram.SAMPLE_MAX, rel=1e-12)


def test_sample_stays_bounded():
    h = _hist()
    for i in range(100_000):
        h.observe(float(i % 977))
    assert h.count == 100_000
    assert len(h._sample) <= Histogram.SAMPLE_MAX


def test_registry_histogram_summaries_include_labels():
    m = MetricsRegistry()
    m.histogram("lat", device="0").observe(1.0)
    m.histogram("lat", device="1").observe(2.0)
    summaries = m.histogram_summaries("lat")
    assert [s["labels"] for s in summaries] == [{"device": "0"}, {"device": "1"}]
    assert all(s["count"] == 1 for s in summaries)


def test_label_cardinality_guard_folds_overflow():
    m = MetricsRegistry()
    cap = MetricsRegistry.MAX_LABEL_SETS
    for i in range(cap + 7):
        m.histogram("lat", site=str(i)).observe(float(i))
    # 256 real series + one fold-over series holding the other 7
    series = m.series("lat")
    assert len(series) == cap + 1
    overflow = [s for s in series if s.labels == MetricsRegistry.OVERFLOW_LABELS]
    assert len(overflow) == 1 and overflow[0].count == 7
    assert m.label_overflows == {"lat": 7}
    # the overflow shows up in the JSON export as a pseudo-metric
    doc = m.to_json()
    assert doc["_label_overflows"] == [
        {"labels": {"metric": "lat"}, "type": "counter", "value": 7.0}
    ]


def test_cardinality_guard_is_per_metric_name():
    m = MetricsRegistry()
    cap = MetricsRegistry.MAX_LABEL_SETS
    for i in range(cap):
        m.counter("a", k=str(i)).inc()
    m.counter("b", k="1").inc()  # different name: its own budget
    m.counter("a", k=str(cap)).inc()  # the 257th label set: over budget for "a"
    assert m.label_overflows == {"a": 1}
    assert m.value("b", k="1") == 1.0
