"""Zero-dependency metrics registry: counters, gauges, histograms.

Metrics are labeled series: ``registry.counter("halo_bytes_sent",
src="0", dst="1").inc(nbytes)`` creates (or reuses) the series of that
name with exactly those labels.  All mutation goes through one registry
lock, so concurrent instrumented code (e.g. future threaded executors)
stays consistent; the lock is only ever taken when observability is
enabled, so the disabled path pays nothing.

Histograms are distribution summaries: each one keeps a bounded,
deterministic sample of its observations — every ``stride``-th one,
thinned by half (and ``stride`` doubled) whenever it would outgrow
:data:`Histogram.SAMPLE_MAX` — and reads every percentile from it, so
percentiles are exact for runs of up to ``SAMPLE_MAX`` observations
(which is what tests compare against) and memory stays bounded at
serving-run scale.  ``summary()`` packages count/sum/min/max/mean and
p50/p90/p99 for dashboards and reports; no result-affecting decision
reads them.

Long-running servers must not leak series: the registry caps the number
of distinct label-sets per metric name at
:attr:`MetricsRegistry.MAX_LABEL_SETS` (256).  Past the cap,
observations collapse into a single ``overflow="true"`` series for that
name and a warning counter (:attr:`MetricsRegistry.label_overflows`)
records how many label-sets were folded, so unbounded per-step or
per-site labels degrade gracefully instead of growing without bound.
"""

from __future__ import annotations

import threading

SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (last write wins), tracking its max."""

    __slots__ = ("name", "labels", "value", "max", "_lock")

    def __init__(self, name: str, labels: dict[str, str], lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            if value > self.max:
                self.max = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount
            if self.value > self.max:
                self.max = self.value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


def _exact_quantile(ordered: list[float], p: float) -> float:
    """Linear-interpolated quantile of an already-sorted sample."""
    if not ordered:
        return 0.0
    pos = p * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Histogram:
    """A distribution summary: count/sum/min/max and any percentile.

    Percentiles are read from one bounded sample: every ``stride``-th
    observation.  While the count stays within :data:`SAMPLE_MAX` the
    stride is 1 and percentiles are exact; when an append would exceed
    it, every other kept value is dropped and the stride doubles, so a
    histogram never grows with the run length and no RNG is involved.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "stride", "_sample", "_lock")

    #: the sample's bound: percentiles are exact up to this many observations
    #: and read from 2049-4096 strided ones beyond it (the p99 of a
    #: 10^4-observation exponential stream then has a ~4 % standard error)
    SAMPLE_MAX = 4096

    def __init__(self, name: str, labels: dict[str, str], lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.stride = 1
        self._sample: list[float] = []
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            if self.count % self.stride == 0:
                if len(self._sample) == self.SAMPLE_MAX:
                    del self._sample[1::2]
                    self.stride *= 2
                self._sample.append(value)
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _ordered(self) -> list[float]:
        with self._lock:
            return sorted(self._sample)

    def quantile(self, p: float) -> float:
        """The p-quantile of the sample (exact up to :data:`SAMPLE_MAX` observations)."""
        return _exact_quantile(self._ordered(), p)

    def percentiles(self) -> dict[str, float]:
        """The standard dashboard trio: p50 / p90 / p99."""
        ordered = self._ordered()
        return {f"p{int(q * 100)}": _exact_quantile(ordered, q) for q in (0.5, 0.9, 0.99)}

    def summary(self) -> dict:
        """JSON-able digest: count/sum/mean/min/max + percentiles."""
        out: dict = {"count": self.count, "sum": self.total, "mean": self.mean}
        if self.count:
            out.update(min=self.min, max=self.max, **self.percentiles())
        return out


class MetricsRegistry:
    """Thread-safe home for every labeled metric series.

    :attr:`MAX_LABEL_SETS` bounds the number of distinct label
    combinations one metric name may grow; see the module docstring for
    the overflow behaviour.
    """

    #: distinct label-sets one metric name may grow before it overflows
    MAX_LABEL_SETS = 256
    #: reserved label marking the fold-over series of a capped metric
    OVERFLOW_LABELS = {"overflow": "true"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[SeriesKey, object] = {}
        self._cardinality: dict[str, int] = {}
        self.label_overflows: dict[str, int] = {}

    def _get(self, cls, name: str, labels: dict[str, str]):
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if self._cardinality.get(name, 0) >= self.MAX_LABEL_SETS:
                    # cardinality guard: fold this label-set into the
                    # per-name overflow series instead of growing forever
                    self.label_overflows[name] = self.label_overflows.get(name, 0) + 1
                    key = (name, tuple(sorted(self.OVERFLOW_LABELS.items())))
                    series = self._series.get(key)
                    if series is None:
                        series = self._series[key] = cls(name, dict(self.OVERFLOW_LABELS), self._lock)
                    labels = dict(self.OVERFLOW_LABELS)
                else:
                    self._cardinality[name] = self._cardinality.get(name, 0) + 1
                    series = self._series[key] = cls(name, labels, self._lock)
            if not isinstance(series, cls):
                raise TypeError(f"metric '{name}' already registered as {type(series).__name__}")
        return series

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- queries -----------------------------------------------------------
    def series(self, name: str | None = None) -> list:
        with self._lock:
            return [s for (n, _), s in sorted(self._series.items()) if name is None or n == name]

    def total(self, name: str) -> float:
        """Sum of a counter's value across all its labeled series."""
        return sum(s.value for s in self.series(name) if isinstance(s, Counter))

    def value(self, name: str, **labels: str) -> float | None:
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            s = self._series.get(key)
        if s is None:
            return None
        return s.value if not isinstance(s, Histogram) else s.total

    def histogram_summaries(self, name: str) -> list[dict]:
        """Per-series :meth:`Histogram.summary` dicts (labels included)."""
        out = []
        for s in self.series(name):
            if isinstance(s, Histogram):
                out.append({"labels": dict(s.labels), **s.summary()})
        return out

    # -- exporters ---------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-serialisable snapshot of every series."""
        out: dict[str, list] = {}
        for s in self.series():
            entry: dict = {"labels": dict(s.labels)}
            if isinstance(s, Counter):
                entry["type"] = "counter"
                entry["value"] = s.value
            elif isinstance(s, Gauge):
                entry["type"] = "gauge"
                entry["value"] = s.value
                entry["max"] = s.max
            else:
                entry["type"] = "histogram"
                entry.update(s.summary())
            out.setdefault(s.name, []).append(entry)
        if self.label_overflows:
            out["_label_overflows"] = [
                {"labels": {"metric": name}, "type": "counter", "value": float(n)}
                for name, n in sorted(self.label_overflows.items())
            ]
        return out

    def to_markdown(self) -> str:
        """Human-readable metrics report (one table row per series)."""
        rows = []
        for s in self.series():
            labels = ",".join(f"{k}={v}" for k, v in sorted(s.labels.items())) or "-"
            if isinstance(s, Counter):
                rows.append((s.name, "counter", labels, f"{s.value:g}"))
            elif isinstance(s, Gauge):
                rows.append((s.name, "gauge", labels, f"{s.value:g} (max {s.max:g})"))
            else:
                pct = s.percentiles()
                rows.append(
                    (
                        s.name,
                        "histogram",
                        labels,
                        f"n={s.count} sum={s.total:g} mean={s.mean:g} "
                        f"p50={pct['p50']:g} p90={pct['p90']:g} p99={pct['p99']:g}",
                    )
                )
        if not rows:
            return "(no metrics recorded)"
        widths = [max(len(r[i]) for r in rows + [("metric", "type", "labels", "value")]) for i in range(4)]
        header = ("metric", "type", "labels", "value")
        lines = [
            "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
            "|-" + "-|-".join("-" * w for w in widths) + "-|",
        ]
        for r in rows:
            lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |")
        return "\n".join(lines)
