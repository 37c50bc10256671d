"""Runtime observability: structured tracing, metrics, profiling hooks.

The layer every other ``repro`` package reports into, and the substrate
for before/after artifacts in performance work.  Three pieces:

* :mod:`repro.observability.tracer`  — nested wall-clock spans
  (context-manager API, monotonic timestamps, thread-safe);
* :mod:`repro.observability.metrics` — labeled counters / gauges /
  histograms, each emitted where the work runs
  (``kernel_seconds{device,kernel}``, ``halo_bytes_sent{src,dst}``,
  ``allocations_bytes{device}``, ...);
* :mod:`repro.observability.export`  — Chrome trace-event JSON unified
  with :meth:`repro.sim.Trace.to_chrome_trace` (real and simulated
  timelines load side-by-side in Perfetto) plus markdown/JSON metrics
  reports.

**Off by default.**  Instrumentation sites guard on ``OBS.active`` — a
single attribute read on a slotted singleton — so the disabled runtime
pays near-zero overhead (bounded by a CI test).  Enable explicitly::

    from repro import observability as obs

    obs.enable()
    skeleton.run()
    print(obs.metrics_report())
    obs.export_chrome_trace("trace.json", sim_trace=skeleton.trace())

or from the shell: ``python -m repro trace poisson -o trace.json``.

This package is zero-dependency by design (stdlib only) and must never
import other ``repro`` modules: every layer can import it without
cycles.
"""

from __future__ import annotations

from .critpath import critical_path, dependency_chain, device_utilization
from .export import merge_chrome_traces, write_chrome_trace
from .flight import FLIGHT, FlightRecorder
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Tracer, TraceSpan


class _ObsState:
    """Process-global observability switchboard (slotted for fast reads)."""

    __slots__ = ("active", "tracer", "metrics")

    def __init__(self) -> None:
        self.active = False
        self.tracer: Tracer | None = None
        self.metrics: MetricsRegistry | None = None


OBS = _ObsState()
"""The singleton hot-path guard: sites check ``OBS.active`` before recording."""


def enabled() -> bool:
    """Whether instrumentation is currently recording (default: False)."""
    return OBS.active


def enable(reset: bool = True) -> None:
    """Turn recording on, starting fresh unless ``reset=False``."""
    if reset or OBS.tracer is None:
        OBS.tracer = Tracer()
    if reset or OBS.metrics is None:
        OBS.metrics = MetricsRegistry()
    OBS.active = True


def disable() -> None:
    """Stop recording; already-collected spans/metrics stay readable."""
    OBS.active = False


def reset() -> None:
    """Disable and drop all recorded state (used by the test fixture)."""
    OBS.active = False
    OBS.tracer = None
    OBS.metrics = None


def tracer() -> Tracer:
    """The current tracer (created on demand, even while disabled)."""
    if OBS.tracer is None:
        OBS.tracer = Tracer()
    return OBS.tracer


def metrics() -> MetricsRegistry:
    """The current metrics registry (created on demand)."""
    if OBS.metrics is None:
        OBS.metrics = MetricsRegistry()
    return OBS.metrics


class _NullSpan:
    """No-op context manager returned by :func:`span` while disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, cat: str = "phase", pid: str = "host", tid: str | None = None, **args):
    """Open a traced span, or a shared no-op when observability is off."""
    if not OBS.active:
        return _NULL_SPAN
    return tracer().span(name, cat=cat, pid=pid, tid=tid, **args)


def instant(name: str, cat: str = "mark", pid: str = "host", tid: str | None = None, **args):
    """Record a zero-duration point event (no-op while disabled)."""
    if not OBS.active:
        return None
    return tracer().instant(name, cat=cat, pid=pid, tid=tid, **args)


def metrics_report() -> str:
    """Markdown table of every recorded metric series."""
    return metrics().to_markdown()


def export_chrome_trace(path, sim_trace=None, meta: dict | None = None):
    """Write the unified real(+simulated) Chrome trace JSON to ``path``.

    ``sim_trace`` may be a :class:`repro.sim.Trace` (anything exposing
    ``to_chrome_trace()``) whose events are merged under ``sim:`` pids.
    """
    sim_events = sim_trace.to_chrome_trace() if sim_trace is not None else None
    doc = merge_chrome_traces(
        real_events=tracer().to_chrome_trace(),
        sim_events=sim_events,
        metrics=metrics().to_json(),
        meta=meta,
    )
    return write_chrome_trace(path, doc)


__all__ = [
    "FLIGHT",
    "OBS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "TraceSpan",
    "critical_path",
    "dependency_chain",
    "device_utilization",
    "disable",
    "enable",
    "enabled",
    "export_chrome_trace",
    "instant",
    "merge_chrome_traces",
    "metrics",
    "metrics_report",
    "reset",
    "span",
    "tracer",
    "write_chrome_trace",
]
