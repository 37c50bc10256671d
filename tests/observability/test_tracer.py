"""Tracer unit tests: nesting, thread-safety, decorator, export format."""

import json
import threading

from repro import observability as obs
from repro.observability.tracer import Tracer


def test_spans_nest_and_record_depth():
    t = Tracer()
    with t.span("outer", cat="phase"):
        with t.span("inner", cat="compile"):
            pass
    spans = t.spans
    assert [s.name for s in spans] == ["outer", "inner"]
    outer, inner = spans
    assert outer.depth == 0 and inner.depth == 1
    assert outer.start <= inner.start and inner.end <= outer.end
    assert inner.duration >= 0


def test_span_records_error_and_propagates():
    t = Tracer()
    try:
        with t.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    (span,) = t.spans
    assert span.args["error"] == "RuntimeError"


def test_tracer_is_thread_safe():
    t = Tracer()

    def work():
        for i in range(50):
            with t.span(f"w{i}", tid="worker"):
                pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(t) == 200
    # per-thread nesting stacks: depths stay 0 despite concurrency
    assert all(s.depth == 0 for s in t.spans)


def test_chrome_export_matches_sim_format():
    """Real events carry the exact keys Trace.to_chrome_trace emits."""
    obs.enable()
    with obs.span("k", cat="kernel", pid="device0", tid="s0[0]"):
        pass
    (ev,) = obs.tracer().to_chrome_trace()
    assert set(ev) == {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
    assert ev["ph"] == "X" and ev["cat"] == "kernel"
    json.dumps(ev)  # serialisable


def test_null_span_when_disabled():
    obs.reset()
    with obs.span("ignored") as s:
        assert s is None
    assert obs.OBS.tracer is None
