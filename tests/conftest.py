"""Suite-wide fixtures: per-test observability with reports on failure.

Every test runs with the tracer/metrics enabled on a fresh recording, so
a scheduler or halo failure comes with a timeline and a metrics table
instead of a bare assert.  State is fully reset afterwards, keeping the
documented default (observability off) true between tests.
"""

import pytest

from repro import observability as obs


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    setattr(item, "rep_" + rep.when, rep)


@pytest.fixture(autouse=True)
def observability_per_test(request):
    """Trace each test; print the timeline + metrics when it fails."""
    obs.enable()
    try:
        yield
        rep = getattr(request.node, "rep_call", None)
        if rep is not None and rep.failed:
            print("\n---- observability report (test failed) ----")
            print(obs.metrics_report())
            print("\n---- last spans ----")
            print(obs.tracer().timeline(limit=40))
    finally:
        obs.reset()


@pytest.fixture(autouse=True)
def flight_sandboxed(tmp_path):
    """Fresh flight-recorder rings per test, dumps redirected to tmp_path.

    The recorder is always-on by design; redirecting ``dump_dir`` keeps
    terminal-failure tests (injected device loss, deadlocks, sanitizer
    violations) from littering the repo with FLIGHT_*.json artifacts.
    """
    from repro.observability import flight

    flight.reset()
    flight.FLIGHT.dump_dir = str(tmp_path)
    try:
        yield flight.FLIGHT
    finally:
        flight.reset()
        flight.FLIGHT.dump_dir = "."
