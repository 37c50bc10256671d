"""The one instrumented run: its Perfetto document, the report inside it,
and what ``python -m repro trace`` prints.

Every test reads one module-scoped ``trace poisson`` run through the CLI
entry point, so the instrumented run happens once.
"""

import contextlib
import io
import json

import pytest

from repro import observability as obs
from repro.__main__ import main
from repro.bench.dashboard import REPORT_SCHEMA, to_text, trace_report


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(the written document, stdout) of ``trace poisson --devices 2``."""
    out = tmp_path_factory.mktemp("trace") / "trace.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["trace", "poisson", "--devices", "2", "-o", str(out)]) == 0
    return json.loads(out.read_text()), stdout.getvalue()


@pytest.fixture(scope="module")
def report(traced):
    return traced[0]["report"]


def test_report_shape_and_schema(report):
    assert report["schema"] == REPORT_SCHEMA
    assert report["exp"] == "poisson" and report["devices"] == 2
    assert report["skeletons"] and report["histograms"]
    json.dumps(report)  # must be JSON-serialisable as-is


def test_critical_path_total_matches_makespan_within_1_percent(report):
    for entry in report["skeletons"]:
        total = entry["critical_path"]["total"]
        makespan = entry["sim_makespan_s"]
        assert abs(total - makespan) <= 0.01 * makespan
        # hb dependency chain lower-bounds the scheduled makespan
        assert entry["dependency_chain"]["total"] <= makespan * (1 + 1e-9)


def test_attribution_conserves_time(report):
    attr = report["attribution"]
    modeled = attr["kernel"] + attr["copy"] + attr["wait"] + attr["dispatch"]
    assert modeled == pytest.approx(report["sim_makespan_s"], rel=1e-9)
    assert report["wall_seconds"] > 0.0


def _numbers(node, path=""):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _numbers(v, f"{path}/{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _numbers(v, f"{path}/{i}")
    elif isinstance(node, float):
        yield path, node


def test_no_number_mixes_the_two_clocks(report):
    """Host wall-clock and DES time are never combined into one number."""
    wall, sim = report["wall_seconds"], report["sim_makespan_s"]
    mixed = (wall - sim, sim - wall, wall / sim, sim / wall, wall + sim, 100.0 * (wall - sim) / wall)
    paths = [path for path, _ in _numbers(report)]
    assert paths.count("/wall_seconds") == 1 and "/sim_makespan_s" in paths
    for path, value in _numbers(report):
        assert not any(value == pytest.approx(m, rel=1e-12) for m in mixed), path


def test_utilization_fractions_sum_to_one(report):
    assert report["utilization"]
    for frac in report["utilization"].values():
        assert sum(frac.values()) == pytest.approx(1.0, abs=1e-6)


def test_kernel_histograms_were_recorded(report):
    kernels = report["histograms"].get("kernel_seconds", [])
    assert kernels and all(s["count"] > 0 for s in kernels)
    assert all({"p50", "p90", "p99"} <= set(s) for s in kernels)


def test_histograms_cover_the_timed_run_only(report):
    """The warm-up runs update_x 5 times per rank as well; the report
    counts the timed run's 4 iterations + the flush."""
    counts = {s["labels"]["kernel"]: s["count"] for s in report["histograms"]["kernel_seconds"]}
    assert report["iterations"] == 4
    assert counts["update_x[0]"] == counts["update_x[1]"] == 5


def _printed(stdout: str, label: str) -> int:
    (line,) = [ln for ln in stdout.splitlines() if ln.strip().startswith(f"{label}:")]
    return int(line.split(":")[1])


def test_printed_counts_are_what_the_timed_run_executed(traced):
    doc, stdout = traced
    report, metrics = doc["report"], doc["metrics"]
    launches = sum(s["count"] for s in report["histograms"]["kernel_seconds"])
    assert launches == sum(s["count"] for s in metrics["kernel_seconds"]) > 0
    assert _printed(stdout, "kernel launches") == launches
    assert _printed(stdout, "copies") == sum(s["count"] for s in metrics["copy_seconds"]) > 0
    waits = sum(sk["num_waits"] * sk["runs"] for sk in report["skeletons"])
    assert _printed(stdout, "sync waits") == waits > 0


def test_trace_restores_observability_state(tmp_path):
    out = str(tmp_path / "t.json")
    # disabled before -> disabled after (the instrumented run is internal)
    obs.reset()
    assert main(["trace", "poisson", "-o", out]) == 0
    assert not obs.enabled()
    # enabled before -> the caller's registry survives untouched
    obs.enable()
    marker = obs.metrics()
    marker.counter("sentinel").inc()
    assert main(["trace", "poisson", "-o", out]) == 0
    assert obs.enabled()
    assert obs.metrics() is marker  # caller's registry untouched
    assert obs.metrics().total("sentinel") == 1.0


def test_text_rendering_names_the_key_sections(report):
    text = to_text(report)
    for marker in (
        "measured: host wall-clock",
        f"modeled: DES of {report['machine']}",
        "device utilization",
        "timing histograms",
        "critical path",
    ):
        assert marker in text, marker
    # each clock keeps its own section, the measured one first
    assert text.index("measured:") < text.index("timing histograms") < text.index("modeled:")
    assert "dispatch gap" not in text


def test_unknown_experiment_raises_keyerror(tmp_path):
    with pytest.raises(KeyError, match="unknown experiment 'nope'"):
        trace_report("nope", tmp_path / "t.json")


def test_modeled_time_counts_each_skeleton_as_often_as_it_ran(report):
    """The dashboard is the CG *solver*: init once, A and B once per
    iteration, and the flush that applies the last alpha once."""
    runs = {entry["name"]: entry["runs"] for entry in report["skeletons"]}
    assert runs == {"cg_init": 1, "cg_a": report["iterations"], "cg_b": report["iterations"], "cg_flush": 1}
    modeled = sum(entry["sim_makespan_s"] * entry["runs"] for entry in report["skeletons"])
    assert report["sim_makespan_s"] == pytest.approx(modeled)


def test_cli_report_acceptance(traced):
    """`python -m repro trace poisson` end to end: the Perfetto document
    carries the report, and stdout is the report's text view, then the
    timed run's counts."""
    doc, stdout = traced
    report = doc["report"]
    for key in ("schema", "wall_seconds", "histograms", "attribution", "utilization", "skeletons", "flight_sample"):
        assert report[key], key
    assert report["schema"] == REPORT_SCHEMA and report["devices"] == 2

    for section in ("measured: host wall-clock", "modeled: DES of", "halo bytes sent", "real spans"):
        assert section in stdout, section
    assert stdout.index("modeled: DES of") < stdout.index("real spans")
