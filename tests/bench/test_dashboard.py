"""The performance-observatory dashboard: report building and rendering.

The heavy acceptance path (``repro report lbm --devices 4``) is covered
via the CLI entry point on a JSON report; rendering tests reuse one
module-scoped report so the instrumented run happens once.
"""

import json

import pytest

from repro import observability as obs
from repro.bench.dashboard import REPORT_SCHEMA, build_report, to_html, to_text


@pytest.fixture(scope="module")
def report():
    return build_report("poisson", devices=2, mode="serial")


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
    assert modeled == pytest.approx(attr["makespan"], rel=1e-9)
    assert attr["wall_seconds"] > 0.0
    assert attr["python_dispatch_overhead"] == pytest.approx(
        max(0.0, attr["wall_seconds"] - attr["makespan"])
    )


def test_utilization_fractions_sum_to_one(report):
    assert report["utilization"]
    for frac in report["utilization"].values():
        assert sum(frac.values()) == pytest.approx(1.0, abs=1e-6)


def test_kernel_histograms_were_recorded(report):
    kernels = report["histograms"].get("kernel_seconds", [])
    assert kernels and all(s["count"] > 0 for s in kernels)
    assert all({"p50", "p90", "p99"} <= set(s) for s in kernels)


def test_build_report_restores_observability_state():
    # disabled before -> disabled after (the instrumented pass is internal)
    obs.reset()
    build_report("poisson", devices=2)
    assert not obs.enabled()
    # enabled before -> the caller's registry survives untouched
    obs.enable()
    marker = obs.metrics()
    marker.counter("sentinel").inc()
    build_report("poisson", devices=2)
    assert obs.enabled()
    assert obs.metrics() is marker  # caller's registry untouched
    assert obs.metrics().total("sentinel") == 1.0


def test_text_rendering_names_the_key_sections(report):
    text = to_text(report)
    for marker in (
        "wall-clock attribution",
        "device utilization",
        "timing histograms",
        "critical path",
        "python dispatch gap",
    ):
        assert marker in text, marker


def test_html_rendering_is_selfcontained(report):
    html = to_html(report)
    assert html.startswith("<!DOCTYPE html>" ) or html.startswith("<!doctype html>")
    assert "repro report" in html and report["exp"] in html
    assert "<script src=" not in html and "http" not in html.split("</style>")[0]


def test_unknown_experiment_raises_keyerror():
    with pytest.raises(KeyError, match="unknown experiment 'nope'"):
        build_report("nope", devices=2)


def test_modeled_time_counts_each_skeleton_as_often_as_it_ran(report):
    """The dashboard is the CG *solver*: init once, A and B once per iteration."""
    runs = {entry["name"]: entry["runs"] for entry in report["skeletons"]}
    assert runs == {"cg_init": 1, "cg_a": report["iterations"], "cg_b": report["iterations"]}
    modeled = sum(entry["sim_makespan_s"] * entry["runs"] for entry in report["skeletons"])
    assert report["sim_makespan_s"] == pytest.approx(modeled)


def test_cli_report_acceptance(tmp_path):
    """`python -m repro report lbm --devices 4` end-to-end via main()."""
    from repro.__main__ import main

    out = tmp_path / "report.json"
    flight_out = tmp_path / "flight.json"
    rc = main(
        [
            "report",
            "lbm",
            "--devices",
            "4",
            "--format",
            "json",
            "-o",
            str(out),
            "--flight-out",
            str(flight_out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == REPORT_SCHEMA and doc["devices"] == 4
    for entry in doc["skeletons"]:
        assert abs(entry["critical_path"]["total"] - entry["sim_makespan_s"]) <= (
            0.01 * entry["sim_makespan_s"]
        )
    sample = json.loads(flight_out.read_text())
    assert sample["schema"] == "repro-flight/1" and sample["tracks"]
