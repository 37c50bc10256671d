"""The performance-observatory report: building, its text view, its JSON.

The heavy acceptance path (``repro report lbm --devices 4 -o``) is
covered via the CLI entry point; the other tests reuse one module-scoped
report so the instrumented run happens once.
"""

import json

import pytest

from repro import observability as obs
from repro.bench.dashboard import REPORT_SCHEMA, build_report, to_text


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


def test_unknown_experiment_raises_keyerror():
    with pytest.raises(KeyError, match="unknown experiment 'nope'"):
        build_report("nope", devices=2)


def test_modeled_time_counts_each_skeleton_as_often_as_it_ran(report):
    """The dashboard is the CG *solver*: init once, A and B once per iteration."""
    runs = {entry["name"]: entry["runs"] for entry in report["skeletons"]}
    assert runs == {"cg_init": 1, "cg_a": report["iterations"], "cg_b": report["iterations"]}
    modeled = sum(entry["sim_makespan_s"] * entry["runs"] for entry in report["skeletons"])
    assert report["sim_makespan_s"] == pytest.approx(modeled)


def test_cli_report_acceptance(tmp_path, capsys):
    """`python -m repro report lbm --devices 4 -o R.json` end-to-end via
    main(): stdout is the text view, the file is the JSON document."""
    from repro.__main__ import main

    out = tmp_path / "report.json"
    assert main(["report", "lbm", "--devices", "4", "-o", str(out)]) == 0
    assert "== repro report: lbm ==" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == REPORT_SCHEMA and doc["devices"] == 4
    assert doc["wall_seconds"] > 0.0 and doc["histograms"]
    for entry in doc["skeletons"]:
        assert abs(entry["critical_path"]["total"] - entry["sim_makespan_s"]) <= (
            0.01 * entry["sim_makespan_s"]
        )
    assert doc["flight_sample"]  # the rings travel inside the one document
