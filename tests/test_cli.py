"""CLI smoke tests for ``python -m repro``."""

import subprocess
import sys

import pytest

from repro.__main__ import EXPERIMENTS, main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], capture_output=True, text=True, timeout=300
    )


def test_list_shows_every_experiment():
    proc = run_cli("list")
    assert proc.returncode == 0
    for key in EXPERIMENTS:
        assert key in proc.stdout


def test_info_reports_models():
    proc = run_cli("info")
    assert proc.returncode == 0
    assert "dgx-a100-8" in proc.stdout
    assert "repro 0.1.0" in proc.stdout


def test_unknown_experiment_rejected():
    proc = run_cli("reproduce", "fig99")
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


def test_experiment_files_exist():
    from repro.__main__ import BENCH_DIR

    for fname, _desc in EXPERIMENTS.values():
        assert (BENCH_DIR / fname).exists(), fname


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "lbm", "--mode", "process"],
        ["trace", "lbm", "--mode", "process"],
        ["serve", "--mode", "process"],
        ["sanitize", "lbm", "--mode", "all"],
        ["bench", "lbm", "--process-gate", "1.0"],
        ["bench", "lbm"],  # the second benchmark is gone: perf/run.py is the one
        ["report", "--compare", "a", "b"],
        ["report", "lbm"],  # `trace` writes the report: one instrumented run, one artifact
    ],
)
def test_deleted_process_mode_switches_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_reproduce_runs_one_bench():
    proc = run_cli("reproduce", "fig1")
    assert proc.returncode == 0


def test_trace_writes_chrome_trace(tmp_path):
    out = tmp_path / "t.json"
    proc = run_cli("trace", "poisson", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "halo bytes sent" in proc.stdout

    import json

    doc = json.loads(out.read_text())
    cats = {e["cat"] for e in doc["traceEvents"]}
    assert {"compile", "kernel", "copy"} <= cats
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert any(p.startswith("sim:") for p in pids)
    assert sum(s["value"] for s in doc["metrics"]["halo_bytes_sent"]) > 0
    assert sum(s["count"] for s in doc["metrics"]["kernel_seconds"]) > 0


def test_trace_unknown_workload_rejected(tmp_path):
    proc = run_cli("trace", "fig99", "-o", str(tmp_path / "x.json"))
    assert proc.returncode == 2
    assert "unknown experiment 'fig99'" in proc.stderr


def test_tune_writes_plan_json(tmp_path):
    out = tmp_path / "TUNE_lbm.json"
    proc = run_cli("tune", "lbm", "--machine", "mixed_pcie", "--devices", "4", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "decision:" in proc.stdout
    assert "<- best" in proc.stdout and "<- baseline" in proc.stdout

    import json

    doc = json.loads(out.read_text())
    assert doc["experiment"] == "lbm"
    assert doc["machine"] == "mixed-pcie-4"
    assert doc["improvement"] > 0
    assert len(doc["best"]["weights"]) == 4


def test_tune_unknown_workload_rejected():
    proc = run_cli("tune", "fig99")
    assert proc.returncode == 2
    assert "unknown experiment 'fig99'" in proc.stderr


def test_chaos_soak_survives_and_writes_report(tmp_path):
    out = tmp_path / "CHAOS_poisson.json"
    proc = run_cli("chaos", "poisson", "--events", "25", "-o", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "SURVIVED" in proc.stdout
    assert "bitwise identical" in proc.stdout

    import json

    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-chaos/1"
    assert doc["ok"] is True
    assert doc["events"]["total"] >= 25
    assert doc["events"]["device_losses"] >= 2
    assert doc["events"]["checkpoint_tampers"] >= 1
    assert doc["flight_sample"]  # the rings travel inside the one document


def test_chaos_unknown_workload_rejected():
    proc = run_cli("chaos", "nope")
    assert proc.returncode == 2
    assert "unknown experiment 'nope'; expected one of: lbm, poisson" in proc.stderr
