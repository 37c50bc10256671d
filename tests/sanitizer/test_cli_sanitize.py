"""End-to-end ``python -m repro sanitize`` smoke tests (subprocess)."""

import json
import subprocess
import sys


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], capture_output=True, text=True, timeout=300
    )


def test_sanitize_clean_run_with_mutation_and_json(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "sanitize", "poisson", "--devices", "2", "--occ", "standard", "--mutate", "-o", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    assert "mode=serial" in proc.stdout and "mode=parallel" in proc.stdout
    assert "clean" in proc.stdout
    assert "sanitizer_violations counter: 0" in proc.stdout
    assert "ESCAPED" not in proc.stdout

    doc = json.loads(out.read_text())
    assert {rep["mode"] for rep in doc["runs"]} == {"serial", "parallel"}
    assert all(rep["ok"] for rep in doc["runs"])
    matrix = doc["mutation"]
    assert matrix["total"] > 0 and matrix["killed"] == matrix["total"]


def test_sanitize_rejects_bad_arguments():
    proc = run_cli("sanitize", "poisson", "--occ", "warp-speed")
    assert proc.returncode == 2
    assert "unknown OCC level" in proc.stderr

    proc = run_cli("sanitize", "nosuch")
    assert proc.returncode == 2
    assert "unknown experiment 'nosuch'" in proc.stderr
