"""``python -m pytest perf -q``: the benchmark's own smoke test (~25 s).

Not part of tier-1 (``testpaths = tests``).  One ``--smoke`` run exercises
every leg of every workload at tiny shapes, the bitwise digest gate, the
span writer and the result schema the driver reads.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_fills_the_declared_schema():
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    assert set(results) == {w["name"] for w in contract["workloads"]}
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared, workload
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values()), workload
        for name in ("setup_s", "solve_s", "solve_best_s", "native_ratio", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0, (workload, name)
        spans = json.loads((ROOT / ".bench_out" / f"{workload}-seed1-trace1-smoke-spans.json").read_text())
        legs = {s["leg"] for s in spans}
        assert {"serial", "traced", "unfused", "nocc", "native"} <= legs, workload
        # every span names its parent; only a child's root span has none
        assert all((s["parent"] is None) == (s["name"] == "child") for s in spans), workload
