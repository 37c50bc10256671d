"""Bench regression checker: schema handling and verdict logic."""

import json

import pytest

from repro.bench.harness import BENCH_SCHEMA, read_bench_json, write_bench_json
from repro.bench.regress import check_regression, compare_docs, render


def _doc(wall=1.0, mlups=100.0, sim=0.01, schema=BENCH_SCHEMA, **extra):
    doc = {
        "schema": schema,
        "exp": "lbm",
        "params": {},
        "env": {},
        "results": [
            {
                "label": "lbm-serial",
                "mode": "serial",
                "wall_clock_s": wall,
                "sim_makespan_s": sim,
                "mlups": mlups,
            }
        ],
    }
    doc.update(extra)
    return doc


def test_identical_docs_have_no_regressions():
    findings = compare_docs(_doc(), _doc())
    assert findings and not any(f.regression for f in findings)


def test_wall_clock_increase_past_threshold_flags():
    findings = compare_docs(_doc(wall=1.0), _doc(wall=1.5), threshold=0.25)
    flagged = [f for f in findings if f.regression]
    assert [(f.label, f.metric) for f in flagged] == [("lbm-serial", "wall_clock_s")]
    assert flagged[0].delta == pytest.approx(0.5)


def test_throughput_drop_flags_but_gain_does_not():
    worse = compare_docs(_doc(mlups=100.0), _doc(mlups=50.0), threshold=0.25)
    assert any(f.regression and f.metric == "mlups" for f in worse)
    better = compare_docs(_doc(mlups=100.0), _doc(mlups=200.0), threshold=0.25)
    assert not any(f.regression for f in better)


def test_unmatched_labels_are_skipped():
    new = _doc()
    new["results"][0]["label"] = "lbm-parallel"
    assert compare_docs(_doc(), new) == []


def test_percentile_tail_regression_detected():
    pct_old = {"kernel_seconds": [{"labels": {"device": "0"}, "p50": 1e-3, "p99": 2e-3}]}
    pct_new = {"kernel_seconds": [{"labels": {"device": "0"}, "p50": 1e-3, "p99": 5e-3}]}
    findings = compare_docs(_doc(percentiles=pct_old), _doc(percentiles=pct_new))
    tail = [f for f in findings if f.metric == "p99"]
    assert len(tail) == 1 and tail[0].regression
    assert tail[0].label == "percentiles:kernel_seconds{device=0}"
    assert not any(f.regression for f in findings if f.metric == "p50")


def test_check_regression_reads_written_documents(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(json.dumps(_doc()))
    new = write_bench_json(
        tmp_path / "new.json",
        "lbm",
        {},
        _doc(wall=2.0)["results"],
        percentiles={"kernel_seconds": []},
    )
    findings, ok = check_regression(old, new, threshold=0.25)
    assert not ok
    assert any(f.regression and f.metric == "wall_clock_s" for f in findings)


def test_read_bench_json_accepts_only_the_current_schema(tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps(_doc()))
    assert read_bench_json(p) == _doc()  # read back untouched: nothing is upgraded
    for schema in ("repro-bench/1", "repro-bench/4", "repro-bench/99", None):
        p.write_text(json.dumps(_doc(schema=schema)))
        with pytest.raises(ValueError, match="unknown bench schema"):
            read_bench_json(p)
        with pytest.raises(ValueError, match="unknown bench schema"):
            check_regression(p, p)


def test_fusion_ratio_drop_flags_on_result_entries():
    old, new = _doc(), _doc()
    old["results"][0]["fusion_ratio"] = 8.7
    new["results"][0]["fusion_ratio"] = 2.0  # chains broke
    findings = compare_docs(old, new, threshold=0.25)
    flagged = [f for f in findings if f.regression]
    assert [(f.label, f.metric) for f in flagged] == [("lbm-serial", "fusion_ratio")]
    # improvement direction never flags
    assert not any(f.regression for f in compare_docs(new, old, threshold=0.25))


def test_fusion_speedup_annotation_compared_per_mode():
    old = _doc(fusion={"speedup": {"serial": 8.0, "parallel": 5.0}})
    new = _doc(fusion={"speedup": {"serial": 2.0, "parallel": 5.1}})
    findings = compare_docs(old, new, threshold=0.25)
    flagged = [f for f in findings if f.regression]
    assert [(f.label, f.metric) for f in flagged] == [("fusion:serial", "fusion_speedup")]
    # old document without the annotation: no fusion labels to join
    assert not any(
        f.metric == "fusion_speedup" for f in compare_docs(_doc(), new, threshold=0.25)
    )


def test_render_lists_regressions_first():
    findings = compare_docs(_doc(wall=1.0, mlups=100.0), _doc(wall=2.0, mlups=100.0))
    text = render(findings, 0.25)
    lines = text.splitlines()
    assert "REGRESSION" in lines[1]
    assert lines[-1].startswith("  => 1 regression(s)")
    assert render([], 0.25).startswith("no comparable metrics")
