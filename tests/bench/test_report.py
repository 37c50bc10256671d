import json

from repro.bench.report import RESULTS_DIR


def test_save_and_load_round_trip(tmp_path, monkeypatch):
    import repro.bench.report as report

    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path / "out")
    data = {"series": [1, 2, 3], "meta": {"n": 8}}
    path = report.save_result("unit", data)
    assert path.exists()
    assert json.loads(path.read_text()) == data


def test_results_dir_points_into_benchmarks():
    assert RESULTS_DIR.parts[-2:] == ("benchmarks", "out")
