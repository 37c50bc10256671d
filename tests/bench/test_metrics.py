import pytest

from repro.bench import format_table, lups, mlups, parallel_efficiency, wall_time


def test_parallel_efficiency_ideal():
    # n GPUs each n-times faster: ideal scaling
    assert parallel_efficiency(8.0, 1.0, 8) == pytest.approx(1.0)


def test_parallel_efficiency_degraded():
    assert parallel_efficiency(8.0, 2.0, 8) == pytest.approx(0.5)


def test_superlinear_allowed():
    assert parallel_efficiency(10.0, 1.0, 8) > 1.0


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        parallel_efficiency(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        parallel_efficiency(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        mlups(100, 1, 0.0)


def test_mlups_and_lups():
    assert mlups(1_000_000, 10, 2.0) == pytest.approx(5.0)
    assert lups(1000, 1, 1.0) == pytest.approx(1000.0)


def test_format_table_aligns():
    out = format_table(["a", "bbbb"], [[1, 2.5], [33, 0.0001]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbbb" in lines[1]
    assert len({len(l) for l in lines[1:]}) <= 2  # header/sep/rows aligned


def test_wall_time_measures_positive():
    t = wall_time(lambda: sum(range(1000)), repeats=2, warmup=1)
    assert t > 0
