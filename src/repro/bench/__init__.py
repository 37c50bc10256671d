"""Benchmark harness: metrics, table formatting, result persistence.

Heavier pieces — the fault harness (:mod:`repro.bench.chaos`) and the
one instrumented run behind ``repro trace`` (:mod:`repro.bench.dashboard`) — are
imported explicitly by their users rather than re-exported here, so
``import repro.bench`` stays cheap.  Performance regressions are judged
by the repo's benchmark (``perf/run.py`` + ``BENCHMARK.json``), not here.
"""

from .harness import format_table, wall_time, write_bench_json
from .metrics import lups, mlups, parallel_efficiency
from .plot import ascii_plot
from .report import save_result

__all__ = [
    "ascii_plot",
    "format_table",
    "lups",
    "mlups",
    "parallel_efficiency",
    "save_result",
    "wall_time",
    "write_bench_json",
]
