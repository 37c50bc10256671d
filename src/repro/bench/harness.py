"""Small harness utilities shared by the per-table/figure benchmarks.

Besides the text-table helpers the benchmarks print, this module owns
the one machine-readable report ``python -m repro serve -o`` writes:
:func:`write_bench_json` emits a document (schema ``repro-bench/5``)
recording the experiment id, its parameters, the runtime environment
(python / numpy versions, usable CPU core count — essential context for
wall-clock numbers), one entry per measured configuration, and an
optional ``percentiles`` annotation (per-site latency distributions
from the instrumented run).  It is a report for a reader; nothing gates
on it — regressions are judged by ``perf/run.py`` + ``BENCHMARK.json``.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import sys
import time
from collections.abc import Callable

BENCH_SCHEMA = "repro-bench/5"


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Render a compact, aligned text table (what the bench runs print)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e4 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.3f}"
    return str(v)


def wall_time(fn: Callable[[], None], repeats: int = 3, warmup: int = 1) -> float:
    """Best-of-N wall-clock seconds of ``fn`` (after warm-up runs)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_env() -> dict:
    """Runtime context stamped into every benchmark document.

    Wall-clock numbers are meaningless without it: a thread-per-device
    engine cannot beat serial replay on a single usable core, so
    ``cpu_count`` is the first thing a reader must check before
    comparing modes.
    """
    import numpy

    from repro.system.engine import usable_cpu_count

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": usable_cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def write_bench_json(
    path,
    exp: str,
    params: dict,
    results: list[dict],
    percentiles: dict | None = None,
) -> pathlib.Path:
    """Write one ``repro-bench/5`` document and return its path.

    ``results`` entries carry at least ``label`` plus whatever the
    experiment measures; extra keys pass through untouched.
    ``percentiles`` maps metric names to a list of
    ``{labels, count, mean, p50, p90, p99}`` series and is omitted from
    the document when None.
    """
    doc = {
        "schema": BENCH_SCHEMA,
        "exp": exp,
        "params": params,
        "env": bench_env(),
        "results": results,
    }
    if percentiles is not None:
        doc["percentiles"] = percentiles
    out = pathlib.Path(path)
    out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return out
