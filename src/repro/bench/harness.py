"""Small harness utilities shared by the per-table/figure benchmarks.

Besides the text-table helpers the benchmarks print, this module owns
the machine-readable result format: :func:`write_bench_json` emits a
``BENCH_<exp>.json`` document (schema ``repro-bench/5``) recording the
experiment id, its parameters, the runtime environment (python / numpy
versions, usable CPU core count — essential context for wall-clock
numbers), and one entry per measured configuration with wall-clock
seconds, simulated makespan and MLUPS (the ``bench`` miniatures add a
``fused`` flag per row).  Three optional top-level annotations ride
along: ``percentiles`` (per-site latency distributions from an
instrumented pass), ``critical_path`` (the modeled makespan's exact
attribution) and ``fusion`` (static ``fusion_ratio`` / ``fused_steps``
/ per-mode ``speedup`` from a fused-vs-unfused sweep).  There is one
schema: :func:`read_bench_json` rejects every other version, so
regenerate a baseline rather than comparing across versions.  CI
uploads these artifacts so the perf trajectory of the repo is diffable
across commits, and ``python -m repro report --compare old.json
new.json`` (see :mod:`repro.bench.regress`) turns a pair of them into a
regression verdict.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import sys
import time
from collections.abc import Callable, Iterable

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


def sweep(values: Iterable, fn: Callable) -> list:
    """Evaluate ``fn`` over a parameter axis, returning [(value, result)]."""
    return [(v, fn(v)) for v in values]


def usable_cpu_count() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def bench_env() -> dict:
    """Runtime context stamped into every benchmark document.

    Wall-clock numbers are meaningless without it: a thread-per-device
    engine cannot beat serial replay on a single usable core, so
    ``cpu_count`` is the first thing a reader (or CI tripwire) must
    check before comparing modes.
    """
    import numpy

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
    critical_path: dict | None = None,
    fusion: dict | None = None,
) -> pathlib.Path:
    """Write one ``BENCH_<exp>.json`` document and return its path.

    ``results`` entries carry at least ``label`` plus whichever of
    ``wall_clock_s`` / ``sim_makespan_s`` / ``mlups`` the experiment
    measures; extra keys pass through untouched.  The optional
    annotations: ``percentiles`` maps metric names to a list of
    ``{labels, count, mean, p50, p90, p99}`` series (from an
    instrumented pass), ``critical_path`` is the modeled makespan's
    attribution (:meth:`repro.observability.CriticalPath.to_json`-shaped),
    ``fusion`` summarises the fused-vs-unfused sweep: static
    ``fusion_ratio`` / ``fused_steps`` / ``dispatch_units`` plus a
    per-mode ``speedup`` map (unfused wall / fused wall).  Each is
    omitted from the document when None.
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
    if critical_path is not None:
        doc["critical_path"] = critical_path
    if fusion is not None:
        doc["fusion"] = fusion
    out = pathlib.Path(path)
    out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return out


def read_bench_json(path) -> dict:
    """Load a ``BENCH_*.json`` document of the current schema.

    Any other schema raises ``ValueError`` rather than silently
    comparing apples to oranges.
    """
    doc = json.loads(pathlib.Path(path).read_text())
    schema = doc.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(f"{path}: unknown bench schema {schema!r}; expected {BENCH_SCHEMA!r}")
    return doc
