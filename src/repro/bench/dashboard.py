"""The one instrumented run behind ``python -m repro trace``.

One run of an experiment of :mod:`repro.workloads` at miniature size
(:func:`miniature`) beside its DES replay, written as one Perfetto
document: the real and ``sim:`` timelines, the metrics, and the report
below under ``"report"``.  The report's two halves read two different
clocks and no number is computed from both:

* **measured** (host wall-clock): the run's ``wall_seconds`` and the
  histogram summaries (p50/p90/p99) of every timing metric it produced;
* **modeled** (the DES of the backend's machine model): per skeleton the
  makespan, the exact critical path from the DES's binding links, the
  happens-before dependency chain (lower bound) and per-device
  busy/blocked/idle utilization; in total ``sim_makespan_s`` and its
  {kernel, copy, wait, dispatch} breakdown along the critical paths;
* a **flight-recorder sample** so the artifact doubles as a post-mortem
  format example.

:func:`to_text` is the report's one terminal view.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from repro import observability as obs
from repro.observability import flight as _flight
from repro.observability.critpath import critical_path, dependency_chain, device_utilization
from repro.sim.replay import sim_replay
from repro.workloads import JobSpec, build, check_experiment

REPORT_SCHEMA = "repro-report/1"

#: experiment -> (shape, steps): small enough to execute for real in a
#: second or two, large enough that the tracer sees compile phases,
#: kernel launches and halo copies of non-trivial size
_MINIATURES = {
    "lbm": ((16, 16, 16), 2),
    "karman": ((24, 48), 4),
    "poisson": ((24, 24, 24), 4),
    "elasticity": ((12,), 2),
}


def miniature(exp: str, devices: int, mode: str = "serial", fused: bool = True) -> JobSpec:
    """The spec ``trace`` runs for one experiment."""
    shape, steps = _MINIATURES[check_experiment(exp)]
    return JobSpec.make(exp, shape, steps, devices=devices, mode=mode, fused=fused)

#: the timing/size histograms worth a table row in the dashboard
_HISTOGRAMS = (
    "kernel_seconds",
    "copy_seconds",
    "replay_seconds",
    "serve_job_seconds",
    "serve_queue_wait_seconds",
    "engine_batch_seconds",
    "copy_size_bytes",
    "allocation_size_bytes",
)


def trace_report(exp: str, path, devices: int = 2, mode: str = "serial", fused: bool = True) -> dict:
    """Run the miniature, write its Perfetto document to ``path``, return the report.

    The caller arms observability (``python -m repro trace`` does).  After
    the warm-up the registry is replaced, so the report's histograms and
    the registry left armed describe the timed run alone; the tracer keeps
    both runs for the Perfetto document.  ``mode`` is the replay mode of
    the run and the host-dispatch model of the DES.
    """
    spec = miniature(exp, devices, mode, fused)
    app = build(spec)
    try:
        app.run()  # warm-up: compile + freeze every program
        app.reset()
        tracer = obs.tracer()
        obs.OBS.metrics = registry = obs.MetricsRegistry()
        t0 = perf_counter()
        app.run()
        wall = perf_counter() - t0
    finally:
        app.close()
    # replays per skeleton in the timed run, as the tracer saw them (a CG
    # solve may converge before its iteration budget; its flush skeleton
    # is not one of ``app.skeletons`` but its time is in ``wall``)
    runs = Counter(
        s.args["skeleton"]
        for s in tracer.spans
        if s.name.startswith("skeleton.run:") and s.start >= t0 - tracer.epoch
    )
    flush = [app.cg.sk_flush] if hasattr(app, "cg") else []

    skeletons = []
    modeled_total = 0.0
    breakdown = {"kernel": 0.0, "copy": 0.0, "wait": 0.0, "dispatch": 0.0}
    util_acc: dict[int, dict[str, float]] = {}
    first = app.step_skeletons[0]
    for sk in [*app.skeletons, *flush]:
        if not runs[sk.name]:
            continue
        trace = sim_replay(sk.last_result, sk.backend.machine, mode=mode)
        if sk is first:
            sim = trace  # the sim: tracks of the Perfetto document
        cp = critical_path(trace)
        dep = dependency_chain(sk.last_result.queues, sk.backend.machine)
        util = device_utilization(trace)
        weight = trace.makespan * runs[sk.name]
        modeled_total += weight
        for k in breakdown:
            breakdown[k] += cp.breakdown[k] * runs[sk.name]
        for dev, fractions in util.items():
            acc = util_acc.setdefault(dev, {"busy": 0.0, "blocked": 0.0, "idle": 0.0, "_w": 0.0})
            for k in ("busy", "blocked", "idle"):
                acc[k] += fractions[k] * weight
            acc["_w"] += weight
        skeletons.append(
            {
                "name": sk.name,
                "runs": runs[sk.name],
                "num_waits": sk.stats.num_waits,
                "sim_makespan_s": trace.makespan,
                "critical_path": cp.to_json(),
                "dependency_chain": {"total": dep.total, "commands": list(dep.commands)},
                "utilization": util,
            }
        )

    # makespan-weighted average utilization across the replayed skeletons
    utilization = {
        dev: {k: (acc[k] / acc["_w"] if acc["_w"] else 0.0) for k in ("busy", "blocked", "idle")}
        for dev, acc in sorted(util_acc.items())
    }

    report = {
        "schema": REPORT_SCHEMA,
        "exp": exp,
        "description": spec.label,
        "devices": devices,
        "mode": mode,
        "iterations": spec.steps,
        # measured: host wall-clock
        "wall_seconds": wall,
        "histograms": {
            name: registry.histogram_summaries(name) for name in _HISTOGRAMS if registry.series(name)
        },
        "label_overflows": dict(registry.label_overflows),
        # modeled: the DES of ``machine``
        "machine": app.backend.machine.name,
        "sim_makespan_s": modeled_total,
        "attribution": breakdown,
        "utilization": utilization,
        "skeletons": skeletons,
        "flight_sample": _flight.FLIGHT.snapshot(),
    }
    doc = obs.merge_chrome_traces(
        real_events=tracer.to_chrome_trace(),
        sim_events=sim.to_chrome_trace(),
        metrics=registry.to_json(),
        meta={"experiment": exp, "workload": spec.label, "devices": devices},
    )
    obs.write_chrome_trace(path, {**doc, "report": report})
    return report


# -- renderers ---------------------------------------------------------------
def _bar(fraction: float, width: int = 40) -> str:
    n = max(0, min(width, round(fraction * width)))
    return "#" * n + "." * (width - n)


def _fmt_s(v: float) -> str:
    return f"{v:.3e} s" if v < 1e-3 else f"{v:.4f} s"


def to_text(report: dict) -> str:
    """Terminal view: the measured section, then the modeled section."""
    lines = [
        f"== repro trace: {report['exp']} ==",
        f"{report['description']}",
        f"devices={report['devices']} mode={report['mode']} iterations={report['iterations']}",
        "",
        "== measured: host wall-clock ==",
        f"wall                 {_fmt_s(report['wall_seconds'])}",
        "-- timing histograms --",
    ]
    any_hist = False
    for name, series in report["histograms"].items():
        for s in series:
            labels = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items())) or "-"
            if not s.get("count"):
                continue
            any_hist = True
            lines.append(
                f"{name}{{{labels}}}: n={s['count']} mean={s['mean']:.3e} "
                f"p50={s.get('p50', 0.0):.3e} p90={s.get('p90', 0.0):.3e} p99={s.get('p99', 0.0):.3e}"
            )
    if not any_hist:
        lines.append("(no histogram series recorded)")
    lines += ["", f"== modeled: DES of {report['machine']} ==", "-- critical-path breakdown --"]
    lines.append(f"makespan             {_fmt_s(report['sim_makespan_s'])}   (critical-path exact)")
    att = report["attribution"]
    for key, label in (
        ("kernel", "  kernel time"),
        ("copy", "  copy time"),
        ("wait", "  wait time"),
        ("dispatch", "  modeled dispatch"),
    ):
        lines.append(f"{label:<21}{_fmt_s(att[key])}")
    lines.append("")
    lines.append("-- device utilization (busy # / blocked ~ / idle .) --")
    for dev, u in report["utilization"].items():
        bar = _bar(u["busy"])
        nb = round(u["blocked"] * 40)
        busy_n = bar.count("#")
        bar = bar[:busy_n] + "~" * min(nb, 40 - busy_n) + bar[busy_n + min(nb, 40 - busy_n):]
        lines.append(
            f"device{dev} |{bar}| busy {100 * u['busy']:5.1f}%  "
            f"blocked {100 * u['blocked']:5.1f}%  idle {100 * u['idle']:5.1f}%"
        )
    for entry in report["skeletons"]:
        cp = entry["critical_path"]
        lines.append("")
        lines.append(
            f"-- critical path: {entry['name']} "
            f"(total {_fmt_s(cp['total'])} == makespan; "
            f"hb lower bound {_fmt_s(entry['dependency_chain']['total'])}) --"
        )
        for seg in cp["segments"][-8:]:
            gap = f" (+{seg['gap']:.2e}s {seg['cause'] or 'start'})" if seg["gap"] > 0 else ""
            lines.append(
                f"  [{seg['kind']:<6}] dev{seg['device']} {seg['name']:<28}"
                f" {seg['end'] - seg['start']:.3e}s{gap}"
            )
        if len(cp["segments"]) > 8:
            lines.append(f"  ... ({len(cp['segments']) - 8} earlier segments elided)")
    return "\n".join(lines)


__all__ = [
    "REPORT_SCHEMA",
    "miniature",
    "to_text",
    "trace_report",
]
