"""The performance dashboard behind ``python -m repro report``.

One report = one instrumented run of an experiment of
:mod:`repro.workloads` at miniature size (:func:`miniature`; ``trace``
runs the same specs) joined with its DES replay:

* measured **wall-clock** of the run, histogram summaries
  (p50/p90/p99) of every timing metric the run produced;
* the **simulated timeline** per skeleton — makespan, the exact
  critical path from the DES's binding links, the happens-before
  dependency chain (lower bound), per-device busy/blocked/idle
  utilization;
* the **attribution** joining the two worlds: the makespan decomposed
  into {kernel, copy, wait, dispatch} along the critical path, and the
  measured-wall vs modeled-makespan gap attributed to Python dispatch
  overhead (the interpreter cost the fusion roadmap item targets);
* a **flight-recorder sample** so the artifact doubles as a post-mortem
  format example.

Renderers: :func:`to_text` (terminal), :func:`to_html` (a static
zero-dependency page CI uploads), and the report dict itself is the
JSON form.
"""

from __future__ import annotations

import html as _html
import json
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
    """The spec ``trace`` and ``report`` run for one experiment."""
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
    "launch_cost_bytes",
    "allocation_size_bytes",
)


def build_report(exp: str, devices: int = 4, mode: str = "serial") -> dict:
    """Run the miniature instrumented and join it with its DES replay.

    ``mode`` is the replay mode of the run and the host-dispatch model of
    the simulated side.
    """
    spec = miniature(exp, devices, mode)
    app = build(spec)
    prev = (obs.OBS.active, obs.OBS.tracer, obs.OBS.metrics)
    obs.enable()
    try:
        app.run()  # warm-up: compile + freeze every program
        app.reset()
        tracer = obs.tracer()
        t0 = perf_counter()
        app.run()
        wall = perf_counter() - t0
        # replays per skeleton in the timed run, as the tracer saw them
        # (a CG solve may converge before its iteration budget)
        runs = Counter(
            s.args["skeleton"]
            for s in tracer.spans
            if s.name.startswith("skeleton.run:") and s.start >= t0 - tracer.epoch
        )
        registry = obs.metrics()
        histograms = {
            name: registry.histogram_summaries(name)
            for name in _HISTOGRAMS
            if registry.series(name)
        }
        label_overflows = dict(registry.label_overflows)
    finally:
        obs.OBS.active, obs.OBS.tracer, obs.OBS.metrics = prev
        app.close()

    skeletons = []
    modeled_total = 0.0
    breakdown = {"kernel": 0.0, "copy": 0.0, "wait": 0.0, "dispatch": 0.0}
    util_acc: dict[int, dict[str, float]] = {}
    for sk in app.skeletons:
        result = sk.last_result or sk.record()
        trace = sim_replay(result, sk.backend.machine, mode=mode)
        cp = critical_path(trace)
        dep = dependency_chain(result.queues, sk.backend.machine)
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

    attribution = dict(breakdown)
    attribution["makespan"] = modeled_total
    attribution["wall_seconds"] = wall
    attribution["python_dispatch_overhead"] = max(0.0, wall - modeled_total)

    return {
        "schema": REPORT_SCHEMA,
        "exp": exp,
        "description": spec.label,
        "devices": devices,
        "mode": mode,
        "iterations": spec.steps,
        "wall_seconds": wall,
        "sim_makespan_s": modeled_total,
        "attribution": attribution,
        "utilization": utilization,
        "skeletons": skeletons,
        "histograms": histograms,
        "label_overflows": label_overflows,
        "flight_sample": _flight.FLIGHT.snapshot(),
    }


# -- renderers ---------------------------------------------------------------
def _bar(fraction: float, width: int = 40) -> str:
    n = max(0, min(width, round(fraction * width)))
    return "#" * n + "." * (width - n)


def _fmt_s(v: float) -> str:
    return f"{v:.3e} s" if v < 1e-3 else f"{v:.4f} s"


def to_text(report: dict) -> str:
    """Terminal dashboard: attribution, utilization bars, histograms, path."""
    lines = [
        f"== repro report: {report['exp']} ==",
        f"{report['description']}",
        f"devices={report['devices']} mode={report['mode']} iterations={report['iterations']}",
        "",
        "-- wall-clock attribution --",
    ]
    att = report["attribution"]
    lines.append(f"measured wall        {_fmt_s(att['wall_seconds'])}")
    lines.append(f"modeled makespan     {_fmt_s(att['makespan'])}   (critical-path exact)")
    for key, label in (
        ("kernel", "  kernel time"),
        ("copy", "  copy time"),
        ("wait", "  wait time"),
        ("dispatch", "  modeled dispatch"),
    ):
        lines.append(f"{label:<21}{_fmt_s(att[key])}")
    gap = att["python_dispatch_overhead"]
    pct = 100.0 * gap / att["wall_seconds"] if att["wall_seconds"] else 0.0
    lines.append(f"python dispatch gap  {_fmt_s(gap)}   ({pct:.1f}% of wall)")
    lines.append("")
    lines.append("-- device utilization (simulated; busy # / blocked ~ / idle .) --")
    for dev, u in report["utilization"].items():
        bar = _bar(u["busy"])
        nb = round(u["blocked"] * 40)
        busy_n = bar.count("#")
        bar = bar[:busy_n] + "~" * min(nb, 40 - busy_n) + bar[busy_n + min(nb, 40 - busy_n):]
        lines.append(
            f"device{dev} |{bar}| busy {100 * u['busy']:5.1f}%  "
            f"blocked {100 * u['blocked']:5.1f}%  idle {100 * u['idle']:5.1f}%"
        )
    lines.append("")
    lines.append("-- timing histograms --")
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
    lines.append("")
    for entry in report["skeletons"]:
        cp = entry["critical_path"]
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


def to_html(report: dict) -> str:
    """A static, zero-dependency HTML dashboard (CI artifact)."""
    att = report["attribution"]
    esc = _html.escape

    def row(cells, tag="td"):
        return "<tr>" + "".join(f"<{tag}>{c}</{tag}>" for c in cells) + "</tr>"

    util_rows = []
    for dev, u in report["utilization"].items():
        bar = (
            f"<div class='bar'>"
            f"<span class='busy' style='width:{100 * u['busy']:.1f}%'></span>"
            f"<span class='blocked' style='width:{100 * u['blocked']:.1f}%'></span>"
            f"</div>"
        )
        util_rows.append(
            row(
                [
                    f"device{dev}",
                    bar,
                    f"{100 * u['busy']:.1f}%",
                    f"{100 * u['blocked']:.1f}%",
                    f"{100 * u['idle']:.1f}%",
                ]
            )
        )

    hist_rows = []
    for name, series in report["histograms"].items():
        for s in series:
            if not s.get("count"):
                continue
            labels = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items())) or "-"
            hist_rows.append(
                row(
                    [
                        esc(name),
                        esc(labels),
                        s["count"],
                        f"{s['mean']:.3e}",
                        f"{s.get('p50', 0.0):.3e}",
                        f"{s.get('p90', 0.0):.3e}",
                        f"{s.get('p99', 0.0):.3e}",
                    ]
                )
            )

    path_rows = []
    for entry in report["skeletons"]:
        cp = entry["critical_path"]
        path_rows.append(
            f"<h3>{esc(entry['name'])} — path total {cp['total']:.3e}s "
            f"(= makespan), hb lower bound {entry['dependency_chain']['total']:.3e}s</h3>"
        )
        seg_rows = [
            row(
                [
                    esc(seg["kind"]),
                    f"device{seg['device']}",
                    esc(seg["name"]),
                    f"{seg['end'] - seg['start']:.3e}",
                    f"{seg['gap']:.3e}",
                    esc(seg["cause"] or "-"),
                ]
            )
            for seg in cp["segments"]
        ]
        path_rows.append(
            "<table>"
            + row(["kind", "device", "command", "duration (s)", "gap (s)", "bound by"], tag="th")
            + "".join(seg_rows)
            + "</table>"
        )

    gap_pct = 100.0 * att["python_dispatch_overhead"] / att["wall_seconds"] if att["wall_seconds"] else 0.0
    return f"""<!doctype html>
<html><head><meta charset="utf-8"><title>repro report: {esc(report["exp"])}</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 70em; color: #222; }}
table {{ border-collapse: collapse; margin: 0.7em 0; }}
th, td {{ border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: left; font-variant-numeric: tabular-nums; }}
th {{ background: #f2f2f2; }}
.bar {{ display: inline-block; width: 22em; height: 1em; background: #eee; vertical-align: middle; }}
.bar span {{ display: inline-block; height: 100%; float: left; }}
.bar .busy {{ background: #4a8; }}
.bar .blocked {{ background: #e94; }}
.kpi {{ font-size: 1.1em; }}
</style></head><body>
<h1>repro report: {esc(report["exp"])}</h1>
<p>{esc(report["description"])} — devices={report["devices"]}, mode={esc(report["mode"])},
iterations={report["iterations"]}</p>
<h2>Wall-clock attribution</h2>
<table class="kpi">
{row(["measured wall", f"{att['wall_seconds']:.4f} s"])}
{row(["modeled makespan (critical path)", f"{att['makespan']:.3e} s"])}
{row(["kernel / copy / wait / dispatch", f"{att['kernel']:.3e} / {att['copy']:.3e} / {att['wait']:.3e} / {att['dispatch']:.3e} s"])}
{row(["python dispatch overhead", f"{att['python_dispatch_overhead']:.4f} s ({gap_pct:.1f}% of wall)"])}
</table>
<h2>Device utilization (simulated)</h2>
<table>
{row(["device", "timeline", "busy", "blocked", "idle"], tag="th")}
{"".join(util_rows)}
</table>
<h2>Timing histograms</h2>
<table>
{row(["metric", "labels", "n", "mean", "p50", "p90", "p99"], tag="th")}
{"".join(hist_rows) or row(["(none)", "", "", "", "", "", ""])}
</table>
<h2>Critical paths</h2>
{"".join(path_rows)}
<h2>Raw report</h2>
<details><summary>JSON</summary><pre>{esc(json.dumps(report, indent=2))}</pre></details>
</body></html>
"""


# -- chaos soak rendering ----------------------------------------------------
def chaos_to_text(doc: dict) -> str:
    """Terminal rendering of a ``repro-chaos/1`` document."""
    ev, rec, result = doc["events"], doc["recoveries"], doc["result"]
    verdict = "SURVIVED" if doc["ok"] else "FAILED"
    lines = [
        f"== chaos soak: {doc['workload']} (seed {doc['seed']}) — {verdict} ==",
        f"devices={doc['devices']} -> {doc['surviving_devices']} surviving, steps={doc['steps']}",
        "",
        "-- fault storm --",
        f"events total         {ev['total']}  (requested >= {ev['requested']})",
    ]
    for kind, n in sorted(ev["injected"].items()):
        lines.append(f"  injected {kind:<10} {n}")
    lines.append(f"  device losses      {ev['device_losses']}")
    lines.append(f"  checkpoint tampers {ev['checkpoint_tampers']}")
    lines.append("")
    lines.append("-- recovery --")
    ck = rec["checkpoints"]
    lines.append(f"rollbacks            {rec['rollbacks']}")
    lines.append(
        f"checkpoint fallbacks {ck.get('fallbacks', 0)}  "
        f"(corrupt generations dropped: {ck.get('corrupt_dropped', 0)}, "
        f"max restore depth: {ck.get('max_restore_depth', 0)})"
    )
    lines.append(f"online retunes       {rec['retunes']}")
    lines.append(f"recovery wall-clock  {rec['recovery_seconds']:.3f} s")
    for rep in doc["degrade_reports"]:
        lines.append(
            f"degrade -> {rep['devices']} devices: occ={rep['occ']} mode={rep['mode']} "
            f"shares=[{' '.join(f'{s:.3f}' for s in rep['shares'])}]  "
            f"tuned {rep['tuned_makespan'] * 1e3:.3f} ms vs uniform "
            f"{rep['uniform_makespan'] * 1e3:.3f} ms ({100 * rep['improvement']:.1f}% better)"
        )
    if doc["flight_kinds"]:
        kinds = "  ".join(f"{k}={n}" for k, n in doc["flight_kinds"].items())
        lines.append(f"flight-ring events   {kinds}")
    lines.append("")
    lines.append(
        "-- result vs fault-free reference --\n"
        + (
            "bitwise identical"
            if result["match_bitwise"]
            else f"MISMATCH: max |err| = {result['max_abs_error']:.3e}"
        )
    )
    return "\n".join(lines)


def chaos_to_html(doc: dict) -> str:
    """A static, zero-dependency HTML chaos report (CI artifact)."""
    esc = _html.escape
    ev, rec, result = doc["events"], doc["recoveries"], doc["result"]
    ck = rec["checkpoints"]

    def row(cells, tag="td"):
        return "<tr>" + "".join(f"<{tag}>{c}</{tag}>" for c in cells) + "</tr>"

    injected_rows = "".join(
        row([esc(kind), n]) for kind, n in sorted(ev["injected"].items())
    )
    degrade_rows = "".join(
        row(
            [
                rep["devices"],
                esc(rep["occ"]),
                esc(rep["mode"]),
                " ".join(f"{s:.3f}" for s in rep["shares"]),
                f"{rep['tuned_makespan'] * 1e3:.3f}",
                f"{rep['uniform_makespan'] * 1e3:.3f}",
                f"{100 * rep['improvement']:.1f}%",
            ]
        )
        for rep in doc["degrade_reports"]
    )
    verdict = "SURVIVED" if doc["ok"] else "FAILED"
    color = "#4a8" if doc["ok"] else "#d33"
    bitwise = (
        "bitwise identical"
        if result["match_bitwise"]
        else f"MISMATCH (max |err| = {result['max_abs_error']:.3e})"
    )
    return f"""<!doctype html>
<html><head><meta charset="utf-8"><title>chaos soak: {esc(doc["workload"])}</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 60em; color: #222; }}
table {{ border-collapse: collapse; margin: 0.7em 0; }}
th, td {{ border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: left; font-variant-numeric: tabular-nums; }}
th {{ background: #f2f2f2; }}
.verdict {{ color: {color}; font-weight: bold; }}
</style></head><body>
<h1>chaos soak: {esc(doc["workload"])} — <span class="verdict">{verdict}</span></h1>
<p>seed {doc["seed"]}, {doc["steps"]} steps, devices {doc["devices"]} &rarr;
{doc["surviving_devices"]} surviving; result vs fault-free reference: <b>{esc(bitwise)}</b></p>
<h2>Fault storm ({ev["total"]} events, requested &ge; {ev["requested"]})</h2>
<table>
{row(["kind", "count"], tag="th")}
{injected_rows}
{row(["device losses", ev["device_losses"]])}
{row(["checkpoint tampers", ev["checkpoint_tampers"]])}
</table>
<h2>Recovery</h2>
<table>
{row(["rollbacks", rec["rollbacks"]])}
{row(["checkpoint fallbacks", f"{ck.get('fallbacks', 0)} (corrupt dropped {ck.get('corrupt_dropped', 0)}, max depth {ck.get('max_restore_depth', 0)})"])}
{row(["online retunes", rec["retunes"]])}
{row(["recovery wall-clock", f"{rec['recovery_seconds']:.3f} s"])}
</table>
<h2>Tuned degradation</h2>
<table>
{row(["devices", "occ", "mode", "shares", "tuned (ms)", "uniform (ms)", "improvement"], tag="th")}
{degrade_rows or row(["(no device losses)", "", "", "", "", "", ""])}
</table>
<h2>Raw report</h2>
<details><summary>JSON</summary><pre>{esc(json.dumps(doc, indent=2))}</pre></details>
</body></html>
"""


__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "chaos_to_html",
    "chaos_to_text",
    "miniature",
    "to_html",
    "to_text",
]
