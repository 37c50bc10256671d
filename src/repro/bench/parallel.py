"""Execution-mode miniature benchmarks behind ``python -m repro bench``.

These are small *really-executed* workloads (no virtual planning-only
domains): each runs the same compiled skeletons in every execution mode
(:data:`repro.system.EXECUTION_MODES`), measures best-of-``REPEATS``
wall-clock over a fixed iteration count (single timings on a shared
host are too noisy to gate CI on), and reports the DES makespan of one
iteration alongside, so the document shows both the measured host time
and the modelled device time.

Caveat recorded in every document's ``env.cpu_count``: a cross-device
speedup needs multiple usable cores and NumPy/C kernels releasing the
GIL across the parallel engine's worker threads.  On a single-core
machine parallel mode measures pure engine overhead; the CI tripwire
bounds that overhead (parallel <= ``tripwire`` x serial) rather than
asserting a speedup it cannot deliver there.
"""

from __future__ import annotations

import contextlib
import time

from repro.skeleton import fusion
from repro.system import EXECUTION_MODES

from .harness import usable_cpu_count, write_bench_json
from .metrics import mlups

REPEATS = 3  # best-of-N: single timings on a shared/loaded host swing widely


def _best_wall(run_once, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_once()
        best = min(best, time.perf_counter() - t0)
    return best


def _fuse_ctx(fuse: bool):
    return contextlib.nullcontext() if fuse else fusion.disabled()


def _label(exp: str, mode: str, fuse: bool) -> str:
    return f"{exp}-{mode}" if fuse else f"{exp}-{mode}-unfused"


def _fusion_stats(skeletons) -> dict:
    """Aggregate static fusion stats over the skeletons' frozen programs."""
    steps = units = fused = 0
    for sk in skeletons:
        program = sk.plan._ensure_program()
        steps += len(program.steps)
        units += program.stats.dispatch_units or len(program.steps)
        fused += program.stats.fused_steps
    return {
        "compiled_steps": steps,
        "dispatch_units": units,
        "fused_steps": fused,
        "fusion_ratio": (steps / units) if units else 1.0,
    }


def _bench_lbm(devices: int, iters: int, shape, mode: str, fuse: bool = True) -> dict:
    from repro.solvers.lbm import LidDrivenCavity
    from repro.system import Backend

    with _fuse_ctx(fuse):
        cavity = LidDrivenCavity(Backend.sim_gpus(devices), shape)
        cavity.step(2, mode=mode)  # warm-up: compile + freeze both parity programs
        wall = _best_wall(lambda: cavity.step(iters, mode=mode))
    entry = {
        "label": _label("lbm", mode, fuse),
        "mode": mode,
        "fused": fuse,
        "wall_clock_s": wall,
        "sim_makespan_s": cavity.iteration_makespan() * iters,
        "mlups": mlups(cavity.grid.num_active, iters, wall),
    }
    if fuse:
        entry.update(_fusion_stats(cavity.skeletons))
    return entry


def _bench_poisson(devices: int, iters: int, shape, mode: str, fuse: bool = True) -> dict:
    import numpy as np

    from repro.solvers.poisson import PoissonSolver
    from repro.system import Backend

    with _fuse_ctx(fuse):
        solver = PoissonSolver(Backend.sim_gpus(devices), shape)
        # constant rhs (the fig8 idiom): it excites many Laplacian
        # eigenmodes, so CG sustains full iterations instead of converging
        # in two Krylov steps the way the eigen-sparse manufactured
        # problem does
        solver.set_rhs(lambda z, y, x: np.ones(z.shape, dtype=np.float64))
        solver.cg.mode = mode
        solver.cg.begin(tolerance=1e-12)  # compiles + freezes the init program
        solver.cg.iterate()  # warm-up: freezes the two iteration programs

        done = iters

        def run_once() -> None:
            nonlocal done
            # restart from the current iterate: each repeat times an
            # identical n-iteration Krylov stretch (CG restarts soundly)
            solver.cg.begin(tolerance=1e-12)
            before = solver.cg.result.iterations
            for _ in range(iters):
                if solver.cg.iterate():
                    break
            done = max(solver.cg.result.iterations - before, 1)

        wall = _best_wall(run_once)
    entry = {
        "label": _label("poisson", mode, fuse),
        "mode": mode,
        "fused": fuse,
        "wall_clock_s": wall,
        "sim_makespan_s": solver.iteration_makespan() * done,
        "mlups": mlups(solver.grid.num_active, done, wall),
        "iterations_run": done,
    }
    if fuse:
        entry.update(_fusion_stats([solver.cg.sk_a, solver.cg.sk_b]))
    return entry


BENCHES = {
    "lbm": (_bench_lbm, (24, 24, 24), 20, "4-device LBM D3Q19 lid-driven cavity miniature"),
    "poisson": (_bench_poisson, (48, 48, 48), 20, "4-device Poisson CG miniature"),
}


def run_bench(
    exp: str,
    devices: int = 4,
    iters: int | None = None,
    modes: tuple[str, ...] = EXECUTION_MODES,
    fuse: bool = True,
) -> dict:
    """Run one miniature in each requested mode; return the report dict.

    The report carries the per-mode measurements plus, when the modes
    ran, ``speedup_parallel`` (serial wall-clock / parallel wall-clock —
    above 1.0 means parallel won).  With ``fuse=True`` (the default)
    every mode runs twice — fused dispatch and, for the comparison
    column, a ``--no-fuse`` leg — and the report gains a ``fusion``
    annotation: the static chain stats of the frozen programs plus the
    measured per-mode ``speedup`` (unfused wall / fused wall).
    ``speedup_parallel`` is computed from the fused legs, which are the
    default dispatch path.  With ``fuse=False`` only unfused legs run.
    """
    if exp not in BENCHES:
        supported = ", ".join(sorted(BENCHES))
        raise KeyError(f"no parallel-mode bench for '{exp}'; supported: {supported}")
    fn, shape, default_iters, description = BENCHES[exp]
    iters = default_iters if iters is None else iters
    results = []
    for mode in modes:
        if fuse:
            results.append(fn(devices, iters, shape, mode, fuse=True))
        results.append(fn(devices, iters, shape, mode, fuse=False))
    report = {
        "exp": exp,
        "description": description,
        "params": {
            "command": f"python -m repro bench {exp} --json --devices {devices} --iters {iters}"
            + ("" if fuse else " --no-fuse"),
            "devices": devices,
            "iters": iters,
            "shape": list(shape),
            "modes": list(modes),
            "fuse": fuse,
        },
        "results": results,
    }
    primary = {r["mode"]: r["wall_clock_s"] for r in results if r["fused"] == fuse}
    if "serial" in primary and "parallel" in primary and primary["parallel"] > 0:
        report["speedup_parallel"] = primary["serial"] / primary["parallel"]
    if fuse:
        fused_walls = {r["mode"]: r["wall_clock_s"] for r in results if r["fused"]}
        unfused_walls = {r["mode"]: r["wall_clock_s"] for r in results if not r["fused"]}
        stats = next((r for r in results if r["fused"] and "fusion_ratio" in r), {})
        report["fusion"] = {
            "fusion_ratio": stats.get("fusion_ratio", 1.0),
            "fused_steps": stats.get("fused_steps", 0),
            "dispatch_units": stats.get("dispatch_units", 0),
            "speedup": {
                mode: unfused_walls[mode] / fused_walls[mode]
                for mode in fused_walls
                if mode in unfused_walls and fused_walls[mode] > 0
            },
        }
    report["tuner"] = _tuner_annotation(exp, devices)
    percentiles, critical_path = _observability_annotation(exp, devices)
    report["percentiles"] = percentiles
    report["critical_path"] = critical_path
    return report


def _tuner_annotation(exp: str, devices: int) -> dict:
    """What the autotuner would decide for this workload class.

    Records the machine-model name and the DES-makespan delta of the
    tuned configuration vs the uniform standard-OCC serial default, so
    every bench document states how much headroom the tuner predicts on
    the machine the bench was modelled for.
    """
    from repro.sim import dgx_a100
    from repro.tuner import tune_workload

    machine = dgx_a100(devices)
    plan = tune_workload(exp, machine, devices=devices)
    return {
        "machine": machine.name,
        "best_occ": plan.best.occ,
        "best_mode": plan.best.mode,
        "best_weights": plan.best.weights_label,
        "tuned_makespan_s": plan.best.makespan,
        "uniform_makespan_s": plan.baseline.makespan,
        "improvement": plan.improvement,
    }


def _observability_annotation(exp: str, devices: int) -> tuple[dict, dict]:
    """Latency percentiles + exact makespan attribution.

    Runs the experiment's traceable miniature once more with the metrics
    registry enabled (the timed passes above stay uninstrumented so the
    annotation cannot perturb the wall-clock numbers), then reconstructs
    the serial-replay critical path from the DES binding links.  The
    caller's observability state is saved and restored around the pass.
    """
    from repro import observability as obs
    from repro.bench.traceable import build_workload
    from repro.sim.replay import sim_replay

    saved = (obs.OBS.active, obs.OBS.tracer, obs.OBS.metrics)
    try:
        obs.enable(reset=True)
        workload = build_workload(exp, devices=devices)
        workload.run()
        percentiles = {
            name: series
            for name in ("kernel_seconds", "copy_seconds", "staging_acquire_seconds")
            if (series := obs.metrics().histogram_summaries(name))
        }
    finally:
        obs.OBS.active, obs.OBS.tracer, obs.OBS.metrics = saved

    sk = workload.skeletons[0]
    result = sk.last_result or sk.record()
    trace = sim_replay(result, sk.backend.machine, mode="serial")
    critical_path = obs.critical_path(trace).to_json()
    return percentiles, critical_path


def write_report(report: dict, out_dir=".") -> str:
    """Persist a :func:`run_bench` report as ``BENCH_<exp>.json``."""
    import pathlib

    pathlib.Path(out_dir).mkdir(parents=True, exist_ok=True)
    path = pathlib.Path(out_dir) / f"BENCH_{report['exp']}.json"
    extra = {k: report[k] for k in ("description", "speedup_parallel", "tuner") if k in report}
    params = dict(report["params"], **extra)
    return str(
        write_bench_json(
            path,
            report["exp"],
            params,
            report["results"],
            percentiles=report.get("percentiles"),
            critical_path=report.get("critical_path"),
            fusion=report.get("fusion"),
        )
    )


def summarize(report: dict) -> str:
    """Human-readable one-screen summary of a bench report."""
    lines = [f"{report['exp']}: {report['description']}", f"  usable cores: {usable_cpu_count()}"]
    for r in report["results"]:
        tag = r["mode"] + ("" if r.get("fused", False) else " (no-fuse)")
        lines.append(
            f"  {tag:<18} wall {r['wall_clock_s']:8.3f} s   "
            f"sim {r['sim_makespan_s']:.3e} s   {r['mlups']:7.2f} MLUPS"
        )
    if "speedup_parallel" in report:
        lines.append(f"  parallel speedup over serial: {report['speedup_parallel']:.2f}x")
    if "fusion" in report:
        f = report["fusion"]
        per_mode = "  ".join(f"{m}={s:.2f}x" for m, s in sorted(f["speedup"].items()))
        lines.append(
            f"  fusion: {f['fusion_ratio']:.2f} steps/unit "
            f"({f['fused_steps']} steps in multi-step units, {f['dispatch_units']} units) — "
            f"speedup over unfused: {per_mode}"
        )
    if "tuner" in report:
        t = report["tuner"]
        lines.append(
            f"  tuner ({t['machine']}): occ={t['best_occ']} mode={t['best_mode']} "
            f"weights={t['best_weights']} — {100 * t['improvement']:.1f}% below uniform default"
        )
    return "\n".join(lines)
