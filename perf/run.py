#!/usr/bin/env python3
"""Benchmark runner: one fresh child process per leg, one child at a time.

    python3 perf/run.py --workload lbm64x2 --seed 1 --seconds 20 --trace 0
    python3 perf/run.py --workload lbm64x2 --seed 1 --seconds 20 --trace 1
    python3 perf/run.py --smoke          # tiny shapes, every leg, < 1 min
    python3 perf/run.py --calibrate      # two sets of ten seeds per workload -> bounds

An untraced run makes 3 to 8 round-robin passes over the workload's legs
(``serial``, the concurrent modes the workload declares, ``native``); a
traced run makes one pass over every leg, including the registry-on
``traced`` child and the ``unfused`` / ``nocc`` / engine legs that only
per-layer metrics need.  ``--seconds`` is the time spent inside timed
samples; set-up, verification and warm-up come on top (9-17 s here).

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Everything else (environment, per-leg child wall, samples, spans) goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
TMP = ROOT / ".bench_tmp"  # TMPDIR of every child: cc build dirs land here, removed at exit
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(PERF))
sys.dont_write_bytecode = True  # leave no perf/__pycache__ in the checkout

from workloads import CONCURRENT_MODES, E2E_CONCURRENT, ROUNDS, WORKLOADS  # noqa: E402

#: runs per workload in one calibration set: the driver's own measure
CALIBRATION_RUNS = 10

#: On this VM a child's samples agree within 4 % while children of one leg
#: differ by up to 23 % (which speed state its CPU is in while it runs is the
#: larger lottery), so the time goes into more children with few samples
#: each, not into long children (``workloads.ROUNDS``).
MIN_SAMPLES = 3
CHILD_TIMEOUT = 120.0
#: share of a round's sampling time per leg: the serial leg feeds four of
#: the five end-to-end metrics, so it samples twice as long
LEG_WEIGHT = {"serial": 2.0}
#: the traced child's registry numbers that are per (possibly shorter) traced sample
REPLAY_SPLITS = ("skeleton.replay_s", "skeleton.dispatch_s", "sets.kernel_s", "sets.kernel_launches",
                 "system.copy_s", "system.copies", "system.copy_bytes", "system.staging_acquire_s")
#: exact() entries that must agree across all framework legs of a run
FUSION_INVARIANT = ("compiled_steps", "kernel_launches", "copies", "event_waits",
                    "kernel_bytes", "copy_bytes", "sim_us_per_unit")


class GateFailed(RuntimeError):
    """A child died, or a number that must repeat exactly did not."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- children ------------------------------------------------------------------
def child_env(leg: str) -> dict:
    """Default allocator (no MALLOC_*), one BLAS thread, no program switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "REPRO_"))}
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        # leave no __pycache__ in the checkout: every child then imports the
        # program from source, so set-up time does not depend on what ran before
        PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", TMPDIR=str(TMP),
    )
    if leg == "nocc":
        env["REPRO_DISABLE_CC"] = "1"
    return env


def spawn(workload: str, leg: str, seed: int, rnd: int, budget: float, min_samples: int, smoke: bool) -> dict:
    t0 = perf_counter()
    cmd = [sys.executable, str(PERF / "child.py"), "--workload", workload, "--leg", leg,
           "--seed", str(seed), "--round", str(rnd), "--budget", f"{budget:.3f}",
           "--min-samples", str(min_samples)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, env=child_env(leg), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:  # engine workers are grandchildren in the child's own process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        raise GateFailed(f"{workload}/{leg} round {rnd}: no result after {CHILD_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        raise GateFailed(f"{workload}/{leg} round {rnd}: child exited with {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["wall_s"] = perf_counter() - t0  # interpreter start to exit, as the run-length budget sees it
    log(f"  {workload}/{leg}#{rnd}: {doc['wall_s']:.1f} s, " + (
        f"unavailable ({doc['unavailable']})" if "unavailable" in doc else
        f"{len(doc['samples'])} samples, fastest {min(doc['samples']):.4f} s"))
    return doc


def legs_for(workload: str, trace: bool) -> list[str]:
    if not trace:  # native right after serial: the two halves of native_ratio see the same machine
        return ["serial", "native", *(CONCURRENT_MODES if workload in E2E_CONCURRENT else ())]
    extra = ("direct", "gateway") if workload == "serve_mix" else CONCURRENT_MODES
    return ["serial", "traced", "unfused", "nocc", *extra, "native"]


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, reverse: bool):
    """-> (rounds: list of {leg: child document}, legs unavailable in this build)."""
    legs = legs_for(workload, trace)
    n_rounds = 1 if trace or smoke else ROUNDS[workload]
    share = seconds / n_rounds / sum(LEG_WEIGHT.get(leg, 1.0) for leg in legs)
    rounds, gone = [], {}
    for rnd in range(n_rounds):
        docs = {}
        for leg in reversed(legs) if reverse else legs:
            if leg in gone:
                continue
            doc = spawn(workload, leg, seed, rnd, share * LEG_WEIGHT.get(leg, 1.0),
                        1 if smoke else 2 if trace else MIN_SAMPLES, smoke)
            if "unavailable" in doc:
                gone[leg] = doc["unavailable"]
            else:
                docs[leg] = doc
        rounds.append(docs)
    return rounds, gone


# -- gates ---------------------------------------------------------------------
def check(rounds: list[dict]) -> tuple[int, int]:
    """Operations (attempted, failed): digest comparisons and served jobs.

    Every framework leg's verification digests are compared with the native
    leg's of the same round — the conformance matrix's bitwise contract —
    and every served job with the first result of its spec.
    """
    attempted = failed = 0
    for docs in rounds:
        want = docs["native"]["verify"]
        for leg, doc in docs.items():
            if leg == "native":
                continue
            for label, digest in want.items():
                attempted += 1
                failed += doc["verify"].get(label) != digest
            attempted += doc.get("jobs_attempted", 0)
            failed += doc.get("jobs_failed", 0)
    return attempted, failed


def check_exact(rounds: list[dict]) -> None:
    """Exact numbers repeat across rounds, and across legs where fusion cannot move them."""
    per_unit_ref = None
    for leg in {leg for docs in rounds for leg in docs} - {"native"}:
        docs = [r[leg] for r in rounds if leg in r]
        for doc in docs[1:]:
            if doc["exact"] != docs[0]["exact"]:
                raise GateFailed(f"{leg}: exact metrics differ between rounds: {docs[0]['exact']} vs {doc['exact']}")
        invariant = {k: docs[0]["exact"][k] for k in FUSION_INVARIANT}
        per_unit_ref = per_unit_ref or (leg, invariant)
        if invariant != per_unit_ref[1]:
            raise GateFailed(f"exact metrics differ between {per_unit_ref[0]} and {leg}: {per_unit_ref[1]} vs {invariant}")


def check_probe(rounds: list[dict]) -> None:
    """The traced child's codegen probe saw the compiler run, where it must have."""
    for docs in rounds:
        traced = docs.get("traced")
        if traced and traced["cc_expected"] and not traced["layers"]["codegen.cc_calls"]:
            raise GateFailed("cc is available and the workload has C kernels, but the traced child counted no "
                             "call of repro.codegen.compile_shared: codegen.* would read 0 and fuse_s absorb the compile")


# -- aggregation ---------------------------------------------------------------
def lower_octile(values) -> float:
    """The value an eighth of the way up the sorted list: the one estimator of every leg.

    On the machine this was written on a sample's time is a floor that
    repeats within a few percent over hours, plus disturbance from outside that only
    ever adds time and lasts 5-60 s: each vCPU switches between speeds up
    to 1.5x apart (see ``pin_to_fastest_cpu``) and the 260 MB L3 has other
    tenants.  A median then reports how busy the neighbours were (spread of
    ``solve_s`` between runs of identical code 0.07-0.21, as pooled median or
    as median over children alike); a value near the floor reports the
    program (0.04-0.09) and is still one or two samples above the minimum.
    With fewer than 8 values it *is* the minimum: so for the 2-3 samples of
    a traced or smoke child, never for an end-to-end metric (9 samples or
    more per leg).
    """
    values = sorted(values)
    return values[len(values) // 8]


def leg_time(docs: list[dict]) -> float:
    """One leg's time per unit of work: lower octile of its children's pooled samples."""
    return lower_octile(s for doc in docs for s in doc["samples"]) / docs[0]["units"]


def end_to_end(rounds: list[dict]) -> dict:
    serial = [docs["serial"] for docs in rounds]
    units = serial[0]["units"]
    framework = [doc for docs in rounds for leg, doc in docs.items() if leg != "native"]
    solve = {leg: leg_time([docs[leg] for docs in rounds if leg in docs]) * units
             for leg in ("serial", *CONCURRENT_MODES) if any(leg in docs for docs in rounds)}
    return {
        "setup_s": statistics.median(doc["setup_s"] for doc in framework),
        "solve_s": solve["serial"],
        "solve_best_s": min(solve.values()),
        "native_ratio": leg_time([docs["native"] for docs in rounds]) * units / solve["serial"],
        "peak_rss_mb": statistics.median(doc["rss_mb"] for doc in serial),
    }


def per_layer(docs: dict) -> dict:
    """Per-layer metrics of one traced round, normalised to the serial sample.

    In-replay splits (``sets.kernel_s``, ``system.copy_s``, ``skeleton.replay_s``,
    ``.dispatch_s``, ``solvers.host_s``) describe the *instrumented* program —
    the registry-on ``traced`` child — and are only as good as
    ``observability.trace_overhead_ratio`` is near 1.  Everything else comes
    from untraced children.  A metric that does not apply to the workload is 0.
    """
    s, t, native = docs["serial"], docs["traced"], docs["native"]
    units = s["units"]
    exact, lay = s["exact"], t["layers"]
    scale = units / t["units"]  # traced samples may be shorter; compare per unit
    sample_traced = statistics.mean(t["samples"])  # the registry's sums are per-sample means too
    serial_pu = leg_time([s])
    out = {
        "domain.reset_s": statistics.median(s["reset_s"]),
        "domain.to_numpy_s": s.get("to_numpy_s", 0.0),
        "domain.halo_bytes_per_iter": exact["copy_bytes"],
        "skeleton.compiled_steps": exact["compiled_steps"],
        "skeleton.dispatch_units": exact["dispatch_units"],
        "skeleton.fusion_ratio": exact["compiled_steps"] / exact["dispatch_units"],
        "skeleton.us_per_unit": lay["skeleton.replay_s"] / (exact["dispatch_units"] * t["units"]) * 1e6,
        "skeleton.fusion_speedup": leg_time([docs["unfused"]]) / serial_pu,
        "sets.kernel_bytes": exact["kernel_bytes"] * units,
        "sets.kernel_gbps": exact["kernel_bytes"] * t["units"] / lay["sets.kernel_s"] / 1e9,
        "codegen.cc_speedup": leg_time([docs["nocc"]]) / serial_pu,
        "system.staging_hit_ratio": s["staging_hits"] / max(1, s["staging_hits"] + s["staging_misses"]),
        "system.event_waits": exact["event_waits"] * units,
        "system.memory_peak_bytes": s["memory_bytes"],
        "system.shm_bytes": s["shm_bytes"],
        "solvers.host_s": (sample_traced - lay["skeleton.replay_s"]) * scale,
        "solvers.iterations": exact["solver_iterations"],
        "sim.makespan_us": exact["sim_us_per_unit"] * units,
        "sim.estimate_call_s": s["estimate_call_s"],
        "baselines.native_s": leg_time([native]) * units,
        "observability.trace_overhead_ratio": leg_time([t]) / serial_pu,
    }
    for key, value in lay.items():  # set-up splits as measured, replay splits per serial sample
        out[key] = value * scale if key in REPLAY_SPLITS else value
    for mode in CONCURRENT_MODES:  # engine legs: solver workloads only
        doc = docs.get(mode)
        out[f"system.engine.{mode}_s"] = leg_time([doc]) * units if doc else 0.0
        out[f"system.engine.{mode}_overhead_us"] = (
            (leg_time([doc]) - serial_pu) / exact["replays"] * 1e6 if doc else 0.0)
    out["system.engine.spinup_s"] = max((docs[m]["spinup_s"] for m in CONCURRENT_MODES if m in docs), default=0.0)
    serving = dict.fromkeys(
        ("cold_job_s", "build_s", "first_run_s", "cache_lookup_us", "submit_us", "queue_wait_s", "overhead_s",
         "warm_job_s", "warm_job_p95_s", "jobs_per_s", "cache_hit_ratio", "batch_joins", "tenant_vtime_spread"), 0.0)
    if "gateway" in docs:  # serve_mix: nproc workers and clients; `direct` is the same jobs without a gateway
        g, d = docs["gateway"], docs["direct"]
        serving.update({k: g["serving"][k] for k in serving if k in g["serving"]})
        serving.update(
            build_s=d["serving"]["build_s"],
            first_run_s=d["serving"]["cold_job_s"],
            overhead_s=serial_pu - leg_time([d]),
            jobs_per_s=1.0 / leg_time([g]),
        )
    out.update({f"serving.{k}": v for k, v in serving.items()})
    out["tuner.tune_s"] = docs["gateway"]["serving"]["tune_s"] if "gateway" in docs else 0.0
    return out


# -- one run -------------------------------------------------------------------
def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tool_version(*cmd: str) -> str:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return "unavailable"


def environment(seed: int) -> dict:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cc": tool_version("cc", "--version"),
        "git_sha": tool_version("git", "-C", str(ROOT), "rev-parse", "HEAD"),
        "seed": seed,
        "child_env": {k: v for k, v in child_env("serial").items()
                      if k.startswith(("MALLOC_", "OMP_", "OPENBLAS_", "MKL_", "PYTHON", "REPRO_", "TMPDIR"))},
        "load_1min_start": load,
        "contended": load > nproc,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, reverse: bool = False) -> tuple[dict, dict]:
    """-> (result as the contract wants it, full document for ``.bench_out``)."""
    contract = load_contract()
    t_start = perf_counter()
    env = environment(seed)
    TMP.mkdir(exist_ok=True)
    try:
        rounds, gone = run_rounds(workload, seed, seconds, trace, smoke, reverse)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    check_exact(rounds)
    check_probe(rounds)
    attempted, failed = check(rounds)
    declared = contract["per_layer" if trace else "end_to_end"]
    values = per_layer(rounds[0]) if trace else end_to_end(rounds)
    if smoke:  # a smoke run computes both families from its single round
        values = {**end_to_end(rounds), **per_layer(rounds[0])}
        declared = contract["end_to_end"] + contract["per_layer"]
    if set(values) != {m["name"] for m in declared}:
        raise GateFailed(f"metrics computed and declared differ: {set(values) ^ {m['name'] for m in declared}}")
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise GateFailed(f"non-finite metrics: {bad}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    env["load_1min_end"] = os.getloadavg()[0]
    env["contended"] = env["contended"] or env["load_1min_end"] > env["nproc"]
    spans = [span for docs in rounds for doc in docs.values() for span in doc.pop("spans")]
    document = {
        "workload": workload, "trace": trace, "smoke": smoke, "seconds": seconds,
        "environment": env, "result": result, "legs_unavailable": gone,
        "run_wall_s": perf_counter() - t_start,
        "child_wall_s": [{leg: doc["wall_s"] for leg, doc in docs.items()} for docs in rounds],
        "rounds": rounds,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    (OUT / f"{stem}.json").write_text(json.dumps(document, indent=1))
    if trace or smoke:  # bench-owned spans, kept in memory until here
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    return result, document


# -- calibration ---------------------------------------------------------------
def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the driver's measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure_set(workload: str, seeds, seconds: float, reverse: bool = False) -> dict[str, list[float]]:
    """End-to-end metrics of one run per seed -> {metric: values in seed order}."""
    values: dict[str, list[float]] = {}
    for seed in seeds:
        log(f"calibrate {workload} seed {seed}" + (" reversed" if reverse else ""))
        result, _ = run_workload(workload, seed, seconds, trace=False, reverse=reverse)
        if not result["correct"]:
            raise GateFailed(f"{workload} seed {seed}: {result['failed']} failed operations")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def calibrate(seconds: float) -> int:
    """Measure as the driver does, twice, and derive the bounds.

    Two sets of ``CALIBRATION_RUNS`` runs per workload, each run with another
    seed, then two runs per workload with the leg order reversed.
    bound(metric) = 3 x the largest spread any workload shows in either set,
    rounded up to a whole percent, at least 0.05 and at most the contract's
    0.25; ``setup_s`` takes 0.25 outright.  Where the cap cuts in, the pairs
    whose spread is above half the bound are listed as ``unresolved``: the
    benchmark cannot tell a change of that size from noise there.  The table
    goes to ``perf/calibration.json`` and the bounds into ``BENCHMARK.json``.
    """
    contract = load_contract()
    n = CALIBRATION_RUNS
    sets = [{w: measure_set(w, range(k * n + 1, (k + 1) * n + 1), seconds) for w in WORKLOADS} for k in (0, 1)]
    reversed_runs = {w: measure_set(w, (2 * n + 1, 2 * n + 2), seconds, reverse=True) for w in WORKLOADS}
    table: dict = {w: {} for w in WORKLOADS}
    for metric in contract["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        for w in WORKLOADS:
            first, second, rev = sets[0][w][name], sets[1][w][name], reversed_runs[w][name]
            m1, m2 = statistics.median(first), statistics.median(second)
            table[w][name] = {
                "first": first, "second": second, "reversed": rev, "median": [m1, m2],
                "spread": [spread(first), spread(second)],
                "second_worse_by": sign * (m2 / m1 - 1.0),
                "reversed_shift": statistics.median(rev) / statistics.median(first + second) - 1.0,
            }
        worst = max(max(table[w][name]["spread"]) for w in WORKLOADS)
        metric["bound"] = 0.25 if name == "setup_s" else min(0.25, max(0.05, math.ceil(300 * worst) / 100))
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    unresolved = [f"{w}/{name}" for w in WORKLOADS for name, row in table[w].items()
                  if name != "setup_s" and max(row["spread"]) > bound[name] / 2]
    refused = [f"{w}/{name}" for w in WORKLOADS for name, row in table[w].items()  # what the driver would refuse
               if row["second_worse_by"] > bound[name] or (name != "setup_s" and max(row["spread"]) > bound[name])]
    for pair in unresolved:
        log(f"unresolved: {pair} (spread above half its bound)")
    for pair in refused:
        log(f"REFUSED: {pair} (spread or drift between sets above its bound)")
    (PERF / "calibration.json").write_text(json.dumps(
        {"runs_per_set": n, "seconds": seconds, "environment": environment(0), "bounds": bound,
         "unresolved": unresolved, "refused": refused, "table": table}, indent=1) + "\n")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(contract, indent=2) + "\n")
    return 1 if refused else 0


# -- CLI -----------------------------------------------------------------------
def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="time inside timed samples (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reverse", action="store_true", help="reverse the leg order within a round")
    ap.add_argument("--smoke", action="store_true", help="tiny shapes, one round, every leg of every workload")
    ap.add_argument("--calibrate", action="store_true", help="derive the bounds from repeated runs")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    seconds = args.seconds if args.seconds is not None else float(load_contract()["run_seconds"])
    try:
        if args.calibrate:
            return calibrate(seconds)
        if args.smoke:
            results = {w: run_workload(w, args.seed, 0.7, trace=True, smoke=True)[0]
                       for w in ([args.workload] if args.workload else WORKLOADS)}
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        if not args.workload:
            ap.error("--workload is required (or --smoke / --calibrate)")
        result, _ = run_workload(args.workload, args.seed, seconds, bool(args.trace), reverse=args.reverse)
    except GateFailed as exc:
        log(f"GATE FAILED: {exc}")
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
