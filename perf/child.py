"""One leg of one workload in a fresh process; prints one JSON document.

The runner starts this file once per leg and round, never two at a time.
A fresh process matters: glibc raises its mmap threshold once a large
block has been freed, after which the NumPy kernels' multi-MB temporaries
stop page-faulting, so a 96^3 CG solve takes 0.45 s in a fresh process
and 0.26 s after one native solve ran in the same interpreter.  Sharing
an interpreter between legs would report either number, by leg order.

Sequence: import NumPy -> pin (single-threaded legs) -> import repro ->
build -> freeze.  That is set-up: from this file's first line to here, less
the pin probe, which is the benchmark's own cost; interpreter start is not
in it.  Then the verification solve from cold state (SHA-256 of the result
fields), which is also the untimed warm-up: it replays every program of the
workload once -> timed samples until the sampling budget is spent, each from
the exact cold state, with ``gc`` disabled inside a sample and collected
between.
"""

from time import perf_counter

T_FIRST_LINE = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder, duration, top_level  # noqa: E402

MAX_SAMPLES = 40


def pin_to_fastest_cpu() -> tuple[int, dict]:
    """Pin this process to whichever CPU runs a 5 ms loop fastest right now.

    Each vCPU of the VM this was written on switches between three speeds
    (a fixed interpreter loop takes 19, 24 or 28 ms), every 5-60 s and
    independently of the other: most likely a hyperthread sibling that
    belongs to somebody else.  A child lasts 2-4 s, so a probe
    at its start mostly predicts its speed; without it the guest scheduler
    decides, and a single-threaded leg lands in the slow state two times in
    three.  Concurrent legs need every CPU and are not pinned.
    """
    best: dict[int, float] = {}
    for cpu in sorted(os.sched_getaffinity(0))[:8]:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(3):
            t0 = perf_counter()
            sum(range(150_000))
            times.append(perf_counter() - t0)
        best[cpu] = min(times)
    cpu = min(best, key=best.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, best


def sample_loop(rec: Recorder, wl, budget: float, min_samples: int, obs=None) -> tuple[list, list]:
    """Timed samples until ``budget`` seconds are spent (at least ``min_samples``).

    ``obs`` is the program's observability module in the traced child: it is
    switched off around ``reset()`` so the registry counts the samples' work
    only, not the halo sync of the reset.
    """
    samples, resets = [], []
    deadline = perf_counter() + budget
    while len(samples) < min_samples or (
        len(samples) < MAX_SAMPLES and perf_counter() + samples[-1] <= deadline
    ):
        if obs:
            obs.disable()
        with rec.span("reset") as r:
            wl.reset()
        if obs:
            obs.enable(reset=False)
        gc.collect()
        gc.disable()
        try:
            with rec.span("sample", sample=len(samples)) as s:
                wl.sample()
        finally:
            gc.enable()
        samples.append(duration(s))
        resets.append(duration(r))
    return samples, resets


def run_native(args, rec: Recorder, doc: dict) -> None:
    from workloads import make_native

    wl = make_native(args.workload, args.seed, args.smoke)
    with rec.span("build"):
        wl.build()
    with rec.span("verify") as v:
        doc["verify"] = wl.verify()
    doc["verify_s"] = duration(v)
    doc["samples"], doc["reset_s"] = sample_loop(rec, wl, args.budget, args.min_samples)
    doc.update(units=wl.units, unit=wl.unit)


class CodegenProbe:
    """Times the program's calls into ``repro.codegen.compile_shared``.

    The C compiler runs inside ``Plan`` freezing, where the benchmark makes
    no call of its own to wrap; interposing on the package's public name
    (the one ``solvers/lbm/codegen.py`` looks up per call) measures it from
    outside without touching ``src/``.  Traced child only.  A caller that
    binds the function at import time would slip past the probe, so the
    runner fails a traced run that counts no call where ``cc`` is available
    and the workload has C kernels (``cc_expected``).
    """

    def __init__(self):
        from repro import codegen

        self.calls = self.specialized = 0
        self.seconds = 0.0
        inner = codegen.compile_shared

        def timed(*a, **kw):
            t0 = perf_counter()
            fn = inner(*a, **kw)
            self.seconds += perf_counter() - t0
            self.calls += 1
            self.specialized += fn is not None
            return fn

        codegen.compile_shared = timed


def compile_layers(obs, rec: Recorder, probe: CodegenProbe) -> dict:
    """Compile-phase split from the program's own tracer spans."""
    spans = obs.tracer().spans

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    fuse = total("plan.fuse_program")
    program = [(s.start, s.end, s.tid) for s in spans
               if s.name.startswith(("skeleton.compile:", "skeleton.run:")) or s.name == "plan.compile_program"]
    setup = sum(duration(s) for s in rec.spans if s["name"] in ("build", "freeze"))
    return {
        "skeleton.compile_graph_s": total("skeleton.compile.multi_gpu_graph"),
        "skeleton.compile_occ_s": total("skeleton.compile.occ"),
        "skeleton.compile_schedule_s": total("skeleton.compile.transitive_reduction", "skeleton.compile.plan"),
        "skeleton.freeze_s": total("plan.compile_program") - fuse,
        "skeleton.fuse_s": fuse - probe.seconds,
        "codegen.cc_s": probe.seconds,
        "codegen.cc_calls": probe.calls,
        "codegen.kernels_specialized": probe.specialized,
        # what is left of build+freeze once compilation and first replays are taken out
        "domain.build_s": setup - top_level(program),
    }


def replay_layers(obs, n_samples: int) -> dict:
    """Per-sample replay split from the program's registry (instrumented program)."""
    m = obs.metrics()

    def hist(name):
        rows = m.histogram_summaries(name)
        return sum(r["sum"] for r in rows) / n_samples, sum(r["count"] for r in rows) / n_samples

    kernel_s, launches = hist("kernel_seconds")
    copy_s, copies = hist("copy_seconds")
    acquire_s, _ = hist("staging_acquire_seconds")
    replay_s = sum(s.duration for s in obs.tracer().spans if s.name.startswith("skeleton.run:")) / n_samples
    return {
        "sets.kernel_s": kernel_s,
        "sets.kernel_launches": launches,
        "system.copy_s": copy_s,
        "system.copies": copies,
        "system.copy_bytes": m.total("halo_bytes_sent") / n_samples,
        "system.staging_acquire_s": acquire_s,
        "skeleton.replay_s": replay_s,
        "skeleton.dispatch_s": replay_s - kernel_s - copy_s,
    }


def serving_stats(wl, n_samples: int) -> dict:
    """Client-side and gateway-side serving numbers of a serve_mix leg."""
    latency = sorted(lat for _, _, lat, _ in wl.jobs)
    out = {
        "cold_job_s": statistics.median(wl.cold_latency),
        "build_s": statistics.median(wl.build_latency) if wl.build_latency else 0.0,
        "warm_job_s": statistics.median(latency),
        "warm_job_p95_s": latency[int(0.95 * (len(latency) - 1))],
        "jobs": len(latency),
    }
    if wl.mode == "direct":
        return out
    gw = wl.gateway
    stats = gw.stats()
    cache = stats["cache"]
    vtimes = list(stats["tenants"].values())
    out.update(
        submit_us=statistics.median(sub for _, sub, _, _ in wl.jobs) * 1e6,
        queue_wait_s=statistics.median(q for *_, q in wl.jobs),
        cache_hit_ratio=cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        batch_joins=stats["batch_joins"] / n_samples,
        tenant_vtime_spread=(max(vtimes) - min(vtimes)) / statistics.mean(vtimes),
    )
    from repro.serving import plan_key

    key = plan_key(wl.specs[0], gw.machine_factory(wl.specs[0].devices).name)
    t0 = perf_counter()
    for _ in range(200):
        gw.cache.lookup(key)
    out["cache_lookup_us"] = (perf_counter() - t0) / 200 * 1e6
    if wl.mode == "gateway":  # the DES search behind a tuned_spec() miss, once
        t0 = perf_counter()
        gw.tuned_spec(wl.specs[0])
        out["tune_s"] = perf_counter() - t0
    return out


def run_framework(args, rec: Recorder, doc: dict, pin_s: float) -> None:
    from repro import codegen
    from repro import observability as obs
    from repro.skeleton import fusion
    from repro.system import sharedmem
    from workloads import CONCURRENT_MODES, ServeMix, make_workload

    leg = args.leg
    traced = leg == "traced"
    if traced:
        probe = CodegenProbe()
        obs.enable()
    wl = make_workload(args.workload, args.seed, args.smoke, leg)
    with fusion.disabled() if leg == "unfused" else nullcontext():
        with rec.span("build"):
            wl.build()
        with rec.span("freeze"):
            wl.freeze()
    doc["setup_s"] = perf_counter() - T_FIRST_LINE - pin_s
    if traced:
        doc["layers"] = compile_layers(obs, rec, probe)
        doc["cc_expected"] = wl.compiles_c and codegen.available()
    try:
        # a concurrent mode this build no longer offers raises ValueError on
        # its first replay; one that silently degrades to serial warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with rec.span("verify") as v:
                    doc["verify"] = wl.verify()
            except ValueError as exc:
                if leg not in CONCURRENT_MODES:
                    raise
                doc["unavailable"] = f"{type(exc).__name__}: {exc}"
                return
        fallback = [str(w.message) for w in caught if "Fallback" in type(w.message).__name__]
        if fallback:
            doc["unavailable"] = fallback[0]
            return
        doc["verify_s"] = duration(v)
        if leg in CONCURRENT_MODES:  # the same solve again: the difference is engine spin-up
            with rec.span("verify2") as v2:
                wl.verify()
            doc["spinup_s"] = duration(v) - duration(v2)
        if traced:
            obs.enable(reset=True)  # from here the registry holds the timed samples only
        doc["samples"], doc["reset_s"] = sample_loop(
            rec, wl, args.budget, args.min_samples, obs if traced else None
        )
        n = len(doc["samples"])
        if traced:
            obs.disable()
            doc["layers"].update(replay_layers(obs, n))
        with rec.span("sim.estimate") as est:
            wl.sim_us_per_unit()
        doc.update(units=wl.units, unit=wl.unit, exact=wl.exact(), estimate_call_s=duration(est))
        if isinstance(wl, ServeMix):
            doc["jobs_attempted"], doc["jobs_failed"] = wl.check_jobs()
            doc["serving"] = serving_stats(wl, n)
            backends = [app.backend for app in wl.programs()]
        else:
            with rec.span("to_numpy") as tn:
                wl.result()
            doc["to_numpy_s"] = duration(tn)
            backends = [wl.backend]
        staging = [b.staging.stats() for b in backends]
        doc["staging_hits"] = sum(s["hits"] for s in staging)
        doc["staging_misses"] = sum(s["misses"] for s in staging)
        doc["memory_bytes"] = sum(sum(b.memory_report().values()) for b in backends)
        doc["shm_bytes"] = sum(seg.nbytes for seg in sharedmem.live_segments())
    finally:
        wl.close()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--leg", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of timed sampling")
    ap.add_argument("--min-samples", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    rec = Recorder(workload=args.workload, leg=args.leg, round=args.round)
    doc = {"workload": args.workload, "leg": args.leg, "round": args.round, "seed": args.seed}
    pin_s = 0.0
    with rec.span("child"):
        with rec.span("import", module="numpy"):
            from workloads import UNPINNED_LEGS  # brings NumPy in
        if args.leg not in UNPINNED_LEGS:
            with rec.span("pin") as pin:
                doc["cpu"], doc["cpu_probe_s"] = pin_to_fastest_cpu()
            pin_s = duration(pin)
        with rec.span("import", module="repro"):
            import repro  # noqa: F401
        if args.leg == "native":
            run_native(args, rec, doc)
        else:
            run_framework(args, rec, doc, pin_s)
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["spans"] = rec.spans
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
