"""Command-line entry point: drive the paper reproduction from a shell.

    python -m repro list                 # show every experiment
    python -m repro reproduce fig7       # regenerate one table/figure
    python -m repro reproduce all        # regenerate everything
    python -m repro collect              # print measured tables (markdown)
    python -m repro info                 # package / machine-model summary
    python -m repro trace fig1 -o trace.json   # run a miniature of an
        # experiment with the observability layer enabled and export a
        # Chrome/Perfetto trace (real + simulated timelines + metrics)
    python -m repro faults cg --profile transient+loss -o recovery.json
        # run a fault-matrix miniature under a seeded FaultPlan with full
        # recovery armed, verify the result against a fault-free run, and
        # export the recovery trace; exits non-zero on mismatch
    python -m repro bench lbm --json --devices 4
        # run a miniature in serial and parallel execution modes (each
        # with fused dispatch plus an unfused comparison leg), print a
        # comparison, and (with --json) write BENCH_lbm.json; --tripwire R
        # exits non-zero if parallel wall-clock exceeds R x serial;
        # --no-fuse skips the fused legs entirely; --fuse-gate S exits
        # non-zero unless fused serial dispatch is at least S x faster
        # than unfused
    python -m repro sanitize lbm --devices 4 --occ standard
        # replay a miniature under the graph race sanitizer (vector-clock
        # happens-before checking of the compiled schedule) and report
        # races / stale halo reads / event-wiring defects; --mutate also
        # grades the detector against injected schedule mutants, and
        # -o writes the violation report as JSON; exits non-zero on any
        # violation or escaped mutant
    python -m repro tune lbm --machine mixed_pcie --devices 4 -o TUNE_lbm.json
        # cost-model-driven autotuner: search OCC level x execution mode
        # x partition weights for one workload on one machine model,
        # scored by DES replay of each candidate's recorded command
        # stream; prints the candidate table and decision, -o writes the
        # TunePlan as JSON
    python -m repro report lbm --devices 4 --format html -o report.html
        # performance observatory dashboard: run an instrumented
        # miniature, then render latency histograms (p50/p90/p99), the
        # exact DES critical path with its {kernel, copy, wait,
        # dispatch} makespan attribution, per-device busy/blocked/idle
        # utilization, and the measured-wall vs modeled-makespan gap
        # (Python dispatch overhead); --format text|json|html
    python -m repro report --compare BENCH_old.json BENCH_new.json
        # bench regression check between two BENCH_*.json documents;
        # warn-only by default, --strict exits non-zero on any metric
        # past --threshold
    python -m repro serve --jobs 20 --tenants 3 -o BENCH_serve.json
        # multi-tenant serving smoke: submit a seeded mix of lbm/poisson
        # jobs from several tenants through the Gateway and its
        # persistent plan cache (warm programs replayed across jobs),
        # print per-tenant p50/p90/p99 latency and cache hit/miss/evict
        # counts, and (with -o) write a BENCH_serve.json whose
        # per-tenant rows and percentile annotation feed
        # 'report --compare'; --cache-dir (or $REPRO_PLAN_CACHE)
        # persists TunePlans/estimates across server runs; exits
        # non-zero if any job fails or hits fall below --hit-gate
    python -m repro chaos lbm --events 50 --seed 2026 -o CHAOS_lbm.json
        # chaos soak: drive a miniature through the adaptive resilient
        # driver under a calibrated storm of transient faults, silent
        # corruption, multiple device losses and seeded checkpoint
        # tampering; the run must finish *bitwise identical* to its
        # fault-free reference and deliver at least --events fault
        # events, or the command exits non-zero; --format text|json|html
        # renders the chaos report through the dashboard
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

from repro.modes import EXECUTION_MODES

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"

EXPERIMENTS = {
    "fig1": ("bench_fig1_occ_workflows.py", "Fig 1: OCC workflow makespans"),
    "table1": ("bench_table1_karman.py", "Table I: Kármán LUPS vs comparator"),
    "table2": ("bench_table2_lbm_variants.py", "Table II: single-GPU LBM variants"),
    "fig7": ("bench_fig7_lbm_scaling.py", "Fig 7: LBM strong scaling"),
    "fig8top": ("bench_fig8_poisson_occ.py", "Fig 8 top: Poisson OCC configs"),
    "fig8bottom": ("bench_fig8_poisson_scaling.py", "Fig 8 bottom + framework overhead"),
    "fig9": ("bench_fig9_elastic_sparse.py", "Fig 9: dense vs sparse elasticity"),
    "ablation-layout": ("bench_ablation_layout.py", "Ablation: SoA vs AoS halos"),
    "ablation-scheduler": ("bench_ablation_scheduler.py", "Ablation: stream reuse"),
    "ablation-fusion": ("bench_ablation_fusion.py", "Ablation: container fusion"),
    "ext-multinode": ("bench_ext_multinode.py", "Extension: multi-node scaling"),
    "ext-pipelining": ("bench_ext_pipelining.py", "Extension: iteration pipelining"),
    "micro": ("bench_microbench.py", "Framework microbenchmarks"),
}


def cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_file, desc) in EXPERIMENTS.items():
        print(f"  {key:<{width}}  {desc}")
    return 0


def cmd_reproduce(names: list[str]) -> int:
    if "all" in names:
        targets = [str(BENCH_DIR)]
    else:
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            print(f"unknown experiment(s): {unknown}; try 'python -m repro list'", file=sys.stderr)
            return 2
        targets = [str(BENCH_DIR / EXPERIMENTS[n][0]) for n in names]
    cmd = [sys.executable, "-m", "pytest", *targets, "--benchmark-only", "-q"]
    return subprocess.call(cmd)


def cmd_collect() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import collect_results  # noqa: PLC0415 - script module by design

    collect_results.main()
    return 0


def cmd_trace(name: str, out: str, devices: int, fuse: bool = True, mode: str = "serial") -> int:
    import contextlib

    from repro import observability as obs
    from repro.bench.traceable import build_workload
    from repro.skeleton import fusion

    if devices < 1:
        print(f"--devices must be >= 1, got {devices}", file=sys.stderr)
        return 2
    try:
        # --no-fuse: one dispatch unit per step, so no cat="fused" envelopes
        # change the span nesting (fused runs emit every constituent span too)
        with fusion.disabled() if not fuse else contextlib.nullcontext():
            obs.enable()
            workload = build_workload(name, devices=devices)
            workload.run(mode=mode)
            sim = workload.sim_trace()
            obs.disable()
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    path = obs.export_chrome_trace(
        out,
        sim_trace=sim,
        meta={"experiment": name, "workload": workload.description, "devices": devices},
    )
    m = obs.metrics()
    print(f"{name}: {workload.description} on {devices} simulated devices")
    print(f"  real spans:      {len(obs.tracer())}")
    print(f"  kernel launches: {m.total('kernel_launches'):g}")
    print(f"  halo bytes sent: {m.total('halo_bytes_sent'):g}")
    print(f"  sync waits:      {m.total('sync_waits'):g}")
    print(f"\n{m.to_markdown()}")
    print(f"\nwrote {path} — open in https://ui.perfetto.dev (real + sim:* tracks)")
    return 0


def cmd_faults(name: str, profile: str, out: str, devices: int, seed: int) -> int:
    from repro import observability as obs
    from repro.bench.faulted import run_faulted

    if devices < 1:
        print(f"--devices must be >= 1, got {devices}", file=sys.stderr)
        return 2
    try:
        obs.enable()
        report = run_faulted(name, profile=profile, devices=devices, seed=seed)
        obs.disable()
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    path = obs.export_chrome_trace(
        out,
        meta={
            "experiment": f"faults:{name}",
            "profile": profile,
            "seed": seed,
            "devices": devices,
            "faults": report.faults,
        },
    )
    m = obs.metrics()
    print(report.summary())
    print("\nrecovery counters:")
    for counter in (
        "faults_injected",
        "retries",
        "checkpoints",
        "checkpoint_restores",
        "rollbacks",
        "devices_lost",
        "divergence_detected",
    ):
        print(f"  {counter:<20} {m.total(counter):g}")
    print(f"\n{m.to_markdown()}")
    print(f"\nwrote {path} — open in https://ui.perfetto.dev (resilience.* spans)")
    return 0 if report.ok else 1


def cmd_bench(
    name: str,
    emit_json: bool,
    devices: int,
    iters: int | None,
    out_dir: str,
    tripwire: float | None,
    fuse: bool = True,
    fuse_gate: float | None = None,
) -> int:
    from repro.bench.parallel import run_bench, summarize, write_report

    if devices < 1:
        print(f"--devices must be >= 1, got {devices}", file=sys.stderr)
        return 2
    if fuse_gate is not None and not fuse:
        print("--fuse-gate needs the fused legs; drop --no-fuse", file=sys.stderr)
        return 2
    try:
        report = run_bench(name, devices=devices, iters=iters, fuse=fuse)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(summarize(report))
    if emit_json:
        path = write_report(report, out_dir)
        print(f"wrote {path}")
    if tripwire is not None:
        ratio = 1.0 / report.get("speedup_parallel", 1.0)
        if ratio > tripwire:
            print(
                f"TRIPWIRE: parallel wall-clock is {ratio:.2f}x serial (limit {tripwire:.2f}x)",
                file=sys.stderr,
            )
            return 1
        print(f"tripwire ok: parallel is {ratio:.2f}x serial (limit {tripwire:.2f}x)")
    if fuse_gate is not None:
        speedup = report.get("fusion", {}).get("speedup", {}).get("serial")
        if speedup is None:
            print("FUSE-GATE: no serial fusion speedup in the report", file=sys.stderr)
            return 1
        if speedup < fuse_gate:
            print(
                f"FUSE-GATE: fused serial dispatch is only {speedup:.2f}x unfused "
                f"(required {fuse_gate:.2f}x)",
                file=sys.stderr,
            )
            return 1
        print(f"fuse-gate ok: fused serial is {speedup:.2f}x unfused (required {fuse_gate:.2f}x)")
    return 0


def cmd_sanitize(
    name: str,
    devices: int,
    occ_text: str,
    mode: str,
    mutate: bool,
    out: str | None,
    fuse: bool = True,
) -> int:
    import contextlib
    import json

    from repro import observability as obs
    from repro.sanitizer import mutation_matrix, sanitize_workload
    from repro.skeleton import Occ, fusion
    if devices < 1:
        print(f"--devices must be >= 1, got {devices}", file=sys.stderr)
        return 2
    try:
        occ = Occ.parse(occ_text)
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    obs.enable()
    modes = EXECUTION_MODES if mode == "both" else (mode,)
    reports = []
    try:
        # --no-fuse sanitizes one-step units; either way the sanitizer
        # records every constituent command of a unit
        with fusion.disabled() if not fuse else contextlib.nullcontext():
            for m in modes:
                reports.append(sanitize_workload(name, devices=devices, occ=occ, mode=m))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    finally:
        obs.disable()

    ok = True
    for rep in reports:
        verdict = "clean" if rep.ok else f"{len(rep.violations)} violation(s)"
        print(
            f"{name} ({devices} devices, occ={occ.value}, mode={rep.mode}): "
            f"{rep.commands} compiled commands, {rep.log_entries} log entries — {verdict}"
        )
        for sk, v in rep.violations:
            print(f"  {sk}: {v}")
        ok = ok and rep.ok
    counted = obs.metrics().total("sanitizer_violations")
    print(f"sanitizer_violations counter: {counted:g}")

    doc: dict = {"runs": [rep.to_json() for rep in reports]}
    if mutate:
        with fusion.disabled() if not fuse else contextlib.nullcontext():
            matrix = mutation_matrix(workloads=(name,), devices=(devices,), occs=(occ,))
        doc["mutation"] = matrix.to_json()
        print(f"mutation matrix: {matrix.killed}/{matrix.total} mutants killed ({matrix.kinds})")
        for row in matrix.escaped:
            print(f"  ESCAPED {row.kind} {row.mutant} on {row.skeleton}")
        ok = ok and matrix.total > 0 and not matrix.escaped
    if out:
        pathlib.Path(out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")
    return 0 if ok else 1


TUNE_MACHINES = ("dgx_a100", "pcie_a100", "pcie_gv100", "mixed_pcie", "multi_node_a100")


def _build_machine(machine_name: str, devices: int):
    from repro.sim import machine as machines

    if machine_name == "multi_node_a100":
        # the cluster preset takes (nodes, gpus_per_node)
        return machines.multi_node_a100(2, max(1, devices // 2))
    return getattr(machines, machine_name)(devices)


def cmd_tune(name: str, machine_name: str, devices: int, out: str | None) -> int:
    from repro.tuner import tune_workload

    if devices < 1:
        print(f"--devices must be >= 1, got {devices}", file=sys.stderr)
        return 2
    machine = _build_machine(machine_name, devices)
    try:
        plan = tune_workload(name, machine, devices=devices)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(f"{name} on {machine.name} ({devices} devices): {len(plan.candidates)} candidates")
    print(f"  shares: {'  '.join(f'{s:.3f}' for s in plan.shares)}")
    width = max(len(c.occ) for c in plan.candidates)
    for c in sorted(plan.candidates, key=lambda c: c.makespan):
        marks = " <- best" if c is plan.best else (" <- baseline" if c is plan.baseline else "")
        print(f"  {c.occ:<{width}}  {c.mode:<8}  {c.weights_label:<7}  {c.makespan * 1e3:8.3f} ms{marks}")
    print(
        f"decision: occ={plan.best.occ} mode={plan.best.mode} weights={plan.best.weights_label} "
        f"— {100 * plan.improvement:.1f}% below the uniform standard-OCC serial baseline"
    )
    if out:
        plan.save(out)
        print(f"wrote {out}")
    return 0


def cmd_report(
    name: str | None,
    devices: int,
    mode: str,
    fmt: str,
    out: str | None,
    compare: tuple[str, str] | None,
    threshold: float,
    strict: bool,
    flight_out: str | None,
) -> int:
    import json

    if compare is not None:
        from repro.bench.regress import check_regression, render

        try:
            findings, ok = check_regression(compare[0], compare[1], threshold)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot compare: {exc}", file=sys.stderr)
            return 2
        print(render(findings, threshold))
        if not ok:
            # soft gate by default: miniature wall-clocks on shared CI
            # hosts are noisy, so regressions warn unless --strict
            print("WARNING: regression(s) detected" + ("" if strict else " (soft gate: exit 0)"))
            return 1 if strict else 0
        return 0

    from repro.bench.dashboard import build_report, to_html, to_text
    from repro.observability import flight

    if name is None:
        print("report needs an experiment key (or --compare OLD NEW)", file=sys.stderr)
        return 2
    if devices < 1:
        print(f"--devices must be >= 1, got {devices}", file=sys.stderr)
        return 2
    try:
        report = build_report(name, devices=devices, mode=mode)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if fmt == "json":
        rendered = json.dumps(report, indent=2) + "\n"
    elif fmt == "html":
        rendered = to_html(report)
    else:
        rendered = to_text(report) + "\n"
    if out:
        pathlib.Path(out).write_text(rendered)
        print(f"wrote {out}")
    else:
        print(rendered, end="")
    if flight_out:
        # CI artifact: a flight-recorder snapshot from the instrumented
        # run, same shape as a crash dump but captured on a healthy run
        pathlib.Path(flight_out).write_text(
            json.dumps({"schema": "repro-flight/1", "reason": "report_sample", "tracks": flight.FLIGHT.snapshot()}, indent=2)
            + "\n"
        )
        print(f"wrote {flight_out}")
    return 0


def cmd_chaos(
    name: str,
    events: int,
    seed: int,
    devices: int,
    losses: int,
    fmt: str,
    out: str | None,
    flight_out: str | None,
    mode: str = "serial",
) -> int:
    import json

    from repro import observability as obs
    from repro.bench.chaos import run_chaos
    from repro.bench.dashboard import chaos_to_html, chaos_to_text
    from repro.observability import flight

    obs.enable()
    try:
        report = run_chaos(name, events=events, seed=seed, devices=devices, losses=losses, mode=mode)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    finally:
        obs.disable()
    doc = report.to_json()
    print(report.summary())
    if out:
        if fmt == "html":
            pathlib.Path(out).write_text(chaos_to_html(doc))
        elif fmt == "text":
            pathlib.Path(out).write_text(chaos_to_text(doc) + "\n")
        else:
            pathlib.Path(out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")
    if flight_out:
        # the driver only dumps FLIGHT_*.json on terminal failure; a
        # surviving soak still uploads its ring snapshot as a CI artifact
        pathlib.Path(flight_out).write_text(
            json.dumps(
                {
                    "schema": "repro-flight/1",
                    "reason": "chaos_sample",
                    "context": {"workload": name, "seed": seed, "ok": report.ok},
                    "tracks": flight.FLIGHT.snapshot(),
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {flight_out}")
    return 0 if report.ok else 1


def cmd_serve(
    jobs: int,
    tenants: int,
    devices: int,
    workers: int,
    seed: int,
    mode: str,
    cache_dir: str | None,
    hit_gate: int,
    out: str | None,
) -> int:
    import random

    from repro import observability as obs
    from repro.bench.harness import write_bench_json
    from repro.serving import Gateway, JobSpec, PlanCache

    if jobs < 1 or tenants < 1:
        print("--jobs and --tenants must be >= 1", file=sys.stderr)
        return 2
    if devices < 1:
        print(f"--devices must be >= 1, got {devices}", file=sys.stderr)
        return 2

    # a deterministic mixed workload: the same seed always produces the
    # same (tenant, spec) stream, so CI runs are reproducible
    specs = [
        JobSpec.make("lbm", (8, 6, 6), steps=3, devices=devices, mode=mode, omega=1.1),
        JobSpec.make("poisson", (8, 6, 6), steps=4, devices=devices, mode=mode),
    ]
    rng = random.Random(seed)
    tenant_names = [f"tenant{i}" for i in range(tenants)]
    stream = [(rng.choice(tenant_names), rng.choice(specs)) for _ in range(jobs)]

    obs.enable()
    cache = PlanCache(root=cache_dir)
    failed = 0
    per_tenant: dict[str, dict] = {t: {"jobs": 0, "wall": 0.0, "hits": 0} for t in tenant_names}
    try:
        with Gateway(cache=cache, workers=workers) as gw:
            handles = [(t, gw.submit(t, spec)) for t, spec in stream]
            for tenant, job in handles:
                try:
                    r = job.result(timeout=600)
                except Exception as exc:  # noqa: BLE001 - reported, gates the exit code
                    failed += 1
                    print(f"  FAILED {tenant} {job.spec.experiment}: {exc}", file=sys.stderr)
                    continue
                row = per_tenant[tenant]
                row["jobs"] += 1
                row["wall"] += r.seconds
                row["hits"] += int(r.cache_hit)
            stats = gw.stats()
        summaries = obs.metrics().histogram_summaries("serve_job_seconds")
    finally:
        obs.disable()

    cache_stats = stats["cache"]
    print(f"served {stats['done']} job(s) from {tenants} tenant(s) ({failed} failed)")
    print(
        f"plan cache: {cache_stats['hits']} hit(s), {cache_stats['misses']} miss(es), "
        f"{cache_stats['evictions']} eviction(s), root={cache_stats['root']}"
    )
    print(f"batch joins: {stats['batch_joins']}")
    print(f"\n{'tenant':<10} {'jobs':>5} {'hits':>5} {'p50 ms':>9} {'p90 ms':>9} {'p99 ms':>9}")
    for s in sorted(summaries, key=lambda s: s["labels"].get("tenant", "")):
        tenant = s["labels"].get("tenant", "?")
        row = per_tenant.get(tenant, {"jobs": 0, "hits": 0})
        print(
            f"{tenant:<10} {row['jobs']:>5} {row['hits']:>5} "
            f"{1e3 * s['p50']:>9.2f} {1e3 * s['p90']:>9.2f} {1e3 * s['p99']:>9.2f}"
        )

    if out:
        results = [
            {
                "label": f"serve-{t}",
                "mode": mode,
                "wall_clock_s": row["wall"],
                "jobs": row["jobs"],
                "cache_hits": row["hits"],
            }
            for t, row in sorted(per_tenant.items())
            if row["jobs"]
        ]
        path = write_bench_json(
            out,
            "serve",
            {
                "jobs": jobs,
                "tenants": tenants,
                "devices": devices,
                "workers": workers,
                "seed": seed,
                "mode": mode,
                "cache": cache_stats,
            },
            results,
            percentiles={"serve_job_seconds": summaries},
        )
        print(f"wrote {path}")

    if failed:
        print(f"SERVE: {failed} job(s) failed", file=sys.stderr)
        return 1
    if cache_stats["hits"] < hit_gate:
        print(
            f"SERVE: only {cache_stats['hits']} plan-cache hit(s); required >= {hit_gate}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_info() -> int:
    import numpy

    import repro
    from repro.sim import cpu_host, dgx_a100, mixed_pcie, multi_node_a100, pcie_a100, pcie_gv100

    print(f"repro {repro.__version__} — Neon (IPDPS 2022) reproduction")
    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}")
    print("\nmachine models:")
    for m in (dgx_a100(8), pcie_a100(8), pcie_gv100(8), mixed_pcie(8), multi_node_a100(2, 4), cpu_host()):
        link = m.topology.link(0, 1) if m.num_devices > 1 else m.topology.link(0, -1)
        print(
            f"  {m.name:<22} mem {m.device.mem_bandwidth / 1e12:5.2f} TB/s   "
            f"link {link.bandwidth / 1e9:6.1f} GB/s   latency {link.latency * 1e6:4.1f} us"
        )
    print("\nexperiments: python -m repro list")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show all reproducible experiments")
    rep = sub.add_parser("reproduce", help="run one or more experiments")
    rep.add_argument("names", nargs="+", help="experiment keys, or 'all'")
    sub.add_parser("collect", help="print measured result tables as markdown")
    sub.add_parser("info", help="package and machine-model summary")
    tr = sub.add_parser("trace", help="run an instrumented miniature of an experiment")
    tr.add_argument("name", help="experiment key (e.g. fig1); see 'list'")
    tr.add_argument("-o", "--output", default="trace.json", help="Chrome trace JSON output path")
    tr.add_argument("--devices", type=int, default=2, help="simulated device count (default 2)")
    tr.add_argument("--no-fuse", action="store_true", help="trace raw per-step dispatch (no fusion pass)")
    tr.add_argument(
        "--mode",
        default="serial",
        choices=EXECUTION_MODES,
        help="execution mode for the traced run (default serial)",
    )
    fl = sub.add_parser("faults", help="run a fault-matrix miniature with recovery armed")
    fl.add_argument("name", help="fault-matrix workload: cg or lbm")
    fl.add_argument(
        "--profile",
        default="transient",
        choices=["transient", "transient+loss", "corruption"],
        help="seeded fault profile (default transient)",
    )
    fl.add_argument("-o", "--output", default="recovery.json", help="Chrome trace JSON output path")
    fl.add_argument("--devices", type=int, default=3, help="simulated device count (default 3)")
    fl.add_argument("--seed", type=int, default=1234, help="FaultPlan seed (default 1234)")
    bn = sub.add_parser("bench", help="serial-vs-parallel miniature benchmark")
    bn.add_argument("name", help="bench workload: lbm or poisson")
    bn.add_argument("--json", action="store_true", help="write BENCH_<name>.json")
    bn.add_argument("--devices", type=int, default=4, help="simulated device count (default 4)")
    bn.add_argument("--iters", type=int, default=None, help="timed iterations (default per bench)")
    bn.add_argument("-o", "--out-dir", default=".", help="directory for BENCH_*.json (default .)")
    bn.add_argument(
        "--tripwire",
        type=float,
        default=None,
        help="fail (exit 1) if parallel wall-clock exceeds this multiple of serial",
    )
    bn.add_argument("--no-fuse", action="store_true", help="benchmark only unfused per-step dispatch")
    bn.add_argument(
        "--fuse-gate",
        type=float,
        default=None,
        help="fail (exit 1) unless fused serial dispatch beats unfused by this factor",
    )
    sn = sub.add_parser("sanitize", help="race-sanitize a miniature's compiled schedule")
    sn.add_argument("name", help="workload: lbm, poisson, karman or elasticity")
    sn.add_argument("--devices", type=int, default=4, help="simulated device count (default 4)")
    sn.add_argument("--occ", default="standard", help="OCC level (none/standard/extended/two-way-extended)")
    sn.add_argument(
        "--mode",
        default="both",
        choices=[*EXECUTION_MODES, "both"],
        help="replay mode(s) to sanitize (default both)",
    )
    sn.add_argument("--mutate", action="store_true", help="also grade the detector against schedule mutants")
    sn.add_argument("--no-fuse", action="store_true", help="sanitize the raw per-step plans (no fusion pass)")
    sn.add_argument("-o", "--output", default=None, help="write the violation/mutation report as JSON")
    tn = sub.add_parser("tune", help="autotune one workload on one machine model")
    tn.add_argument("name", help="workload: lbm, karman, poisson or elasticity")
    tn.add_argument(
        "--machine",
        default="pcie_a100",
        choices=list(TUNE_MACHINES),
        help="machine model to tune for (default pcie_a100)",
    )
    tn.add_argument("--devices", type=int, default=4, help="simulated device count (default 4)")
    tn.add_argument("-o", "--output", default=None, help="write the TunePlan as JSON (e.g. TUNE_lbm.json)")
    rp = sub.add_parser("report", help="performance observatory dashboard / bench regression check")
    rp.add_argument("name", nargs="?", default=None, help="experiment key (e.g. lbm); see 'list'")
    rp.add_argument("--devices", type=int, default=4, help="simulated device count (default 4)")
    rp.add_argument(
        "--mode",
        default="serial",
        choices=EXECUTION_MODES,
        help="replay mode for the modeled timeline (default serial)",
    )
    rp.add_argument("--format", default="text", choices=["text", "json", "html"], help="output format")
    rp.add_argument("-o", "--output", default=None, help="write the dashboard here instead of stdout")
    rp.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="compare two BENCH_*.json documents instead of building a dashboard",
    )
    rp.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative change that counts as a regression in --compare (default 0.25)",
    )
    rp.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on regressions (default: warn only — CI wall-clocks are noisy)",
    )
    rp.add_argument(
        "--flight-out",
        default=None,
        help="also write a flight-recorder snapshot JSON (CI artifact)",
    )
    ch = sub.add_parser("chaos", help="chaos soak: composite fault storm with a bitwise bar")
    ch.add_argument("name", help="chaos workload: lbm or poisson")
    ch.add_argument("--events", type=int, default=50, help="minimum fault events to deliver (default 50)")
    ch.add_argument("--seed", type=int, default=2026, help="storm seed (default 2026)")
    ch.add_argument("--devices", type=int, default=4, help="simulated device count (default 4)")
    ch.add_argument("--losses", type=int, default=2, help="permanent device losses to schedule (default 2)")
    ch.add_argument("--format", default="json", choices=["text", "json", "html"], help="-o output format")
    ch.add_argument("-o", "--output", default=None, help="write the chaos report (e.g. CHAOS_lbm.json)")
    ch.add_argument(
        "--flight-out",
        default=None,
        help="also write a flight-recorder ring snapshot JSON (CI artifact)",
    )
    ch.add_argument(
        "--mode",
        default="serial",
        choices=EXECUTION_MODES,
        help="execution mode for the soak (armed resilience degrades to serial; default serial)",
    )
    sv = sub.add_parser("serve", help="multi-tenant gateway smoke: mixed jobs through the plan cache")
    sv.add_argument("--jobs", type=int, default=20, help="total jobs to submit (default 20)")
    sv.add_argument("--tenants", type=int, default=3, help="tenant count (default 3)")
    sv.add_argument("--devices", type=int, default=2, help="simulated device count (default 2)")
    sv.add_argument("--workers", type=int, default=2, help="gateway worker threads (default 2)")
    sv.add_argument("--seed", type=int, default=2026, help="job-mix seed (default 2026)")
    sv.add_argument(
        "--mode",
        default="serial",
        choices=EXECUTION_MODES,
        help="execution mode for served jobs (default serial)",
    )
    sv.add_argument(
        "--cache-dir",
        default=None,
        help="persistent plan-cache root (default: $REPRO_PLAN_CACHE, else memory-only)",
    )
    sv.add_argument(
        "--hit-gate",
        type=int,
        default=1,
        help="fail (exit 1) unless the plan cache scores at least this many hits (default 1)",
    )
    sv.add_argument("-o", "--output", default=None, help="write BENCH_serve.json here (per-tenant rows)")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "reproduce":
        return cmd_reproduce(args.names)
    if args.command == "collect":
        return cmd_collect()
    if args.command == "trace":
        return cmd_trace(args.name, args.output, args.devices, fuse=not args.no_fuse, mode=args.mode)
    if args.command == "faults":
        return cmd_faults(args.name, args.profile, args.output, args.devices, args.seed)
    if args.command == "bench":
        return cmd_bench(
            args.name,
            args.json,
            args.devices,
            args.iters,
            args.out_dir,
            args.tripwire,
            fuse=not args.no_fuse,
            fuse_gate=args.fuse_gate,
        )
    if args.command == "sanitize":
        return cmd_sanitize(
            args.name,
            args.devices,
            args.occ,
            args.mode,
            args.mutate,
            args.output,
            fuse=not args.no_fuse,
        )
    if args.command == "tune":
        return cmd_tune(args.name, args.machine, args.devices, args.output)
    if args.command == "report":
        return cmd_report(
            args.name,
            args.devices,
            args.mode,
            args.format,
            args.output,
            tuple(args.compare) if args.compare else None,
            args.threshold,
            args.strict,
            args.flight_out,
        )
    if args.command == "serve":
        return cmd_serve(
            args.jobs,
            args.tenants,
            args.devices,
            args.workers,
            args.seed,
            args.mode,
            args.cache_dir,
            args.hit_gate,
            args.output,
        )
    if args.command == "chaos":
        return cmd_chaos(
            args.name,
            args.events,
            args.seed,
            args.devices,
            args.losses,
            args.format,
            args.output,
            args.flight_out,
            mode=args.mode,
        )
    return cmd_info()


if __name__ == "__main__":
    raise SystemExit(main())
