"""Command-line entry point: drive the paper reproduction from a shell.

    python -m repro list                 # show every paper table/figure
    python -m repro reproduce fig7       # regenerate one (or 'all')
    python -m repro collect              # print measured tables (markdown)
    python -m repro info                 # package / machine-model summary

Four subcommands take one of the four experiments of ``repro.workloads``
(``lbm``, ``karman``, ``poisson``, ``elasticity``) and run the *solver* at
miniature size; any other name exits 2 with the same message:

    python -m repro trace lbm --devices 4 -o trace-lbm.json
        # one instrumented run: prints the measured wall-clock and latency
        # histograms (p50/p90/p99) beside the modeled DES side (the exact
        # critical path with its {kernel, copy, wait, dispatch} breakdown,
        # per-device utilization), then the counters; writes one Perfetto
        # file (real + simulated timelines, metrics, the report as JSON)
    python -m repro sanitize lbm --devices 4 --occ standard --mutate
        # replay under the graph race sanitizer (vector-clock
        # happens-before checking of the compiled schedule); --mutate
        # also grades the detector against injected schedule mutants;
        # exits non-zero on any violation or escaped mutant
    python -m repro tune lbm --machine mixed_pcie --devices 4 -o TUNE_lbm.json
        # cost-model-driven autotuner: OCC level x execution mode x
        # partition weights, scored by DES replay of each candidate
    python -m repro chaos lbm --events 50 --seed 2026 -o CHAOS_lbm.json
        # (lbm | poisson) calibrated storm of transient faults, silent
        # corruption, device losses and checkpoint tampering; the run must
        # finish *bitwise identical* to its fault-free reference; -o
        # writes the report, flight-recorder sample included
    python -m repro chaos poisson --profile transient+loss --seed 1234
        # one fault class at a time: --profile transient | transient+loss
        # | corruption is the same harness with a different split

    python -m repro serve --jobs 20 --tenants 3 -o BENCH_serve.json
        # multi-tenant serving smoke: a seeded mix of lbm/poisson jobs
        # through the Gateway and its persistent plan cache; prints
        # per-tenant p50/p90/p99 and cache counters, -o writes them as a
        # report; exits non-zero if a job fails or hits < --hit-gate

Performance is measured by ``python3 perf/run.py`` (see BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import subprocess
import sys
from collections.abc import Callable
from typing import NamedTuple

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
    "micro": ("bench_microbench.py", "Framework microbenchmarks"),
}

TUNE_MACHINES = ("dgx_a100", "pcie_a100", "pcie_gv100", "mixed_pcie", "multi_node_a100")


# -- the shared argument pieces, each written once ------------------------------
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _experiment(p, accepted: str = "lbm, karman, poisson or elasticity") -> None:
    p.add_argument("name", help=f"experiment: {accepted}")


def _devices(p, default: int) -> None:
    p.add_argument(
        "--devices", type=_positive_int, default=default, help=f"simulated device count (default {default})"
    )


def _mode(p, what: str, default: str = "serial", extra: tuple[str, ...] = ()) -> None:
    p.add_argument(
        "--mode", default=default, choices=[*EXECUTION_MODES, *extra], help=f"{what} (default {default})"
    )


def _no_fuse(p) -> None:
    p.add_argument("--no-fuse", action="store_true", help="freeze one dispatch unit per step (no fusion pass)")


def _output(p, what: str, default: str | None = None) -> None:
    p.add_argument("-o", "--output", default=default, help=what)


def _seed(p, what: str, default: int) -> None:
    p.add_argument("--seed", type=int, default=default, help=f"{what} (default {default})")


@contextlib.contextmanager
def _armed():
    """Arm a fresh recording for one command; always restore the caller's, whatever it raises."""
    from repro import observability as obs

    prev = (obs.OBS.active, obs.OBS.tracer, obs.OBS.metrics)
    obs.enable()
    try:
        yield
    finally:
        obs.OBS.active, obs.OBS.tracer, obs.OBS.metrics = prev


def _write(path: str, text: str) -> None:
    pathlib.Path(path).write_text(text)
    print(f"wrote {path}")


# -- list / reproduce / collect / info ------------------------------------------
def run_list(args) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_file, desc) in EXPERIMENTS.items():
        print(f"  {key:<{width}}  {desc}")
    return 0


def args_reproduce(p) -> None:
    p.add_argument("names", nargs="+", help="experiment keys, or 'all'")


def run_reproduce(args) -> int:
    if "all" in args.names:
        targets = [str(BENCH_DIR)]
    else:
        unknown = [n for n in args.names if n not in EXPERIMENTS]
        if unknown:
            print(f"unknown experiment(s): {unknown}; try 'python -m repro list'", file=sys.stderr)
            return 2
        targets = [str(BENCH_DIR / EXPERIMENTS[n][0]) for n in args.names]
    return subprocess.call([sys.executable, "-m", "pytest", *targets, "--benchmark-only", "-q"])


def run_collect(args) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import collect_results  # noqa: PLC0415 - script module by design

    collect_results.main()
    return 0


def run_info(args) -> int:
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


# -- trace -----------------------------------------------------------------------
def args_trace(p) -> None:
    _experiment(p)
    _output(p, "Perfetto trace JSON output path (the report rides along under \"report\")", default="trace.json")
    _devices(p, 2)
    _no_fuse(p)  # unfused runs emit no cat="fused" envelopes around the constituent spans
    _mode(p, "replay mode of the run and of the modeled timeline")


def run_trace(args) -> int:
    from repro import observability as obs
    from repro.bench.dashboard import to_text, trace_report

    report = trace_report(args.name, args.output, devices=args.devices, mode=args.mode, fused=not args.no_fuse)
    m = obs.metrics()  # the timed run's registry

    def runs(name):
        return sum(h.count for h in m.series(name))

    print(to_text(report))
    print("\n== executed: the timed run ==")
    print(f"  kernel launches: {runs('kernel_seconds')}")
    print(f"  copies:          {runs('copy_seconds')}")
    print(f"  halo bytes sent: {m.total('halo_bytes_sent'):g}")
    print(f"  sync waits:      {sum(sk['num_waits'] * sk['runs'] for sk in report['skeletons'])}")
    print(f"  real spans (warm-up + timed): {len(obs.tracer())}")
    print(f"\n{m.to_markdown()}")
    print(f"\nwrote {args.output} — open in https://ui.perfetto.dev (real + sim:* tracks)")
    return 0


# -- sanitize --------------------------------------------------------------------
def args_sanitize(p) -> None:
    _experiment(p)
    _devices(p, 4)
    p.add_argument("--occ", default="standard", help="OCC level (none/standard/extended/two-way-extended)")
    _mode(p, "replay mode(s) to sanitize", default="both", extra=("both",))
    p.add_argument("--mutate", action="store_true", help="also grade the detector against schedule mutants")
    _no_fuse(p)  # either way the sanitizer records every constituent command of a unit
    _output(p, "write the violation/mutation report as JSON")


def run_sanitize(args) -> int:
    from repro import observability as obs
    from repro.sanitizer import mutation_matrix, sanitize_workload
    from repro.skeleton import Occ

    name, devices, fused = args.name, args.devices, not args.no_fuse
    occ = Occ.parse(args.occ)
    modes = EXECUTION_MODES if args.mode == "both" else (args.mode,)
    reports = [sanitize_workload(name, devices=devices, occ=occ, mode=m, fused=fused) for m in modes]

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
    print(f"sanitizer_violations counter: {obs.metrics().total('sanitizer_violations'):g}")

    doc: dict = {"runs": [rep.to_json() for rep in reports]}
    if args.mutate:
        matrix = mutation_matrix(workloads=(name,), devices=(devices,), occs=(occ,), fused=fused)
        doc["mutation"] = matrix.to_json()
        print(f"mutation matrix: {matrix.killed}/{matrix.total} mutants killed ({matrix.kinds})")
        for row in matrix.escaped:
            print(f"  ESCAPED {row.kind} {row.mutant} on {row.skeleton}")
        ok = ok and matrix.total > 0 and not matrix.escaped
    if args.output:
        _write(args.output, json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


# -- tune ------------------------------------------------------------------------
def args_tune(p) -> None:
    _experiment(p)
    p.add_argument(
        "--machine",
        default="pcie_a100",
        choices=list(TUNE_MACHINES),
        help="machine model to tune for (default pcie_a100)",
    )
    _devices(p, 4)
    _output(p, "write the TunePlan as JSON (e.g. TUNE_lbm.json)")


def run_tune(args) -> int:
    from repro.sim import machine as machines
    from repro.tuner import tune_workload

    devices = args.devices
    if args.machine == "multi_node_a100":
        # the cluster preset takes (nodes, gpus_per_node)
        machine = machines.multi_node_a100(2, max(1, devices // 2))
    else:
        machine = getattr(machines, args.machine)(devices)
    plan = tune_workload(args.name, machine, devices=devices)
    print(f"{args.name} on {machine.name} ({devices} devices): {len(plan.candidates)} candidates")
    print(f"  shares: {'  '.join(f'{s:.3f}' for s in plan.shares)}")
    width = max(len(c.occ) for c in plan.candidates)
    for c in sorted(plan.candidates, key=lambda c: c.makespan):
        marks = " <- best" if c is plan.best else (" <- baseline" if c is plan.baseline else "")
        print(f"  {c.occ:<{width}}  {c.mode:<8}  {c.weights_label:<7}  {c.makespan * 1e3:8.3f} ms{marks}")
    print(
        f"decision: occ={plan.best.occ} mode={plan.best.mode} weights={plan.best.weights_label} "
        f"— {100 * plan.improvement:.1f}% below the uniform standard-OCC serial baseline"
    )
    if args.output:
        plan.save(args.output)
        print(f"wrote {args.output}")
    return 0


# -- chaos -----------------------------------------------------------------------
def args_chaos(p) -> None:
    _experiment(p, "lbm or poisson")
    p.add_argument("--events", type=int, default=50, help="minimum fault events to deliver (default 50)")
    _seed(p, "fault-plan seed", 2026)
    _devices(p, 4)
    p.add_argument(
        "--profile",
        default="storm",
        help="fault profile: storm (default; every fault class at once), transient, transient+loss or corruption",
    )
    _output(p, "write the chaos report as JSON (e.g. CHAOS_lbm.json)")
    _mode(p, "execution mode for the soak")


def run_chaos(args) -> int:
    from repro.bench.chaos import run_chaos as soak

    report = soak(
        args.name, events=args.events, seed=args.seed, devices=args.devices, profile=args.profile, mode=args.mode
    )
    print(report.summary())
    if args.output:
        _write(args.output, json.dumps(report.to_json(), indent=2) + "\n")
    return 0 if report.ok else 1


# -- serve -----------------------------------------------------------------------
def args_serve(p) -> None:
    p.add_argument("--jobs", type=_positive_int, default=20, help="total jobs to submit (default 20)")
    p.add_argument("--tenants", type=_positive_int, default=3, help="tenant count (default 3)")
    _devices(p, 2)
    p.add_argument("--workers", type=_positive_int, default=2, help="gateway worker threads (default 2)")
    _seed(p, "job-mix seed", 2026)
    _mode(p, "execution mode for served jobs")
    p.add_argument(
        "--cache-dir",
        default=None,
        help="persistent plan-cache root (default: $REPRO_PLAN_CACHE, else memory-only)",
    )
    p.add_argument(
        "--hit-gate",
        type=int,
        default=1,
        help="fail (exit 1) unless the plan cache scores at least this many hits (default 1)",
    )
    _output(p, "write the per-tenant report here (e.g. BENCH_serve.json)")


def run_serve(args) -> int:
    import random

    from repro import observability as obs
    from repro.bench.harness import write_bench_json
    from repro.serving import Gateway, JobSpec, PlanCache

    # a deterministic mixed workload: the same seed always produces the
    # same (tenant, spec) stream, so CI runs are reproducible
    specs = [
        JobSpec.make("lbm", (8, 6, 6), steps=3, devices=args.devices, mode=args.mode, omega=1.1),
        JobSpec.make("poisson", (8, 6, 6), steps=4, devices=args.devices, mode=args.mode),
    ]
    rng = random.Random(args.seed)
    tenant_names = [f"tenant{i}" for i in range(args.tenants)]
    stream = [(rng.choice(tenant_names), rng.choice(specs)) for _ in range(args.jobs)]

    failed = 0
    per_tenant: dict[str, dict] = {t: {"jobs": 0, "wall": 0.0, "hits": 0} for t in tenant_names}
    with Gateway(cache=PlanCache(root=args.cache_dir), workers=args.workers) as gw:
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

    cache_stats = stats["cache"]
    print(f"served {stats['done']} job(s) from {args.tenants} tenant(s) ({failed} failed)")
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

    if args.output:
        results = [
            {
                "label": f"serve-{t}",
                "mode": args.mode,
                "wall_clock_s": row["wall"],
                "jobs": row["jobs"],
                "cache_hits": row["hits"],
            }
            for t, row in sorted(per_tenant.items())
            if row["jobs"]
        ]
        params = {
            "jobs": args.jobs,
            "tenants": args.tenants,
            "devices": args.devices,
            "workers": args.workers,
            "seed": args.seed,
            "mode": args.mode,
            "cache": cache_stats,
        }
        path = write_bench_json(
            args.output, "serve", params, results, percentiles={"serve_job_seconds": summaries}
        )
        print(f"wrote {path}")

    if failed:
        print(f"SERVE: {failed} job(s) failed", file=sys.stderr)
        return 1
    if cache_stats["hits"] < args.hit_gate:
        print(
            f"SERVE: only {cache_stats['hits']} plan-cache hit(s); required >= {args.hit_gate}",
            file=sys.stderr,
        )
        return 1
    return 0


# -- the table -------------------------------------------------------------------
class Command(NamedTuple):
    name: str
    help: str
    add_arguments: Callable | None
    run: Callable
    #: run with observability armed (the caller's state restored afterwards)
    observed: bool = False


COMMANDS = (
    Command("list", "show all reproducible experiments", None, run_list),
    Command("reproduce", "run one or more experiments", args_reproduce, run_reproduce),
    Command("collect", "print measured result tables as markdown", None, run_collect),
    Command("info", "package and machine-model summary", None, run_info),
    Command("trace", "run an instrumented miniature: report + Perfetto trace", args_trace, run_trace, True),
    Command("sanitize", "race-sanitize a miniature's compiled schedule", args_sanitize, run_sanitize, True),
    Command("tune", "tune one experiment on one machine model", args_tune, run_tune),
    Command("chaos", "fault harness: a seeded fault profile (default the storm) with a bitwise bar", args_chaos, run_chaos, True),
    Command("serve", "multi-tenant gateway smoke: mixed jobs through the plan cache", args_serve, run_serve, True),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        if cmd.add_arguments is not None:
            cmd.add_arguments(p)
        p.set_defaults(command_entry=cmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cmd: Command = args.command_entry
    try:
        with _armed() if cmd.observed else contextlib.nullcontext():
            return cmd.run(args)
    except ValueError as exc:
        # a value the command cannot run (repro.workloads.UnknownExperiment
        # is one): usage error, not a crash
        print(exc.args[0], file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
