"""The Skeleton: Neon's orchestrator (paper section V).

Users hand it their sequential list of Containers plus a backend and an
OCC level; the Skeleton extracts the data-dependency graph, builds the
halo-complete multi-GPU graph, applies the OCC transform, prunes
redundant dependencies, and compiles a stream/event schedule.  ``run()``
executes the schedule (functionally, on the simulated devices) and
returns the recorded command queues; ``trace()`` replays them through
the performance model.
"""

from __future__ import annotations

from repro import observability as _obs
from repro.sets import Container
from repro.sim import MachineSpec, Trace, sim_replay
from repro.system import Backend

from .executor import check_trace_dependencies, enforce_divergence_guardrail
from .mgraph import build_multi_gpu_graph
from .occ import Occ, OccReport, apply_occ
from .scheduler import ExecutionResult, Plan


class Skeleton:
    """A compiled, repeatedly-runnable multi-GPU application step."""

    def __init__(
        self,
        backend: Backend,
        containers: list[Container],
        occ: Occ = Occ.STANDARD,
        name: str = "skeleton",
        reuse_parent_streams: bool = True,
    ):
        self.backend = backend
        self.containers = list(containers)
        self.occ = occ
        self.name = name
        with _obs.span(f"skeleton.compile:{name}", cat="compile", skeleton=name, occ=occ.value):
            with _obs.span("skeleton.compile.multi_gpu_graph", cat="compile"):
                self.graph = build_multi_gpu_graph(self.containers, backend)
            with _obs.span("skeleton.compile.occ", cat="compile"):
                self.occ_report: OccReport = apply_occ(self.graph, occ)
            with _obs.span("skeleton.compile.transitive_reduction", cat="compile"):
                self.redundant_edges_removed = self.graph.local_transitive_reduction()
            with _obs.span("skeleton.compile.plan", cat="compile"):
                self.plan = Plan(self.graph, backend, reuse_parent_streams=reuse_parent_streams)
        if _obs.OBS.active:
            _obs.OBS.metrics.counter("skeletons_compiled", occ=occ.value).inc()
        self.last_result: ExecutionResult | None = None

    def run(self, mode: str = "serial") -> ExecutionResult:
        """Execute once on the backend's devices; results land in the fields.

        ``mode="serial"`` (default) replays the compiled program on the
        host in task-list order — the exact historical semantics.
        ``mode="parallel"`` replays through the
        :class:`~repro.system.ParallelEngine`: one worker thread per
        device, synchronised only by the recorded stream/event wiring
        (bitwise-identical results, concurrent wall-clock).
        Any other mode raises ``ValueError``.  A fault session armed on
        the backend applies in either mode.

        Either way the schedule itself is frozen after the first call:
        repeated ``run()`` re-derives no dependencies and allocates no
        queues or events.
        """
        if not _obs.OBS.active:
            self.last_result = self.plan.execute(True, mode)
        else:
            with _obs.span(f"skeleton.run:{self.name}", cat="phase", skeleton=self.name):
                self.last_result = self.plan.execute(True, mode)
        if self.backend.session.faults is not None:
            enforce_divergence_guardrail(self.containers, self.name)
        return self.last_result

    def record(self) -> ExecutionResult:
        """Record the schedule without executing kernels (timing-only)."""
        return self.plan.execute(eager=False)

    def close(self) -> None:
        """Retire the replay engines (idempotent; the compiled schedule
        survives — a later ``run()`` simply builds fresh engines).

        Long-lived hosts (the serving gateway's plan cache) call this on
        eviction so warm programs don't pin worker pools forever.
        """
        self.plan.close_engines()

    def trace(self, machine: MachineSpec | None = None, result: ExecutionResult | None = None) -> Trace:
        """Simulated timeline of one execution under the machine model."""
        result = result or self.last_result or self.record()
        return sim_replay(result, machine or self.backend.machine)

    def validate(self) -> None:
        """Assert the stream/event wiring alone enforces all dependencies."""
        result = self.record()
        trace = sim_replay(result, self.backend.machine)
        violations = check_trace_dependencies(result, trace)
        if violations:
            lines = "\n".join(str(v) for v in violations[:10])
            raise AssertionError(f"schedule violates {len(violations)} dependencies:\n{lines}")

    @property
    def stats(self):
        if self.last_result is None:
            raise RuntimeError("run() or record() the skeleton first")
        return self.last_result.stats

    def describe(self) -> str:
        """Human-readable summary of the compiled plan (for debugging)."""
        lines = [
            f"Skeleton '{self.name}': {len(self.containers)} containers, occ={self.occ.value}, "
            f"{self.backend.num_devices} devices",
            f"  streams: {self.plan.num_streams}; redundant edges removed: "
            f"{self.redundant_edges_removed}",
        ]
        if self.occ_report.split_stencils or self.occ_report.split_pre_maps or self.occ_report.split_post_nodes:
            lines.append(
                "  occ splits: "
                f"stencils={self.occ_report.split_stencils} "
                f"pre-maps={self.occ_report.split_pre_maps} "
                f"post-nodes={self.occ_report.split_post_nodes}"
            )
        for i, level in enumerate(self.graph.bfs_levels()):
            names = ", ".join(f"{n.name}(s{self.plan.stream_of[n.uid]})" for n in level)
            lines.append(f"  level {i}: {names}")
        hints = list(self.graph.hint_edges())
        if hints:
            lines.append("  hints: " + ", ".join(f"{a.name}->{b.name}" for a, b in hints))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Skeleton({self.name}, {len(self.containers)} containers, occ={self.occ.value}, "
            f"{self.backend.num_devices} devices)"
        )
