"""Drivers: sanitize real runs and grade the detector against mutants.

Two entry points used by ``python -m repro sanitize``, the test suite
and CI:

* :func:`sanitize_workload` — build a miniature, replay it under the
  requested mode with execution recording armed, and analyze every
  compiled program (races, halo freshness, wiring, coverage);
* :func:`mutation_matrix` — compile the miniatures across OCC levels and
  device counts, generate confirmed-broken schedule mutants, and check
  the detector flags each one.  No kernels execute here: mutants are
  analyzed statically, so the matrix stays fast enough for CI.

The miniatures are the four experiments of :mod:`repro.workloads` (same
code paths as the benchmarks), shrunk by :func:`miniature` until a full
mutation matrix runs in CI time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.skeleton import Occ
from repro.workloads import JobSpec, build, check_experiment

from . import state
from .detector import Violation, analyze_program, report_violations
from .mutate import generate_mutants
from .program import ProgramView

#: experiment -> (minimum axis-0 extent, lateral extents, steps, params):
#: a couple of replays of every skeleton is all the coverage check needs
_MINIATURES = {
    "lbm": (12, (6, 6), 2, {}),
    "poisson": (12, (6, 6), 2, {"rhs": "ones"}),
    "karman": (18, (30,), 2, {}),
    "elasticity": (8, (), 1, {}),
}


def miniature(
    name: str, devices: int = 4, occ: Occ = Occ.STANDARD, mode: str = "serial", fused: bool = True
) -> JobSpec:
    """The checkable-size spec of one experiment.

    Axis 0 scales with the device count so every partition keeps a legal
    slab (at least ``2 * radius`` cells) up to 8 devices.
    """
    minimum, lateral, steps, params = _MINIATURES[check_experiment(name)]
    shape = (max(minimum, 2 * devices), *lateral)
    return JobSpec.make(name, shape, steps, devices=devices, occ=occ.value, mode=mode, fused=fused, **params)


@dataclass
class SanitizeReport:
    """Findings of one sanitized workload replay."""

    workload: str
    devices: int
    occ: str
    mode: str
    commands: int = 0
    log_entries: int = 0
    violations: list = field(default_factory=list)  # (skeleton, Violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "devices": self.devices,
            "occ": self.occ,
            "mode": self.mode,
            "commands": self.commands,
            "log_entries": self.log_entries,
            "ok": self.ok,
            "violations": [
                {
                    "skeleton": sk,
                    "kind": v.kind,
                    "summary": v.summary,
                    "commands": list(v.commands),
                    "region": list(v.region),
                }
                for sk, v in self.violations
            ],
        }


def sanitize_skeleton(skeleton, mode: str = "serial", runs: int = 2) -> list[Violation]:
    """Replay one compiled skeleton under the sanitizer; return findings.

    The execution log of ``runs`` replays feeds the coverage check; the
    static analysis sees the frozen program either way.  Findings are
    forwarded to observability when it is enabled.
    """
    with state.recording(skeleton.backend) as recorded:
        for _ in range(runs):
            skeleton.run(mode=mode)
    log = recorded.drain()
    view = ProgramView.from_compiled(skeleton.plan._ensure_program(), label=skeleton.name)
    violations = analyze_program(view, log)
    report_violations(violations, program=skeleton.name)
    return violations


def sanitize_workload(
    name: str, devices: int = 4, occ: Occ = Occ.STANDARD, mode: str = "serial", fused: bool = True
) -> SanitizeReport:
    """Build, replay and analyze one miniature end to end."""
    app = build(miniature(name, devices, occ, mode, fused))
    with state.recording(app.backend) as recorded:
        app.run()
    log = recorded.drain()
    report = SanitizeReport(workload=name, devices=devices, occ=occ.value, mode=mode, log_entries=len(log))
    for sk in app.skeletons:
        view = ProgramView.from_compiled(sk.plan._ensure_program(), label=sk.name)
        report.commands += len(view.info)
        violations = analyze_program(view, log)
        report_violations(violations, program=sk.name)
        report.violations.extend((sk.name, v) for v in violations)
    return report


@dataclass
class MutationRow:
    """One mutant's fate in the matrix."""

    workload: str
    devices: int
    occ: str
    skeleton: str
    kind: str
    mutant: str
    killed: bool
    finding_kinds: tuple = ()


@dataclass
class MutationReport:
    """The full matrix: every mutant must be killed."""

    rows: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def killed(self) -> int:
        return sum(r.killed for r in self.rows)

    @property
    def escaped(self) -> list:
        return [r for r in self.rows if not r.killed]

    @property
    def kinds(self) -> dict:
        out: dict[str, int] = {}
        for r in self.rows:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "killed": self.killed,
            "kinds": self.kinds,
            "rows": [
                {
                    "workload": r.workload,
                    "devices": r.devices,
                    "occ": r.occ,
                    "skeleton": r.skeleton,
                    "kind": r.kind,
                    "mutant": r.mutant,
                    "killed": r.killed,
                    "finding_kinds": list(r.finding_kinds),
                }
                for r in self.rows
            ],
        }


def mutation_matrix(
    workloads=("lbm", "poisson"),
    devices=(2, 4, 8),
    occs=tuple(Occ),
    max_per_kind: int | None = 2,
    fused: bool = True,
) -> MutationReport:
    """Generate and grade schedule mutants across the experiment matrix.

    ``max_per_kind`` caps mutants per kind *per skeleton* so the matrix
    stays CI-sized while still covering every mutant kind at every
    configuration that produces it (single-device programs, for example,
    have no halo copies to break).
    """
    report = MutationReport()
    for name in workloads:
        for ndev in devices:
            for occ in occs:
                for sk in build(miniature(name, ndev, occ, fused=fused)).skeletons:
                    for mut in generate_mutants(sk.plan, max_per_kind=max_per_kind):
                        findings = analyze_program(mut.view)
                        report.rows.append(
                            MutationRow(
                                workload=name,
                                devices=ndev,
                                occ=occ.value,
                                skeleton=sk.name,
                                kind=mut.kind,
                                mutant=mut.mid,
                                killed=bool(findings),
                                finding_kinds=tuple(sorted({f.kind for f in findings})),
                            )
                        )
    return report
