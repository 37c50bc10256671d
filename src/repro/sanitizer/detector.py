"""The race detector: conflicting accesses vs the happens-before closure.

Four finding classes, in rough order of severity:

* ``race`` — two accesses of one region atom, at least one a write, on
  different commands the wiring leaves unordered.  Under the parallel
  engine this is a real data race; under serial replay it is a latent
  one (host order is masking a missing event).
* ``stale-halo-read`` — a stencil kernel reads a halo atom for which
  some required message has no happens-before-ordered, full-size,
  still-fresh copy (dropped update, truncated payload, or an update that
  predates the last write of the source boundary).
* ``wait-unrecorded`` — a wait on an event no command in the program
  records; a live replay would block forever (the engine's watchdog
  turns this into :class:`~repro.system.engine.EngineDeadlock`).
* ``wiring-cycle`` — record/wait edges form a cycle with queue FIFO
  order; no replay order can satisfy the schedule.

Plus ``unexecuted-command`` when an execution log is supplied: a
compiled command that never retired during the sanitized run (a replay
that silently skipped work would otherwise look race-free).

Violations are pure data; :func:`report_violations` forwards them to the
observability layer (instant trace events + the ``sanitizer_violations``
counter) when it is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import observability as _obs

from .access import canonical_halo_messages, step_accesses
from .hb import HBAnalysis, build_hb
from .program import ProgramView


@dataclass(frozen=True)
class Violation:
    """One sanitizer finding (hashable so reports can be deduplicated)."""

    kind: str
    summary: str
    commands: tuple = ()
    region: tuple = ()

    def __str__(self) -> str:
        return f"[{self.kind}] {self.summary}"


@dataclass
class _Accesses:
    by_region: dict = field(default_factory=dict)  # region -> [(MemAccess, cmd)]
    fields_by_uid: dict = field(default_factory=dict)


def _collect_accesses(view: ProgramView) -> _Accesses:
    acc = _Accesses()
    for q in view.queues:
        for cmd in q.commands:
            info = view.step_info(cmd)
            if info is None:
                continue
            if info.kind == "kernel":
                for tok in info.container.tokens():
                    acc.fields_by_uid.setdefault(tok.data.uid, tok.data)
            elif info.halo_field is not None:
                acc.fields_by_uid.setdefault(info.halo_field.uid, info.halo_field)
            for a in step_accesses(info):
                acc.by_region.setdefault(a.region, []).append((a, cmd))
    return acc


def _region_str(region: tuple) -> str:
    if region[0] == "owned":
        return f"owned[{region[3]}] of rank {region[2]}"
    return f"{region[3]} halo of rank {region[2]}"


def _check_races(hb: HBAnalysis, acc: _Accesses, out: list) -> None:
    reported: set = set()
    for region, entries in acc.by_region.items():
        for i, (ai, ci) in enumerate(entries):
            for aj, cj in entries[i + 1 :]:
                if ci is cj or not (ai.write or aj.write):
                    continue
                pair = (id(ci), id(cj)) if id(ci) < id(cj) else (id(cj), id(ci))
                if (pair, region) in reported or hb.ordered_either(ci, cj):
                    continue
                reported.add((pair, region))
                hazard = "write-write" if ai.write and aj.write else "read-write"
                out.append(
                    Violation(
                        kind="race",
                        summary=(
                            f"{hazard} race on {ai.data_name} {_region_str(region)}: "
                            f"'{ai.label}' and '{aj.label}' are unordered by the schedule"
                        ),
                        commands=(ci.name, cj.name),
                        region=region,
                    )
                )


def _check_halo_freshness(hb: HBAnalysis, acc: _Accesses, out: list) -> None:
    canon_cache: dict = {}
    for region, entries in acc.by_region.items():
        if region[0] != "halo":
            continue
        _, uid, rank, side = region
        reads = [(a, c) for a, c in entries if not a.write]
        if not reads:
            continue
        fld = acc.fields_by_uid.get(uid)
        if fld is None:
            continue
        if uid not in canon_cache:
            canon_cache[uid] = canonical_halo_messages(fld)
        required = canon_cache[uid].get((rank, side), [])
        writes = [(a, c) for a, c in entries if a.write]
        for racc, rcmd in reads:
            missing = []
            for msg in required:
                src_region = ("owned", uid, msg.src_rank, "boundary")
                src_writes = [
                    c for a, c in acc.by_region.get(src_region, []) if a.write
                ]
                satisfied = any(
                    wacc.msg_name == msg.name
                    and wacc.nbytes >= msg.nbytes
                    and hb.ordered(wcmd, rcmd)
                    and not any(hb.ordered(wcmd, kw) and hb.ordered(kw, rcmd) for kw in src_writes)
                    for wacc, wcmd in writes
                )
                if not satisfied:
                    missing.append(msg.name)
            if missing:
                out.append(
                    Violation(
                        kind="stale-halo-read",
                        summary=(
                            f"'{racc.label}' reads the {_region_str(region)} of {racc.data_name} "
                            f"without a completed full-size update for: {', '.join(missing)}"
                        ),
                        commands=(rcmd.name,),
                        region=region,
                    )
                )


def _check_coverage(view: ProgramView, log, out: list) -> None:
    executed = {id(rec.command) for rec in log if rec.op == "run"}
    own = [cmd for q in view.queues for cmd in q.commands if view.step_info(cmd) is not None]
    if not any(id(cmd) in executed for cmd in own):
        # this program was never replayed inside the sanitized window
        # (e.g. a solver's init skeleton ran before arming) — coverage
        # only applies to programs the window actually exercised
        return
    for cmd in own:
        if id(cmd) not in executed:
            out.append(
                Violation(
                    kind="unexecuted-command",
                    summary=f"compiled command '{cmd.name}' never retired during the sanitized run",
                    commands=(cmd.name,),
                )
            )


def analyze_program(view: ProgramView, log=None) -> list[Violation]:
    """Run every sanitizer check on one program view.

    ``log`` is an optional execution log (see
    :mod:`repro.sanitizer.state`): when given, coverage of the compiled
    command set is verified on top of the static analysis.
    """
    violations: list[Violation] = []
    hb = build_hb(view.queues)
    for wait, qname in hb.unrecorded_waits:
        violations.append(
            Violation(
                kind="wait-unrecorded",
                summary=f"queue {qname} waits on {wait.event.name!r} but no command records it",
                commands=(wait.name,),
            )
        )
    if hb.cycle_events:
        violations.append(
            Violation(
                kind="wiring-cycle",
                summary="record/wait wiring is cyclic through events: " + ", ".join(hb.cycle_events),
                commands=tuple(hb.cycle_events),
            )
        )
    acc = _collect_accesses(view)
    _check_races(hb, acc, violations)
    _check_halo_freshness(hb, acc, violations)
    if log is not None:
        _check_coverage(view, log, violations)
    return violations


def report_violations(violations: list[Violation], program: str = "") -> None:
    """Publish findings to the observability layer and the flight recorder.

    Metrics/spans require observability to be enabled; the flight
    recorder is always-on, so a violating schedule leaves a
    ``FLIGHT_sanitizer_violations_*.json`` post-mortem artifact even in
    an uninstrumented run.
    """
    if not violations:
        return
    from repro.observability import flight as _flight  # noqa: PLC0415 - cold path

    for v in violations:
        _flight.record("host", "violation", v.kind, {"program": program, "summary": v.summary})
    _flight.dump(
        "sanitizer_violations",
        {"program": program, "count": len(violations), "kinds": sorted({v.kind for v in violations})},
    )
    if not _obs.OBS.active:
        return
    m = _obs.OBS.metrics
    for v in violations:
        m.counter("sanitizer_violations", kind=v.kind).inc()
        _obs.instant(
            f"sanitizer:{v.kind}",
            cat="sanitizer",
            program=program,
            summary=v.summary,
            commands=list(v.commands),
        )
