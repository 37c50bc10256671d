"""The race detector against real compiled schedules, broken by hand.

Each test takes a genuine OCC-compiled miniature (the same programs the
solvers replay), verifies the sanitizer's clean bill on the intact
schedule, then applies one targeted edit to an analysis-side view and
asserts the specific violation class appears.
"""

import pytest

from repro import observability as obs
from repro.sanitizer import access, analyze_program, report_violations, sanitize_skeleton
from repro.sanitizer.mutate import _halo_read_regions
from repro.sanitizer.program import ProgramView, QueueView
from repro.sanitizer.state import recording
from repro.sanitizer.runner import miniature
from repro.sets import DataView, Pattern
from repro.sets.launch import token_access_parts
from repro.skeleton import Occ
from repro.workloads import build
from repro.system import Backend, Event
from repro.system.queue import CopyCommand, RecordEventCommand, WaitEventCommand


@pytest.fixture(scope="module")
def lbm_skeleton():
    """One compiled LBM skeleton on 2 devices at OCC STANDARD."""
    sk = build(miniature("lbm", devices=2)).skeletons[0]
    sk.plan._ensure_program()
    return sk


def _view(sk):
    return ProgramView.from_compiled(sk.plan._ensure_program(), label=sk.name)


def test_clean_schedule_has_zero_violations(lbm_skeleton):
    assert analyze_program(_view(lbm_skeleton)) == []


def test_dropping_all_waits_surfaces_races(lbm_skeleton):
    view = _view(lbm_skeleton)
    for q in view.queues:
        q.commands = [c for c in q.commands if not isinstance(c, WaitEventCommand)]
    kinds = {v.kind for v in analyze_program(view)}
    assert "race" in kinds


def test_dropping_a_read_halo_copy_is_a_stale_read(lbm_skeleton):
    view = _view(lbm_skeleton)
    halo_reads = _halo_read_regions(view)
    assert halo_reads, "the miniature must exchange halos"
    dropped = False
    for q in view.queues:
        for pos, cmd in enumerate(q.commands):
            info = view.step_info(cmd)
            if not isinstance(cmd, CopyCommand) or info is None or info.halo_field is None:
                continue
            msg = info.msg
            if ("halo", info.halo_field.uid, msg.dst_rank, msg.side) in halo_reads:
                del q.commands[pos]
                dropped = True
                break
        if dropped:
            break
    assert dropped
    violations = analyze_program(view)
    assert any(v.kind == "stale-halo-read" for v in violations)


def test_dropping_a_waited_record_is_flagged(lbm_skeleton):
    view = _view(lbm_skeleton)
    waited = {
        c.event.uid for q in view.queues for c in q.commands if isinstance(c, WaitEventCommand)
    }
    for q in view.queues:
        for pos, cmd in enumerate(q.commands):
            if isinstance(cmd, RecordEventCommand) and cmd.event.uid in waited:
                del q.commands[pos]
                kinds = {v.kind for v in analyze_program(view)}
                assert "wait-unrecorded" in kinds
                return
    pytest.fail("no waited record found in the compiled schedule")


def test_reduce_halves_claiming_the_whole_row_race(monkeypatch):
    """The halves of a split reduce own disjoint slots of the partial, and
    nothing but the detector keeps that so: a footprint where both halves
    claim every slot of the row must race on the partial."""
    cg = build(miniature("poisson", devices=2, occ=Occ.TWO_WAY)).solver.cg
    view = _view(cg.sk_a)
    halves = {i.view for i in view.info.values() if i.kind == "kernel" and i.container.pattern is Pattern.REDUCE}
    assert halves == {DataView.INTERNAL, DataView.BOUNDARY}
    assert analyze_program(view) == []

    def whole_row(token, v):
        return token_access_parts(token, DataView.STANDARD if token.pattern is Pattern.REDUCE else v)

    monkeypatch.setattr(access, "token_access_parts", whole_row)
    races = [v for v in analyze_program(view) if v.kind == "race"]
    assert races and {v.region[1] for v in races} == {cg.pq_partial.uid}


def test_wiring_cycle_is_flagged():
    backend = Backend.sim_gpus(2)
    q0 = backend.new_queue(0, name="q0", eager=False)
    q1 = backend.new_queue(1, name="q1", eager=False)
    ev_a, ev_b = Event("eva"), Event("evb")
    q0.wait_event(ev_b)
    q0.record_event(ev_a)
    q1.wait_event(ev_a)
    q1.record_event(ev_b)
    view = ProgramView(queues=[QueueView(q.name, q.device, list(q.commands)) for q in (q0, q1)], info={})
    kinds = {v.kind for v in analyze_program(view)}
    assert "wiring-cycle" in kinds


def test_sanitize_skeleton_clean_and_coverage(lbm_skeleton):
    assert sanitize_skeleton(lbm_skeleton, mode="serial", runs=2) == []

    # replay under recording, then pretend one kernel never retired:
    # coverage must name exactly that command
    with recording(lbm_skeleton.backend) as recorded:
        lbm_skeleton.run()
    log = recorded.drain()
    view = _view(lbm_skeleton)
    victim = next(
        cmd
        for q in view.queues
        for cmd in q.commands
        if (i := view.step_info(cmd)) is not None and i.kind == "kernel"
    )
    pruned = [rec for rec in log if rec.command is not victim]
    violations = analyze_program(view, pruned)
    assert [v.kind for v in violations] == ["unexecuted-command"]
    assert violations[0].commands == (victim.name,)


def test_coverage_skips_programs_outside_the_window(lbm_skeleton):
    """A compiled program that never replayed during the sanitized run
    (e.g. a solver's init step) must not drown the report in noise."""
    assert analyze_program(_view(lbm_skeleton), log=[]) == []


def test_parallel_mode_replay_is_clean(lbm_skeleton):
    assert sanitize_skeleton(lbm_skeleton, mode="parallel", runs=2) == []


def test_report_violations_feeds_observability(lbm_skeleton):
    view = _view(lbm_skeleton)
    for q in view.queues:
        q.commands = [c for c in q.commands if not isinstance(c, WaitEventCommand)]
    violations = analyze_program(view)
    assert violations
    before = obs.OBS.metrics.total("sanitizer_violations")
    report_violations(violations, program=lbm_skeleton.name)
    assert obs.OBS.metrics.total("sanitizer_violations") == before + len(violations)
    names = {s.name for s in obs.tracer().spans}
    assert any(n.startswith("sanitizer:") for n in names)
