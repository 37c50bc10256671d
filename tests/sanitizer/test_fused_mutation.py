"""The sanitizer keeps its teeth when the program it guards is fused.

Fusion batches *replay dispatch* but leaves the recorded queues, the
``step_of`` map and the event wiring untouched — which is exactly what
the sanitizer analyses and what the mutator edits.  These tests prove
the property instead of assuming it: the graded mutants are generated
from genuinely fused programs (``dispatch`` populated, multi-step
units present), a fused program with a dropped event wait is still
flagged, and a sanitized *replay* of a fused skeleton logs every
constituent command (the fused fast path must never swallow the
per-command sanitizer records).
"""

from __future__ import annotations

import pytest

from repro.sanitizer import analyze_program, sanitize_skeleton
from repro.sanitizer.mutate import generate_mutants
from repro.sanitizer.program import ProgramView
from repro.sanitizer.state import recording
from repro.sanitizer.runner import miniature
from repro.workloads import build


@pytest.fixture(scope="module")
def fused_lbm():
    """A 4-device LBM skeleton frozen with fusion on (the default)."""
    sk = build(miniature("lbm", devices=4)).skeletons[0]
    program = sk.plan._ensure_program()
    assert any(len(u.steps) > 1 for u in program.dispatch), "fixture must be a fused program"
    return sk


def test_fused_program_mutants_all_detected(fused_lbm):
    mutants = generate_mutants(fused_lbm.plan, max_per_kind=None)
    assert mutants, "the fused program produced no confirmed-broken mutants"
    kinds = {m.kind for m in mutants}
    assert "drop-wait" in kinds, "no drop-wait mutant: the headline defect is untested"
    escaped = [m.mid for m in mutants if not analyze_program(m.view)]
    assert not escaped, f"mutants escaped the detector on a fused program: {escaped}"


def test_fused_drop_wait_specifically_flagged(fused_lbm):
    """The ISSUE's named scenario: fused program, one event wait dropped —
    the detector must name a synchronisation defect, not a side effect."""
    mutant = next(
        m for m in generate_mutants(fused_lbm.plan, max_per_kind=None) if m.kind == "drop-wait"
    )
    findings = analyze_program(mutant.view)
    assert findings
    assert any("race" in f.kind or "stale" in f.kind or "wiring" in f.kind for f in findings), [
        f.kind for f in findings
    ]


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_sanitized_fused_replay_is_clean(fused_lbm, mode):
    assert sanitize_skeleton(fused_lbm, mode=mode, runs=2) == []


def test_fused_replay_logs_every_constituent_command(fused_lbm):
    """Under recording the fused replay runs each constituent's own
    closure; the log must cover every data command of every unit, so the
    coverage check ('unexecuted-command') stays meaningful under fusion."""
    with recording(fused_lbm.backend) as recorded:
        fused_lbm.run()
    log = recorded.drain()
    program = fused_lbm.plan._ensure_program()
    logged = {rec.command for rec in log}
    for unit in program.dispatch:
        for step in unit.steps:
            assert step.command in logged, f"fused replay skipped {step.command.name}"
    view = ProgramView.from_compiled(program, label=fused_lbm.name)
    assert analyze_program(view, log) == []
