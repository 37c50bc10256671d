"""Graph race sanitizer: happens-before checking of compiled schedules.

The paper's central claim is that the Skeleton's stream/event wiring
*alone* enforces every dependency of the user's sequential program; the
parallel engine executes exactly that wiring, so a single missing event
edge is a silent wrong-answer bug.  This package is the safety net:

* a per-backend recording scope (:mod:`~repro.sanitizer.state`) logs
  what a sanitized run actually executed;
* an access model (:mod:`~repro.sanitizer.access`) derives each compiled
  command's memory footprint at owned/halo-slab granularity;
* a vector-clock happens-before analysis (:mod:`~repro.sanitizer.hb`)
  closes the queue FIFO + record/wait orderings;
* the detector (:mod:`~repro.sanitizer.detector`) reports races, stale
  halo reads, waits on never-recorded events and wiring cycles;
* a schedule mutator (:mod:`~repro.sanitizer.mutate`) plus runner
  (:mod:`~repro.sanitizer.runner`) prove the detector's teeth by
  asserting every injected schedule defect is flagged while unmutated
  experiments stay violation-free.

This ``__init__`` stays import-light on purpose: ``skeleton.fusion``
imports ``repro.sanitizer.access`` — which pulls in this module — so
anything heavier than the stdlib is exposed lazily via ``__getattr__``.
"""

from __future__ import annotations

from .state import ExecLog, ExecRecord, recording

_LAZY = {
    "MemAccess": "access",
    "step_accesses": "access",
    "canonical_halo_messages": "access",
    "HBAnalysis": "hb",
    "build_hb": "hb",
    "ProgramView": "program",
    "QueueView": "program",
    "Violation": "detector",
    "analyze_program": "detector",
    "report_violations": "detector",
    "Mutant": "mutate",
    "generate_mutants": "mutate",
    "SanitizeReport": "runner",
    "MutationReport": "runner",
    "sanitize_skeleton": "runner",
    "sanitize_workload": "runner",
    "mutation_matrix": "runner",
    "miniature": "runner",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)


__all__ = ["ExecLog", "ExecRecord", "recording", *sorted(_LAZY)]
