"""Plan replay through the cost model: the autotuner's objective function.

The tuner never touches a wall clock: a candidate configuration is
scored by replaying the compiled program's recorded command stream
through the DES under a :class:`~repro.sim.machine.MachineSpec`.  These
helpers are the single entry point for that — they accept whatever a
Skeleton hands out (an ``ExecutionResult``, or the raw queue list) and
return makespans, so callers never reach into the DES directly.

``mode`` models host dispatch, making execution mode a tunable knob:

* ``None`` — issue is free (the historical pure device-side replay),
* ``"serial"`` — one host thread issues every command in global
  task-list order, paying ``HOST_DISPATCH`` per command; with many
  devices the single issue loop itself becomes the bottleneck,
* ``"parallel"`` — one issuing worker per device (each pays
  ``WORKER_SPINUP`` once, then ``HOST_DISPATCH`` per own command), so
  issue cost stays flat as devices are added.
"""

from __future__ import annotations

from repro.system.engine import EXECUTION_MODES

from .des import simulate
from .machine import MachineSpec
from .trace import Trace

#: host-side cost of issuing one command (a driver enqueue call)
HOST_DISPATCH = 1.5e-6
#: one-off cost of waking a per-device issuing worker (parallel mode)
WORKER_SPINUP = 2.0e-5


def _queues(plan) -> list:
    queues = getattr(plan, "queues", plan)
    if not isinstance(queues, (list, tuple)):
        raise TypeError(f"expected an ExecutionResult or a queue list, got {type(plan)!r}")
    return list(queues)


def _issue_times(queues, mode: str | None) -> dict[int, float] | None:
    """Per-command earliest-start times implied by the host dispatch mode."""
    if mode is None:
        return None
    if mode == "serial":
        seqs = sorted(cmd.issue_seq for q in queues for cmd in q.commands)
        return {seq: (i + 1) * HOST_DISPATCH for i, seq in enumerate(seqs)}
    if mode == "parallel":
        # one worker per *device* (the ParallelEngine's layout): it issues
        # every command of that device's queues in recorded order
        by_device: dict[int, list[int]] = {}
        for q in queues:
            by_device.setdefault(q.device.index, []).extend(cmd.issue_seq for cmd in q.commands)
        times = {}
        for seqs in by_device.values():
            for i, seq in enumerate(sorted(seqs)):
                times[seq] = WORKER_SPINUP + (i + 1) * HOST_DISPATCH
        return times
    raise ValueError(f"unknown dispatch mode {mode!r}; expected None or one of {EXECUTION_MODES}")


def sim_replay(plan, machine: MachineSpec, mode: str | None = None) -> Trace:
    """DES trace of one recorded program under ``machine``."""
    queues = _queues(plan)
    return simulate(queues, machine, issue_times=_issue_times(queues, mode))


def sim_makespan(plan, machine: MachineSpec, mode: str | None = None) -> float:
    """Simulated end-to-end seconds of one recorded program."""
    return sim_replay(plan, machine, mode=mode).makespan


def sim_makespan_total(plans, machine: MachineSpec, mode: str | None = None) -> float:
    """Summed makespan of a sequence of recorded programs.

    An application step is usually several host-synchronised skeletons
    (CG's A/B pair, LBM's parity pair); the host barrier between them
    means their simulated times add.
    """
    return sum(sim_makespan(p, machine, mode=mode) for p in plans)
