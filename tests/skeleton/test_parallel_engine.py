"""Parallel replay is bitwise-identical to serial on the real solvers.

A passing parallel run is a live proof that the Plan's event wiring
alone enforces every dependency: the engine consults no host-order
crutch between devices, so any missing synchronisation shows up as a
torn halo and a bitwise mismatch against the serial replay.
"""

import re
import warnings

import numpy as np
import pytest

from repro import observability as obs
from repro import resilience as res
from repro.resilience import FaultPlan
from repro.solvers import ElasticitySolver, PoissonSolver
from repro.solvers.lbm import KarmanVortexStreet, LidDrivenCavity
from repro.system import EXECUTION_MODES, Backend, ParallelEngine


def _lbm_run(devices: int, mode: str, iters: int = 3, shape=(16, 8, 8)) -> np.ndarray:
    cavity = LidDrivenCavity(Backend.sim_gpus(devices), shape)
    cavity.step(iters, mode=mode)
    return cavity.current.to_numpy()


@pytest.mark.parametrize("devices", [2, 4, 8])
def test_lbm_d3q19_parallel_matches_serial_bitwise(devices):
    serial = _lbm_run(devices, "serial")
    parallel = _lbm_run(devices, "parallel")
    assert np.array_equal(serial, parallel)


def test_lbm_d2q9_karman_parallel_matches_serial_bitwise():
    def run(mode):
        karman = KarmanVortexStreet(Backend.sim_gpus(3), (18, 36))
        karman.step(3, mode=mode)
        return karman.current.to_numpy()

    assert np.array_equal(run("serial"), run("parallel"))


def test_poisson_cg_parallel_matches_serial_bitwise():
    def run(mode):
        solver = PoissonSolver(Backend.sim_gpus(4), (12, 10, 8))
        solver.set_rhs(lambda z, y, x: np.sin(0.3 * z) + 0.1 * y - 0.2 * x)
        solver.cg.mode = mode
        result = solver.solve(max_iterations=12, tolerance=1e-30)
        return solver.solution(), result.residual_norms

    u_s, norms_s = run("serial")
    u_p, norms_p = run("parallel")
    assert np.array_equal(u_s, u_p)
    assert norms_s == norms_p  # every scalar reduction matched exactly


def test_elasticity_parallel_matches_serial_bitwise():
    def run(mode):
        solver = ElasticitySolver.solid_cube(Backend.sim_gpus(2), 8)
        solver.cg.mode = mode
        solver.solve(max_iterations=6, tolerance=1e-30)
        return solver.displacement()

    assert np.array_equal(run("serial"), run("parallel"))


def test_repeated_run_reuses_frozen_program():
    """A loop pays graph cost once: no new events/queues after run #1."""
    cavity = LidDrivenCavity(Backend.sim_gpus(3), (12, 8, 8))
    sk = cavity.skeletons[0]
    r1 = sk.run()
    program = sk.plan._program
    assert program is not None
    m = obs.metrics()
    commands_after_first = [len(q) for q in r1.queues]
    r2 = sk.run()
    assert sk.plan._program is program  # frozen, not re-derived
    assert r2 is r1 is program.result  # the program's one result, built at freeze
    assert isinstance(r2.queues, tuple)  # immutable, so every caller may share it
    # commands were recorded at freeze only; the replay enqueued none
    assert [len(q) for q in r2.queues] == commands_after_first
    assert m.total("plan_replays") >= 2.0


def test_parallel_replay_reports_identical_metrics():
    """Per-replay counters fire once per step from worker threads too."""
    cavity = LidDrivenCavity(Backend.sim_gpus(4), (12, 8, 8))
    m = obs.metrics()
    # the set-up's eager halo syncs are halo messages too: count from here
    bytes0, msgs0 = m.total("halo_bytes_sent"), m.total("halo_messages")
    cavity.step(1, mode="serial")
    serial_bytes = m.total("halo_bytes_sent") - bytes0
    serial_msgs = m.total("halo_messages") - msgs0
    assert serial_msgs > 0
    cavity.step(1, mode="parallel")
    # the second (parallel) iteration replays the other parity skeleton:
    # same topology, so counters advance by exactly one iteration's worth
    assert m.total("halo_bytes_sent") - bytes0 == 2 * serial_bytes
    assert m.total("halo_messages") - msgs0 == 2 * serial_msgs


def test_armed_resilience_replays_on_the_engine_bitwise_serial(monkeypatch):
    backend = Backend.sim_gpus(2)
    cavity = LidDrivenCavity(backend, (12, 8, 8))
    reference = LidDrivenCavity(Backend.sim_gpus(2), (12, 8, 8))
    reference.step(2, mode="serial")
    batches = []
    execute = ParallelEngine.execute
    monkeypatch.setattr(
        ParallelEngine, "execute", lambda self, *a, **kw: (batches.append(1), execute(self, *a, **kw))[1]
    )
    plan = FaultPlan(seed=7)  # zero rates: every site is consulted, none injects
    with res.session(backend, plan), warnings.catch_warnings():
        warnings.simplefilter("error")  # no fallback-by-warning
        cavity.step(2, mode="parallel")
    assert len(batches) == 2, "the armed replay did not run on the parallel engine"
    assert plan._draws, "the armed replay consulted no injection site"
    assert np.array_equal(cavity.current.to_numpy(), reference.current.to_numpy())


@pytest.mark.parametrize("mode", ["speculative", "process"])
def test_unknown_mode_rejected(mode):
    cavity = LidDrivenCavity(Backend.sim_gpus(2), (8, 6, 6))
    sk = cavity.skeletons[0]
    expected = re.escape(f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a typed error, never a warning-and-serial
        with pytest.raises(ValueError, match=expected):
            sk.run(mode=mode)
        with pytest.raises(ValueError, match=expected):
            sk.plan.execute(mode=mode)
    assert EXECUTION_MODES == ("serial", "parallel")
