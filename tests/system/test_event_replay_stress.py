"""Concurrent-replay stress on Event signal/wait/reset ordering.

The hazardous window: a compiled program's events are ``reset_signal()``-ed
at the start of every replay.  If that reset can run while another replay
of the *same* program is in flight (as it could when the engine reset
events before taking its batch lock), a signal the in-flight batch
already set gets cleared, its waiter never wakes, and the watchdog turns
the lost wakeup into an :class:`EngineDeadlock`.  These tests hammer that
window from multiple threads; the engine must serialise whole batches
(reset + execution) so every replay sees a consistent signal lifecycle.
"""

import threading

import numpy as np

from repro.sanitizer.runner import miniature
from repro.system import Backend, Event, ParallelEngine
from repro.system.queue import KernelCost
from repro.workloads import build

THREADS = 4
REPLAYS_PER_THREAD = 25


def _ping_pong_queues(backend):
    """Two queues whose replay order is carried entirely by events."""
    q0 = backend.new_queue(0, name="q0", eager=False)
    q1 = backend.new_queue(1, name="q1", eager=False)
    e0, e1 = Event("e0"), Event("e1")
    cost = KernelCost(bytes_moved=1.0)
    q0.enqueue_kernel("k0", lambda: None, cost)
    q0.record_event(e0)
    q1.wait_event(e0)
    q1.enqueue_kernel("k1", lambda: None, cost)
    q1.record_event(e1)
    q0.wait_event(e1)
    q0.enqueue_kernel("k2", lambda: None, cost)
    return [q0, q1]


def test_shared_engine_survives_concurrent_replays_of_one_program():
    """4 threads replay the same recorded wiring through one engine.

    Every replay resets then re-signals the same Event objects; a reset
    escaping the batch lock loses a wakeup and trips the (shortened)
    watchdog.  The run counter proves no replay silently skipped work.
    """
    backend = Backend.sim_gpus(2)
    queues = _ping_pong_queues(backend)
    engine = ParallelEngine(deadlock_timeout=5.0)
    runs = []
    runs_lock = threading.Lock()
    errors = []

    def run_command(cmd):
        with runs_lock:
            runs.append(cmd.name)

    def worker():
        try:
            for _ in range(REPLAYS_PER_THREAD):
                engine.execute(queues, run_command=run_command)
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "replay threads wedged"
    assert errors == []
    total = THREADS * REPLAYS_PER_THREAD
    assert len(runs) == total * 3
    assert runs.count("k0") == runs.count("k1") == runs.count("k2") == total
    engine.close()


def test_concurrent_skeleton_parallel_runs_stay_deterministic():
    """4 threads drive ``run(mode="parallel")`` on one compiled skeleton.

    This additionally races the plan's lazy engine construction.  Batches
    serialise, each replay is the same pure state step, so the outcome
    must be bitwise what the same number of serial runs produces.
    """
    repeats = 3
    sk = build(miniature("lbm", devices=2)).skeletons[0]

    ref = build(miniature("lbm", devices=2)).skeletons[0]
    for _ in range(THREADS * repeats):
        ref.run(mode="serial")

    errors = []

    def worker():
        try:
            for _ in range(repeats):
                sk.run(mode="parallel")
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "parallel runs wedged"
    assert errors == []

    def field_state(skeleton):
        fields = {tok.data for c in skeleton.containers for tok in c.tokens()}
        return {f.name: f.to_numpy() for f in fields if hasattr(f, "to_numpy")}

    ref_fields = field_state(ref)
    got_fields = field_state(sk)
    assert set(ref_fields) == set(got_fields) and ref_fields
    for name, arr in ref_fields.items():
        np.testing.assert_array_equal(arr, got_fields[name], err_msg=name)


def test_event_signal_lifecycle_is_reentrant():
    """signal/wait/reset from racing threads never wedge or misreport."""
    ev = Event("hammer")
    stop, waiter_done = threading.Event(), threading.Event()
    seen_timeouts = []

    def signaller():
        # outlive the waiter: a wait entered just before ``stop`` must still
        # have a signaller, or the resetter's last clear strands it
        while not waiter_done.is_set():
            ev.signal()

    def waiter():
        while not stop.is_set():
            if not ev.wait_signal(timeout=2.0):
                seen_timeouts.append(True)  # pragma: no cover - failure path
                return

    def resetter():
        while not stop.is_set():
            ev.reset_signal()

    # with a live signaller, waiters must always make progress no matter
    # how the resets interleave — a lost wakeup shows up as a timeout
    threads = [threading.Thread(target=f) for f in (waiter, resetter, signaller, signaller)]
    for t in threads:
        t.start()
    stop_timer = threading.Timer(0.5, stop.set)
    stop_timer.start()
    threads[0].join(timeout=30)
    waiter_done.set()
    for t in threads:
        t.join(timeout=30)
    stop_timer.cancel()
    assert not any(t.is_alive() for t in threads)
    assert seen_timeouts == []
