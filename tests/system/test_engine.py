"""ParallelEngine: workers serving blocks of devices, event sync, failure modes."""

import threading
import time

import pytest

from repro.system import (
    CommandQueue,
    DeviceSet,
    EngineDeadlock,
    Event,
    KernelCost,
    ParallelEngine,
)

COST = KernelCost(bytes_moved=8)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """These cases are about two workers, whatever the host has."""
    monkeypatch.setattr("repro.system.engine.usable_cpu_count", lambda: 2)


@pytest.fixture
def engine():
    eng = ParallelEngine(deadlock_timeout=5.0)
    yield eng
    eng.close()


def test_event_signal_lifecycle():
    ev = Event("sig")
    assert not ev.wait_signal(0.0)
    ev.signal()
    assert ev.wait_signal(0.0)
    ev.reset_signal()
    assert not ev.wait_signal(0.0)


def test_cross_thread_event_sync(engine):
    """The wait genuinely blocks until the other device's record fires."""
    d0, d1 = DeviceSet.gpus(2)
    q0 = CommandQueue(d0, eager=False, name="q0")
    q1 = CommandQueue(d1, eager=False, name="q1")
    order = []
    ev = Event("gate")
    # device 0 is deliberately slow; without the event, device 1 wins
    q0.enqueue_kernel("slow", lambda: (time.sleep(0.05), order.append("a"))[-1], COST)
    q0.record_event(ev)
    q1.wait_event(ev)
    q1.enqueue_kernel("fast", lambda: order.append("b"), COST)
    engine.execute([q0, q1])
    assert order == ["a", "b"]


def test_same_device_queues_merge_in_issue_order(engine):
    """All queues of one device replay as a single FIFO in issue order."""
    (dev,) = DeviceSet.gpus(1)
    qa = CommandQueue(dev, eager=False, name="a")
    qb = CommandQueue(dev, eager=False, name="b")
    hits = []
    qa.enqueue_kernel("k1", lambda: hits.append(1), COST)
    qb.enqueue_kernel("k2", lambda: hits.append(2), COST)
    qa.enqueue_kernel("k3", lambda: hits.append(3), COST)
    engine.execute([qa, qb])
    assert hits == [1, 2, 3]


def test_wait_without_record_is_rejected_up_front(engine):
    d0, d1 = DeviceSet.gpus(2)
    q0 = CommandQueue(d0, eager=False, name="q0")
    q1 = CommandQueue(d1, eager=False, name="q1")
    q0.enqueue_kernel("k", lambda: None, COST)
    q1.wait_event(Event("never-recorded"))
    with pytest.raises(EngineDeadlock, match="never recorded"):
        engine.execute([q0, q1])


def test_wait_issued_before_its_record_is_rejected_up_front(engine):
    """A hand-built schedule whose record follows its wait in issue order: on
    one worker (a one-CPU host merges every device) the wait could never
    retire, so the pre-flight check refuses it on any machine — at once,
    not after the watchdog's timeout."""
    d0, d1 = DeviceSet.gpus(2)
    q0 = CommandQueue(d0, eager=False, name="q0")
    q1 = CommandQueue(d1, eager=False, name="q1")
    ev = Event("late")
    q0.wait_event(ev)  # issued first
    q0.enqueue_kernel("after", lambda: None, COST)
    q1.enqueue_kernel("k", lambda: None, COST)
    q1.record_event(ev)
    t0 = time.perf_counter()
    with pytest.raises(EngineDeadlock, match="after the wait in issue order"):
        engine.execute([q0, q1])
    assert time.perf_counter() - t0 < 1.0, "pre-flight, not the watchdog"


def test_devices_share_at_most_cpu_count_workers_in_contiguous_blocks(engine, monkeypatch):
    devices = DeviceSet.gpus(8)
    queues = [CommandQueue(d, eager=False, name=f"q{d.index}") for d in devices]
    ran: dict[int, str] = {}
    for i, q in enumerate(queues):
        q.enqueue_kernel(f"k{i}", lambda i=i: ran.setdefault(i, threading.current_thread().name), COST)
    engine.execute(queues)
    assert [ran[i] for i in range(8)] == ["engine-w0"] * 4 + ["engine-w1"] * 4
    monkeypatch.setattr("repro.system.engine.usable_cpu_count", lambda: 1)  # one program: the inline path
    ran.clear()
    engine.execute(queues)
    assert set(ran.values()) == {threading.current_thread().name}


def test_worker_exception_propagates_and_aborts(engine):
    d0, d1 = DeviceSet.gpus(2)
    q0 = CommandQueue(d0, eager=False, name="q0")
    q1 = CommandQueue(d1, eager=False, name="q1")
    ran = []

    def boom():
        raise ValueError("kernel exploded")

    ev = Event("gate")
    q0.enqueue_kernel("boom", boom, COST)
    q0.record_event(ev)  # never signalled: the worker dies first
    q1.wait_event(ev)
    q1.enqueue_kernel("after", lambda: ran.append(1), COST)
    with pytest.raises(ValueError, match="kernel exploded"):
        engine.execute([q0, q1])
    assert ran == []  # the abort flag unblocked the waiter without running it


def test_replay_is_repeatable(engine):
    """Event signals reset per batch, so the same queues replay cleanly."""
    d0, d1 = DeviceSet.gpus(2)
    q0 = CommandQueue(d0, eager=False, name="q0")
    q1 = CommandQueue(d1, eager=False, name="q1")
    hits = []
    ev = Event("gate")
    q0.enqueue_kernel("a", lambda: hits.append("a"), COST)
    q0.record_event(ev)
    q1.wait_event(ev)
    q1.enqueue_kernel("b", lambda: hits.append("b"), COST)
    engine.execute([q0, q1])
    engine.execute([q0, q1])
    assert hits == ["a", "b", "a", "b"]


def test_workers_persist_across_replays(engine):
    d0, d1 = DeviceSet.gpus(2)
    q0 = CommandQueue(d0, eager=False, name="q0")
    q1 = CommandQueue(d1, eager=False, name="q1")
    q0.enqueue_kernel("k0", lambda: None, COST)
    q1.enqueue_kernel("k1", lambda: None, COST)
    engine.execute([q0, q1])
    first = dict(engine._workers)
    assert len(first) == 2
    engine.execute([q0, q1])
    assert engine._workers == first  # same threads, not respawned


def test_close_is_idempotent_and_engine_survives():
    eng = ParallelEngine()
    d0, d1 = DeviceSet.gpus(2)
    q0 = CommandQueue(d0, eager=False, name="q0")
    q1 = CommandQueue(d1, eager=False, name="q1")
    hits = []
    q0.enqueue_kernel("k0", lambda: hits.append(0), COST)
    q1.enqueue_kernel("k1", lambda: hits.append(1), COST)
    eng.execute([q0, q1])
    threads = [w.thread for w in eng._workers.values()]
    eng.close()
    eng.close()
    assert all(not t.is_alive() for t in threads)
    eng.execute([q0, q1])  # fresh workers spin up on demand
    assert len(hits) == 4
    eng.close()


def test_single_device_runs_inline(engine):
    (dev,) = DeviceSet.gpus(1)
    q = CommandQueue(dev, eager=False, name="q")
    tids = []
    q.enqueue_kernel("k", lambda: tids.append(threading.get_ident()), COST)
    engine.execute([q])
    assert tids == [threading.get_ident()]


def test_bad_timeout_rejected():
    with pytest.raises(ValueError):
        ParallelEngine(deadlock_timeout=0.0)


def test_empty_batch_is_a_noop(engine):
    engine.execute([])


def test_idle_worker_does_not_pin_the_replayed_plan():
    """An idle worker blocks in ``inbox.get()`` with its frame alive; if the
    frame still held the last job, the job's closure would keep the whole
    compiled plan — commands, kernels, fields, device payloads — reachable."""
    import gc
    import weakref

    from repro.solvers.lbm import LidDrivenCavity
    from repro.system import Backend

    cavity = LidDrivenCavity(Backend.sim_gpus(2), (8, 6, 6))
    cavity.step(2, mode="parallel")
    plan = cavity.skeletons[0].plan
    workers = list(plan._engine._workers.values())
    commands = weakref.ref(plan._program.queues[0])  # owner of one command list
    assert len(workers) == 2 and commands() is not None
    del cavity, plan
    gc.collect()
    try:
        assert all(w.thread.is_alive() for w in workers)
        assert commands() is None
    finally:
        for w in workers:
            w.stop()
        for w in workers:
            w.thread.join(timeout=5.0)
    assert not any(w.thread.is_alive() for w in workers)
