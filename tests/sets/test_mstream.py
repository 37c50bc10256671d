import time

import pytest

from repro import observability as obs
from repro.sets import MultiEvent, MultiStream
from repro.system import Backend, KernelCost, ParallelEngine


def test_create_one_queue_per_device():
    backend = Backend.sim_gpus(4)
    ms = MultiStream.create(backend, "compute")
    assert len(ms) == 4
    assert [q.device.index for q in ms] == [0, 1, 2, 3]


def test_multi_event_record_and_wait():
    backend = Backend.sim_gpus(2)
    s1 = MultiStream.create(backend, "a", eager=False)
    s2 = MultiStream.create(backend, "b", eager=False)
    ev = MultiEvent(2, "sync")
    for q in s1:
        q.enqueue_kernel("k", lambda: None, KernelCost(bytes_moved=1))
    ev.record_all(s1)
    ev.wait_all(s2)
    for r in range(2):
        assert ev[r].recorded_in is s1[r]
        assert s2[r].commands[0].event is ev[r]


def test_empty_stream_rejected():
    with pytest.raises(ValueError):
        MultiStream([])
    with pytest.raises(ValueError):
        MultiEvent(0)


def replay(ms):
    """Replay a recorded stream with one worker thread per device."""
    engine = ParallelEngine()
    try:
        engine.execute(ms.queues)
    finally:
        engine.close()


def test_execute_parallel_recorded_stream():
    """Set-level path: record on an eager=False stream, replay concurrently."""
    backend = Backend.sim_gpus(3)
    ms = MultiStream.create(backend, "work", eager=False)
    hits = []
    for rank, q in enumerate(ms):
        q.enqueue_kernel(f"k{rank}", lambda r=rank: hits.append(r), KernelCost(bytes_moved=1))
    assert hits == []  # recorded, not run
    replay(ms)
    assert sorted(hits) == [0, 1, 2]


def test_execute_parallel_honours_multi_event_wiring():
    """Producer stream records, consumer stream waits — engine obeys it."""
    backend = Backend.sim_gpus(2)
    producer = MultiStream.create(backend, "producer", eager=False)
    consumer = MultiStream.create(backend, "consumer", eager=False)
    ev = MultiEvent(2, "handoff")
    order = []
    for rank, q in enumerate(producer):
        # the producer dawdles; without the event the consumer would win
        q.enqueue_kernel(
            f"p{rank}",
            lambda r=rank: (time.sleep(0.03), order.append(("p", r)))[-1],
            KernelCost(bytes_moved=1),
        )
    ev.record_all(producer)
    ev.wait_all(consumer)
    for rank, q in enumerate(consumer):
        q.enqueue_kernel(f"c{rank}", lambda r=rank: order.append(("c", r)), KernelCost(bytes_moved=1))
    replay(MultiStream(producer.queues + consumer.queues, name="both"))
    for rank in range(2):
        assert order.index(("p", rank)) < order.index(("c", rank))


@pytest.mark.parametrize("op_name", ["record_all", "wait_all"])
def test_device_count_mismatch_rejected_naming_both_sizes(op_name):
    backend = Backend.sim_gpus(3)
    stream = MultiStream.create(backend, "wide", eager=False)
    ev = MultiEvent(2, "narrow")
    with pytest.raises(ValueError, match=r"'narrow' \(2 devices\).*'wide' \(3 devices\)"):
        getattr(ev, op_name)(stream)
    # no partial side effects: nothing recorded, nothing enqueued
    assert all(ev[r].recorded_in is None for r in range(2))
    assert all(not q.commands for q in stream)


# -- Set-level launches are instrumented when they run, not when recorded -----
def _increment_container(devices=2):
    from repro.domain import DenseGrid

    backend = Backend.sim_gpus(devices)
    grid = DenseGrid(backend, (4 * devices, 4, 4), name="setlevel")
    u = grid.new_field("u")
    u.fill(0.0)

    def loading(loader):
        up = loader.read_write(u)

        def compute(span):
            up.view_all(span)[...] += 1.0

        return compute

    return backend, u, grid.new_container("inc", loading)


def _kernel_seconds_count() -> int:
    return sum(row["count"] for row in obs.metrics().histogram_summaries("kernel_seconds"))


def test_recording_a_launch_emits_no_kernel_span_until_replay():
    backend, u, inc = _increment_container()
    ms = MultiStream.create(backend, "rec", eager=False)
    inc.run(ms)  # observability is on (suite fixture): recorded, not run
    assert not [s for s in obs.tracer().spans if s.cat == "kernel"]
    assert _kernel_seconds_count() == 0
    replay(ms)
    assert (u.to_numpy() == 1.0).all()
    assert len([s for s in obs.tracer().spans if s.cat == "kernel"]) == len(ms)
    assert _kernel_seconds_count() == len(ms)


def test_stream_recorded_untraced_is_instrumented_when_replayed_traced():
    backend, u, inc = _increment_container()
    ms = MultiStream.create(backend, "rec", eager=False)
    obs.disable()
    inc.run(ms)
    replay(ms)  # bare replay: nothing observed
    obs.enable(reset=False)
    assert _kernel_seconds_count() == 0
    replay(ms)
    replay(ms)
    assert _kernel_seconds_count() == 2 * len(ms)
    assert (u.to_numpy() == 3.0).all()
