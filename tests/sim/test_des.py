import pytest

from repro.sim import MachineSpec, SimulationDeadlock, SpanKind, simulate
from repro.sim.machine import DeviceSpec
from repro.sim.topology import Topology
from repro.system import HOST, CommandQueue, DeviceSet, Event, KernelCost


def machine(n=2):
    # Clean numbers: 1 GB/s links/memory, zero latency and launch overhead.
    return MachineSpec(
        name="test",
        device=DeviceSpec(mem_bandwidth=1e9, flops=1e18, launch_overhead=0.0),
        topology=Topology.all_to_all(n, bandwidth=1e9, latency=0.0, host_bandwidth=1e9, host_latency=0.0),
    )


def kcost(mb):
    return KernelCost(bytes_moved=mb * 1e6)


def test_single_queue_serialises():
    ds = DeviceSet.gpus(1)
    q = CommandQueue(ds[0], "q0", eager=False)
    q.enqueue_kernel("a", lambda: None, kcost(100))  # 0.1 s
    q.enqueue_kernel("b", lambda: None, kcost(100))  # 0.1 s
    trace = simulate([q], machine(1))
    assert trace.makespan == pytest.approx(0.2)
    a, b = trace.spans
    assert a.end <= b.start


def test_two_devices_run_concurrently():
    ds = DeviceSet.gpus(2)
    q0 = CommandQueue(ds[0], "q0", eager=False)
    q1 = CommandQueue(ds[1], "q1", eager=False)
    q0.enqueue_kernel("a", lambda: None, kcost(100))
    q1.enqueue_kernel("b", lambda: None, kcost(100))
    trace = simulate([q0, q1], machine(2))
    assert trace.makespan == pytest.approx(0.1)


def test_same_device_two_streams_contend_for_compute():
    ds = DeviceSet.gpus(1)
    q0 = CommandQueue(ds[0], "q0", eager=False)
    q1 = CommandQueue(ds[0], "q1", eager=False)
    q0.enqueue_kernel("a", lambda: None, kcost(100))
    q1.enqueue_kernel("b", lambda: None, kcost(100))
    trace = simulate([q0, q1], machine(1))
    assert trace.makespan == pytest.approx(0.2)


def test_host_copy_costs_bytes_over_host_bandwidth():
    # 80 MB over a 0.5 GB/s host link (peer links run at 1 GB/s): 0.16 s
    m = MachineSpec(
        name="test",
        device=DeviceSpec(mem_bandwidth=1e9, flops=1e18, launch_overhead=0.0),
        topology=Topology.all_to_all(1, bandwidth=1e9, latency=0.0, host_bandwidth=5e8, host_latency=0.0),
    )
    ds = DeviceSet.gpus(1)
    q = CommandQueue(ds[0], "q", eager=False)
    q.enqueue_copy("h2d", lambda: None, HOST, ds[0], nbytes=80_000_000)
    (span,) = [s for s in simulate([q], m).spans if s.kind is SpanKind.COPY]
    assert span.duration == pytest.approx(0.16)


def test_copy_overlaps_with_kernel_on_same_device():
    ds = DeviceSet.gpus(2)
    q0 = CommandQueue(ds[0], "q0", eager=False)
    q1 = CommandQueue(ds[0], "q1", eager=False)
    q0.enqueue_kernel("k", lambda: None, kcost(100))  # 0.1 s compute
    q1.enqueue_copy("c", lambda: None, ds[0], ds[1], nbytes=int(100e6))  # 0.1 s copy
    trace = simulate([q0, q1], machine(2))
    assert trace.makespan == pytest.approx(0.1)
    assert trace.copy_exposed_time() == pytest.approx(0.0)


def test_event_orders_across_queues():
    ds = DeviceSet.gpus(2)
    q0 = CommandQueue(ds[0], "q0", eager=False)
    q1 = CommandQueue(ds[1], "q1", eager=False)
    ev = Event("done-a")
    q0.enqueue_kernel("a", lambda: None, kcost(100))
    q0.record_event(ev)
    q1.wait_event(ev)
    q1.enqueue_kernel("b", lambda: None, kcost(100))
    trace = simulate([q0, q1], machine(2))
    assert trace.makespan == pytest.approx(0.2)
    spans = {s.name: s for s in trace.spans}
    assert spans["b"].start >= spans["a"].end


def test_wait_before_record_in_program_order_still_works():
    # q1's wait is issued before q0's record exists in time; the DES must
    # stall q1 until the record completes, not deadlock.
    ds = DeviceSet.gpus(2)
    q0 = CommandQueue(ds[0], "q0", eager=False)
    q1 = CommandQueue(ds[1], "q1", eager=False)
    ev = Event()
    q1.wait_event(ev)
    q1.enqueue_kernel("b", lambda: None, kcost(10))
    q0.enqueue_kernel("a", lambda: None, kcost(50))
    q0.record_event(ev)
    trace = simulate([q0, q1], machine(2))
    spans = {s.name: s for s in trace.spans}
    assert spans["b"].start == pytest.approx(spans["a"].end)


def test_unrecorded_event_deadlocks():
    ds = DeviceSet.gpus(1)
    q = CommandQueue(ds[0], "q0", eager=False)
    q.wait_event(Event("never"))
    with pytest.raises(SimulationDeadlock):
        simulate([q], machine(1))


def test_copies_on_distinct_links_overlap():
    ds = DeviceSet.gpus(3)
    q0 = CommandQueue(ds[1], "q0", eager=False)
    q1 = CommandQueue(ds[1], "q1", eager=False)
    q0.enqueue_copy("left", lambda: None, ds[1], ds[0], nbytes=int(100e6))
    q1.enqueue_copy("right", lambda: None, ds[1], ds[2], nbytes=int(100e6))
    trace = simulate([q0, q1], machine(3))
    assert trace.makespan == pytest.approx(0.1)


def test_copies_on_same_link_serialise():
    ds = DeviceSet.gpus(2)
    q0 = CommandQueue(ds[0], "q0", eager=False)
    q1 = CommandQueue(ds[0], "q1", eager=False)
    q0.enqueue_copy("c1", lambda: None, ds[0], ds[1], nbytes=int(100e6))
    q1.enqueue_copy("c2", lambda: None, ds[0], ds[1], nbytes=int(100e6))
    trace = simulate([q0, q1], machine(2))
    assert trace.makespan == pytest.approx(0.2)


def test_exposed_copy_time_when_no_overlap():
    ds = DeviceSet.gpus(2)
    q = CommandQueue(ds[0], "q0", eager=False)
    q.enqueue_kernel("k", lambda: None, kcost(100))
    q.enqueue_copy("c", lambda: None, ds[0], ds[1], nbytes=int(100e6))
    trace = simulate([q], machine(2))
    assert trace.copy_exposed_time() == pytest.approx(0.1)


def test_trace_gantt_renders():
    ds = DeviceSet.gpus(1)
    q = CommandQueue(ds[0], "q0", eager=False)
    q.enqueue_kernel("k", lambda: None, kcost(1))
    out = simulate([q], machine(1)).gantt()
    assert "makespan" in out
    assert "#" in out


def test_kind_time_accounting():
    ds = DeviceSet.gpus(2)
    q = CommandQueue(ds[0], "q0", eager=False)
    q.enqueue_kernel("k", lambda: None, kcost(100))
    q.enqueue_copy("c", lambda: None, ds[0], ds[1], nbytes=int(50e6))
    trace = simulate([q], machine(2))
    busy = {k: sum(s.duration for s in trace.spans if s.kind is k) for k in (SpanKind.KERNEL, SpanKind.COPY)}
    assert busy[SpanKind.KERNEL] == pytest.approx(0.1)
    assert busy[SpanKind.COPY] == pytest.approx(0.05)
