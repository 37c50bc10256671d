import pytest

from repro.sim import HOST_RANK, Link, Topology


def test_all_to_all_has_peer_and_host_links():
    topo = Topology.all_to_all(4, bandwidth=1e9, latency=1e-6, host_bandwidth=1e8, host_latency=1e-5)
    for src, dst in [(0, 3), (3, 0), (HOST_RANK, 2), (2, HOST_RANK)]:
        assert topo.link(src, dst).bandwidth > 0
    with pytest.raises(KeyError, match="no link 1->1"):
        topo.link(1, 1)


def test_link_transfer_time_model():
    link = Link(bandwidth=1e9, latency=1e-6)
    assert link.transfer_time(0) == pytest.approx(1e-6)
    assert link.transfer_time(1e9) == pytest.approx(1.000001)


def test_invalid_link_rejected():
    with pytest.raises(ValueError):
        Link(bandwidth=0, latency=0)
    with pytest.raises(ValueError):
        Link(bandwidth=1e9, latency=-1)


def test_missing_link_raises():
    topo = Topology.all_to_all(2, 1e9, 1e-6, 1e8, 1e-5)
    with pytest.raises(KeyError):
        topo.link(0, 5)


def test_resized_preserves_parameters():
    topo = Topology.all_to_all(2, 1e9, 1e-6, 1e8, 1e-5)
    big = topo.resized(6)
    assert big.num_devices == 6
    assert big.link(0, 5).bandwidth == 1e9
    assert big.link(HOST_RANK, 5).bandwidth == 1e8


def test_two_level_topology_link_classes():
    topo = Topology.two_level(
        8, 4, intra_bandwidth=2e11, intra_latency=1e-6, inter_bandwidth=2e10, inter_latency=5e-6,
        host_bandwidth=1e10, host_latency=1e-5,
    )
    assert topo.link(0, 3).bandwidth == 2e11  # same node
    assert topo.link(3, 4).bandwidth == 2e10  # node boundary
    assert topo.link(7, 0).bandwidth == 2e10
    assert topo.link(HOST_RANK, 5).bandwidth == 1e10


def test_two_level_resize():
    topo = Topology.two_level(8, 4, 2e11, 1e-6, 2e10, 5e-6, 1e10, 1e-5)
    small = topo.resized(4)
    assert small.num_devices == 4
    assert small.link(0, 3).bandwidth == 2e11  # all inside one node now


def test_multi_node_machine_preset():
    from repro.sim import multi_node_a100

    m = multi_node_a100(2, 4)
    assert m.num_devices == 8
    assert m.topology.link(0, 1).bandwidth > m.topology.link(3, 4).bandwidth
