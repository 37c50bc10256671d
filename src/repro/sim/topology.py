"""Interconnect topology: directed links between devices and the host.

Device endpoints are identified by their rank inside the backend's
:class:`~repro.system.device.DeviceSet`; the host uses rank ``-1``.
Each directed pair has its own link (a DMA engine per direction), which
is the property OCC exploits: halo pushes to the left and right
neighbours proceed concurrently with each other and with compute.
"""

from __future__ import annotations

from dataclasses import dataclass

HOST_RANK = -1


@dataclass(frozen=True)
class Link:
    """One directed interconnect channel."""

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0:
            raise ValueError(f"invalid Link: {self}")

    def transfer_time(self, nbytes: float) -> float:
        return self.latency + nbytes / self.bandwidth


class Topology:
    """Directed link map over ``num_devices`` devices plus the host."""

    def __init__(self, num_devices: int, links: dict[tuple[int, int], Link]):
        if num_devices < 1:
            raise ValueError("topology needs at least one device")
        self.num_devices = num_devices
        self._links = dict(links)

    @classmethod
    def all_to_all(
        cls,
        num_devices: int,
        bandwidth: float,
        latency: float,
        host_bandwidth: float,
        host_latency: float,
    ) -> "Topology":
        links: dict[tuple[int, int], Link] = {}
        peer = Link(bandwidth, latency)
        host = Link(host_bandwidth, host_latency)
        for a in range(num_devices):
            for b in range(num_devices):
                if a != b:
                    links[(a, b)] = peer
            links[(HOST_RANK, a)] = host
            links[(a, HOST_RANK)] = host
        topo = cls(num_devices, links)
        topo._preset = ("all_to_all", bandwidth, latency, host_bandwidth, host_latency)
        return topo

    @classmethod
    def two_level(
        cls,
        num_devices: int,
        devices_per_node: int,
        intra_bandwidth: float,
        intra_latency: float,
        inter_bandwidth: float,
        inter_latency: float,
        host_bandwidth: float,
        host_latency: float,
    ) -> "Topology":
        """Multi-node extension: fast links inside a node, slow between.

        The paper names distributed systems as the natural extension of
        Neon; the programming model is topology-agnostic, so modelling a
        cluster only needs this two-level link map (e.g. NVLink inside a
        node, InfiniBand between nodes).
        """
        if devices_per_node < 1 or num_devices < 1:
            raise ValueError("device counts must be positive")
        links: dict[tuple[int, int], Link] = {}
        intra = Link(intra_bandwidth, intra_latency)
        inter = Link(inter_bandwidth, inter_latency)
        host = Link(host_bandwidth, host_latency)
        for a in range(num_devices):
            for b in range(num_devices):
                if a != b:
                    links[(a, b)] = intra if a // devices_per_node == b // devices_per_node else inter
            links[(HOST_RANK, a)] = host
            links[(a, HOST_RANK)] = host
        topo = cls(num_devices, links)
        topo._preset = (
            "two_level",
            devices_per_node,
            intra_bandwidth,
            intra_latency,
            inter_bandwidth,
            inter_latency,
            host_bandwidth,
            host_latency,
        )
        return topo

    def resized(self, num_devices: int) -> "Topology":
        preset = getattr(self, "_preset", None)
        if preset is None:
            raise ValueError("only preset topologies can be resized")
        if preset[0] == "all_to_all":
            _, bw, lat, hbw, hlat = preset
            return Topology.all_to_all(num_devices, bw, lat, hbw, hlat)
        _, per_node, ibw, ilat, ebw, elat, hbw, hlat = preset
        return Topology.two_level(num_devices, per_node, ibw, ilat, ebw, elat, hbw, hlat)

    def link(self, src_rank: int, dst_rank: int) -> Link:
        try:
            return self._links[(src_rank, dst_rank)]
        except KeyError:
            raise KeyError(f"no link {src_rank}->{dst_rank} in topology") from None
