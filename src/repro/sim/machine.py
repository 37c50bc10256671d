"""Machine descriptions for the timing simulator.

These stand in for the paper's two testbeds: an NVIDIA DGX A100 (8 GPUs,
NVLink) and a dual-socket Xeon host with 8 Quadro GV100s on PCIe Gen3.
All quantities are in SI units (bytes/s, FLOP/s, seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .topology import Topology


@dataclass(frozen=True)
class DeviceSpec:
    """Performance envelope of one device.

    ``mem_bandwidth`` is the effective DRAM bandwidth a streaming kernel
    achieves (not the theoretical peak), because the paper's baselines are
    quoted as ">95% of peak *effective* bandwidth".
    """

    mem_bandwidth: float
    flops: float
    launch_overhead: float = 5e-6

    def __post_init__(self) -> None:
        if min(self.mem_bandwidth, self.flops) <= 0 or self.launch_overhead < 0:
            raise ValueError(f"invalid DeviceSpec: {self}")


@dataclass(frozen=True)
class MachineSpec:
    """A whole single-node machine: devices plus interconnect.

    ``device`` is the performance envelope shared by every rank;
    heterogeneous machines (mixed GPU generations on one PCIe switch,
    the placement regime Ripple argues for) override individual ranks
    through ``device_overrides``.  :meth:`device_spec` is the single
    lookup every consumer — DES, cost model, autotuner — goes through.
    """

    name: str
    device: DeviceSpec
    topology: Topology
    device_overrides: tuple[tuple[int, DeviceSpec], ...] = ()

    def __post_init__(self) -> None:
        for rank, spec in self.device_overrides:
            if not 0 <= rank < self.num_devices:
                raise ValueError(f"device override rank {rank} outside [0, {self.num_devices})")
            if not isinstance(spec, DeviceSpec):
                raise TypeError(f"device override for rank {rank} is not a DeviceSpec: {spec!r}")

    @property
    def num_devices(self) -> int:
        return self.topology.num_devices

    @property
    def is_heterogeneous(self) -> bool:
        return any(spec != self.device for _, spec in self.device_overrides)

    def device_spec(self, rank: int) -> DeviceSpec:
        """Per-rank performance envelope (the override, if one exists)."""
        for r, spec in self.device_overrides:
            if r == rank:
                return spec
        return self.device

    def with_devices(self, count: int) -> "MachineSpec":
        """Same machine class, different GPU count (for scaling sweeps)."""
        overrides = tuple((r, spec) for r, spec in self.device_overrides if r < count)
        return replace(self, topology=self.topology.resized(count), device_overrides=overrides)

    def without_rank(self, rank: int) -> "MachineSpec":
        """This machine after losing ``rank``: survivors keep their specs.

        Survivor ranks above the lost one shift down by one (matching how
        a shrunken DeviceSet re-indexes), and each survivor carries its
        *own* :class:`DeviceSpec` forward — unlike :meth:`with_devices`,
        which truncates the override table and silently turns a
        heterogeneous machine's tail ranks back into default devices.
        """
        if not 0 <= rank < self.num_devices:
            raise ValueError(f"cannot remove rank {rank} from a {self.num_devices}-device machine")
        if self.num_devices < 2:
            raise ValueError("cannot remove the last device of a machine")
        survivors = [r for r in range(self.num_devices) if r != rank]
        overrides = tuple(
            (new_rank, spec)
            for new_rank, old_rank in enumerate(survivors)
            if (spec := self.device_spec(old_rank)) != self.device
        )
        return replace(
            self, topology=self.topology.resized(self.num_devices - 1), device_overrides=overrides
        )


def dgx_a100(num_devices: int = 8) -> MachineSpec:
    """DGX-A100-like machine: HBM2e GPUs on an NVLink all-to-all fabric.

    The per-transfer latency models the *effective* cost of one peer copy
    (driver dispatch + event sync + wire latency), calibrated so that the
    D3Q19 halo exchange is ~49% of a No-OCC iteration at 192^3 on 8 GPUs
    and ~10% at 512^3 — the communication fractions the paper reports.
    """
    return MachineSpec(
        name=f"dgx-a100-{num_devices}",
        device=DeviceSpec(mem_bandwidth=1.4e12, flops=9.7e12, launch_overhead=4e-6),
        topology=Topology.all_to_all(
            num_devices, bandwidth=2.4e11, latency=1.2e-5, host_bandwidth=2.0e10, host_latency=1.2e-5
        ),
    )


def pcie_a100(num_devices: int = 8) -> MachineSpec:
    """A100-class GPUs on PCIe Gen3 (no NVLink): fast memory, slow links.

    The high memory-to-link bandwidth ratio (~124x) is the regime where
    the paper's OCC variants separate: halo transfers take as long as a
    whole internal stencil once slabs get thin, so extending the overlap
    window pays off.
    """
    return MachineSpec(
        name=f"pcie-a100-{num_devices}",
        device=DeviceSpec(mem_bandwidth=1.4e12, flops=9.7e12, launch_overhead=4e-6),
        topology=Topology.all_to_all(
            num_devices, bandwidth=1.13e10, latency=1.2e-5, host_bandwidth=1.13e10, host_latency=1.2e-5
        ),
    )


def pcie_gv100(num_devices: int = 8) -> MachineSpec:
    """Xeon + GV100 machine: peer transfers bounce over PCIe Gen3."""
    return MachineSpec(
        name=f"pcie-gv100-{num_devices}",
        device=DeviceSpec(mem_bandwidth=7.8e11, flops=7.4e12, launch_overhead=6e-6),
        topology=Topology.all_to_all(
            num_devices, bandwidth=1.1e10, latency=1.2e-5, host_bandwidth=1.1e10, host_latency=1.2e-5
        ),
    )


def mixed_pcie(num_devices: int = 8) -> MachineSpec:
    """Heterogeneous PCIe box: A100-class cards sharing a Gen3 switch with
    older GV100-class cards (the odd ranks).

    Upgraded-in-place workstations look exactly like this — half the
    slots got new GPUs, half kept the old ones — and it is the regime
    where uniform slabs visibly lose: the slow cards finish last every
    iteration, so the makespan tracks the *worst* device.  The autotuner
    exists to close that gap with proportionally sized slabs.
    """
    fast = DeviceSpec(mem_bandwidth=1.4e12, flops=9.7e12, launch_overhead=4e-6)
    slow = DeviceSpec(mem_bandwidth=7.8e11, flops=7.4e12, launch_overhead=6e-6)
    return MachineSpec(
        name=f"mixed-pcie-{num_devices}",
        device=fast,
        topology=Topology.all_to_all(
            num_devices, bandwidth=1.13e10, latency=1.2e-5, host_bandwidth=1.13e10, host_latency=1.2e-5
        ),
        device_overrides=tuple((r, slow) for r in range(1, num_devices, 2)),
    )


def multi_node_a100(num_nodes: int = 2, gpus_per_node: int = 4) -> MachineSpec:
    """Future-work extension: a small cluster of NVLink nodes joined by a
    200 Gb/s-class fabric.  Slab neighbours that straddle a node boundary
    pay the slow link; everything else is unchanged — which is exactly
    why the paper calls distributed systems a natural extension."""
    n = num_nodes * gpus_per_node
    return MachineSpec(
        name=f"cluster-{num_nodes}x{gpus_per_node}-a100",
        device=DeviceSpec(mem_bandwidth=1.4e12, flops=9.7e12, launch_overhead=4e-6),
        topology=Topology.two_level(
            n,
            gpus_per_node,
            intra_bandwidth=2.4e11,
            intra_latency=1.2e-5,
            inter_bandwidth=2.2e10,
            inter_latency=3.0e-6 + 1.2e-5,
            host_bandwidth=2.0e10,
            host_latency=1.2e-5,
        ),
    )


def cpu_host() -> MachineSpec:
    """A multi-core CPU back end modelled as a single slow device."""
    return MachineSpec(
        name="cpu-host",
        device=DeviceSpec(mem_bandwidth=8.0e10, flops=1.0e12, launch_overhead=1e-6),
        topology=Topology.all_to_all(1, bandwidth=8.0e10, latency=1e-6, host_bandwidth=8.0e10, host_latency=1e-6),
    )
