"""Backend: the user-visible bundle of devices + machine model + allocator.

In the paper every application is "described with respect to a back end
(CPU or GPU), the number of available resources, a grid data structure,
layout and memory properties" — all switchable without touching user
code.  :class:`Backend` is that first parameter.
"""

from __future__ import annotations

from repro import observability as _obs
from repro.sim.machine import MachineSpec, cpu_host, dgx_a100

from .device import Device, DeviceSet, DeviceType
from .layers import Session
from .memory import DeviceAllocator, MemOptions, StagingPool
from .queue import CommandQueue


class Backend:
    """A set of execution devices plus their performance envelope."""

    def __init__(
        self,
        devices: DeviceSet,
        machine: MachineSpec | None = None,
        memory_capacity: int | None = None,
        mem_options: MemOptions | None = None,
    ):
        self.devices = devices
        self.machine = machine or dgx_a100(len(devices))
        if self.machine.num_devices != len(devices):
            self.machine = self.machine.with_devices(len(devices))
        #: the fault session and sanitizer log armed on this backend (neither, by default)
        self.session = Session()
        self.allocator = DeviceAllocator(capacity_bytes=memory_capacity, session=self.session)
        self.mem_options = mem_options or MemOptions()
        self.staging = StagingPool()

    @classmethod
    def sim_gpus(cls, count: int, machine: MachineSpec | None = None, **kw) -> "Backend":
        """Simulated multi-GPU backend (default machine: DGX-A100-like)."""
        return cls(DeviceSet.gpus(count), machine=machine or dgx_a100(count), **kw)

    @classmethod
    def cpu(cls, **kw) -> "Backend":
        """Single multi-core CPU backend, for debugging runs."""
        return cls(DeviceSet.cpu(), machine=cpu_host(), **kw)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def is_cpu(self) -> bool:
        return all(d.kind is DeviceType.CPU for d in self.devices)

    def device(self, rank: int) -> Device:
        return self.devices[rank]

    def new_queue(self, rank: int, name: str = "", eager: bool = True) -> CommandQueue:
        if _obs.OBS.active:
            _obs.OBS.metrics.counter("queues_created", device=self.devices[rank].metric_label).inc()
        return CommandQueue(self.devices[rank], name=name, eager=eager, session=self.session)

    def allocate(self, rank: int, shape, dtype, options: MemOptions | None = None, virtual: bool = False):
        return self.allocator.allocate(
            self.devices[rank], shape, dtype, options or self.mem_options, virtual=virtual
        )

    def memory_report(self) -> dict[int, int]:
        """Bytes currently allocated per device rank (virtual included)."""
        return {r: self.allocator.used_bytes(self.devices[r]) for r in range(self.num_devices)}

    def close(self) -> None:
        """Deterministically release backend resources (idempotent).

        Drains the staging pool, so a failing test or a long-lived driver
        cannot carry pooled blocks of a dead backend into the next case.
        """
        self.staging.drain()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Backend({self.devices!r}, machine={self.machine.name})"
