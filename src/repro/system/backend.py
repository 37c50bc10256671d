"""Backend: the user-visible bundle of devices + machine model + allocator.

In the paper every application is "described with respect to a back end
(CPU or GPU), the number of available resources, a grid data structure,
layout and memory properties" — all switchable without touching user
code.  :class:`Backend` is that first parameter.
"""

from __future__ import annotations

from repro import observability as _obs
from repro.sim.machine import MachineSpec, cpu_host, dgx_a100

from .device import Device, DeviceSet
from .layers import Session
from .memory import DeviceAllocator
from .queue import CommandQueue


class _NoStaging:
    """Every transfer is one copy, so nothing is ever staged; the benchmark
    still reads ``Backend.staging.stats()`` for its hit ratio."""

    @staticmethod
    def stats() -> dict[str, int]:
        return {"hits": 0, "misses": 0}


class Backend:
    """A set of execution devices plus their performance envelope."""

    staging = _NoStaging()

    def __init__(
        self,
        devices: DeviceSet,
        machine: MachineSpec | None = None,
        memory_capacity: int | None = None,
    ):
        self.devices = devices
        self.machine = machine or dgx_a100(len(devices))
        if self.machine.num_devices != len(devices):
            self.machine = self.machine.with_devices(len(devices))
        #: the fault session and sanitizer log armed on this backend (neither, by default)
        self.session = Session()
        self.allocator = DeviceAllocator(capacity_bytes=memory_capacity, session=self.session)

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

    def device(self, rank: int) -> Device:
        return self.devices[rank]

    def new_queue(self, rank: int, name: str = "", eager: bool = True) -> CommandQueue:
        if _obs.OBS.active:
            _obs.OBS.metrics.counter("queues_created", device=self.devices[rank].metric_label).inc()
        return CommandQueue(self.devices[rank], name=name, eager=eager, session=self.session)

    def allocate(self, rank: int, shape, dtype, virtual: bool = False, pitch: int | None = None):
        return self.allocator.allocate(self.devices[rank], shape, dtype, virtual=virtual, pitch=pitch)

    def memory_report(self) -> dict[int, int]:
        """Bytes currently allocated per device rank (virtual included)."""
        return {r: self.allocator.used_bytes(self.devices[r]) for r in range(self.num_devices)}

    def close(self) -> None:
        """No-op: a backend holds nothing beyond its buffers, which die with
        their fields.  Kept because the benchmark's workloads call it."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Backend({self.devices!r}, machine={self.machine.name})"
