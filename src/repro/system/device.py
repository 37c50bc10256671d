"""Device model for the System abstraction (paper section IV-A).

The paper's System layer shields Neon from hardware specifics: it models a
machine as a set of accelerators, each exposing memory management, a
queue-based runtime, and the ability to run user lambdas.  Without real
GPUs we model each accelerator as a *simulated device*: kernels execute
eagerly as NumPy operations on host memory that is logically owned by the
device, while every command is also recorded so the discrete-event
simulator (:mod:`repro.sim`) can replay it against a performance model.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class DeviceType(enum.Enum):
    """Kind of execution resource behind a :class:`Device`."""

    CPU = "cpu"
    GPU = "gpu"


_device_counter = itertools.count()


@dataclass(frozen=True)
class Device:
    """A single execution resource (one simulated GPU or the host CPU).

    Attributes
    ----------
    index:
        Rank of the device inside its :class:`DeviceSet` (the paper's
        ``setIdx``).  The host CPU conventionally uses index ``-1``.
    kind:
        Whether this models a GPU or a CPU.
    uid:
        Globally unique id, used to key simulator resources.
    """

    index: int
    kind: DeviceType = DeviceType.GPU
    uid: int = field(default_factory=lambda: next(_device_counter))

    @property
    def metric_label(self) -> str:
        """Stable label for this device in metric series (e.g. ``gpu0``)."""
        return f"{self.kind.value}{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.kind.value}:{self.index})"


HOST = Device(index=-1, kind=DeviceType.CPU)
"""The host CPU device shared by every backend."""


class DeviceSet:
    """Ordered collection of devices, the unit the Set abstraction works on.

    The paper parametrises every multi-GPU mechanism as a vector indexed by
    device rank; :class:`DeviceSet` is that index space.
    """

    def __init__(self, devices: list[Device]):
        if not devices:
            raise ValueError("a DeviceSet needs at least one device")
        ranks = [d.index for d in devices]
        if ranks != list(range(len(devices))):
            raise ValueError(f"device indices must be 0..n-1, got {ranks}")
        self._devices = tuple(devices)

    @classmethod
    def gpus(cls, count: int) -> "DeviceSet":
        """Build a set of ``count`` simulated GPUs."""
        if count < 1:
            raise ValueError("need at least one device")
        return cls([Device(index=i, kind=DeviceType.GPU) for i in range(count)])

    @classmethod
    def cpu(cls) -> "DeviceSet":
        """A single-device set modelling a multi-core CPU back end.

        The paper models the CPU with the same accelerator interface but
        limits it to one kernel at a time; the cost model in
        :mod:`repro.sim` applies the same restriction.
        """
        return cls([Device(index=0, kind=DeviceType.CPU)])

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self):
        return iter(self._devices)

    def __getitem__(self, rank: int) -> Device:
        return self._devices[rank]

    @property
    def devices(self) -> tuple[Device, ...]:
        return self._devices

    def neighbours(self, rank: int) -> list[int]:
        """Ranks this device exchanges halos with (1-D slab decomposition)."""
        out = []
        if rank > 0:
            out.append(rank - 1)
        if rank < len(self) - 1:
            out.append(rank + 1)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = {d.kind.value for d in self._devices}
        return f"DeviceSet({len(self)}x{'/'.join(sorted(kinds))})"
