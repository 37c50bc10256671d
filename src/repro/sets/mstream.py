"""Multi-GPU streams and events (paper IV-B4).

Straightforward vectors over device rank: a multi-GPU Stream holds one
command queue per device, a multi-GPU Event one event per device.  Users
*can* drive these manually (Set-level programming); the Skeleton manages
them automatically.

Set-level code gets the same two execution paths the Skeleton has: eager
streams run each command inline at enqueue (host-ordered), while a
*recorded* stream (``eager=False``) can be replayed concurrently by
handing its queues to :meth:`ParallelEngine.execute
<repro.system.ParallelEngine.execute>` — cross-device dependencies
enforced purely by the :class:`MultiEvent` record/wait wiring the user
laid down.
"""

from __future__ import annotations

from repro.system import Backend, CommandQueue, Event


class MultiStream:
    """One command queue per device of a backend."""

    def __init__(self, queues: list[CommandQueue], name: str = ""):
        if not queues:
            raise ValueError("MultiStream cannot be empty")
        self.queues = list(queues)
        self.name = name or queues[0].name

    @classmethod
    def create(cls, backend: Backend, name: str, eager: bool = True) -> "MultiStream":
        return cls(
            [backend.new_queue(r, name=f"{name}[{r}]", eager=eager) for r in range(backend.num_devices)],
            name=name,
        )

    def __len__(self) -> int:
        return len(self.queues)

    def __getitem__(self, rank: int) -> CommandQueue:
        return self.queues[rank]

    def __iter__(self):
        return iter(self.queues)


class MultiEvent:
    """One event per device of a backend."""

    def __init__(self, num_devices: int, name: str = ""):
        if num_devices < 1:
            raise ValueError("MultiEvent needs at least one device")
        self.events = [Event(f"{name}[{r}]") for r in range(num_devices)]
        self.name = name

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, rank: int) -> Event:
        return self.events[rank]

    def _check_size(self, stream: MultiStream, op: str) -> None:
        if len(stream) != len(self.events):
            raise ValueError(
                f"cannot {op} MultiEvent '{self.name}' ({len(self.events)} devices) on "
                f"MultiStream '{stream.name}' ({len(stream)} devices); both must span "
                f"the same device set"
            )

    def record_all(self, stream: MultiStream) -> None:
        self._check_size(stream, "record")
        for rank, q in enumerate(stream.queues):
            q.record_event(self.events[rank])

    def wait_all(self, stream: MultiStream) -> None:
        self._check_size(stream, "wait on")
        for rank, q in enumerate(stream.queues):
            q.wait_event(self.events[rank])
