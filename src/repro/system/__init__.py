"""System abstraction: devices, memory, queues/events, back ends (paper IV-A)."""

from .backend import Backend
from .device import HOST, Device, DeviceSet, DeviceType
from .engine import EXECUTION_MODES, EngineDeadlock, ParallelEngine
from .memory import AllocationError, DeviceAllocator, DeviceBuffer
from .queue import (
    Command,
    CommandQueue,
    CopyCommand,
    Event,
    KernelCommand,
    KernelCost,
    RecordEventCommand,
    WaitEventCommand,
)

__all__ = [
    "EXECUTION_MODES",
    "HOST",
    "AllocationError",
    "Backend",
    "Command",
    "CommandQueue",
    "CopyCommand",
    "Device",
    "DeviceAllocator",
    "DeviceBuffer",
    "DeviceSet",
    "DeviceType",
    "EngineDeadlock",
    "Event",
    "KernelCommand",
    "KernelCost",
    "ParallelEngine",
    "RecordEventCommand",
    "WaitEventCommand",
]
