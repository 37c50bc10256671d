"""Timing substrate: machine models and the discrete-event simulator."""

from .costmodel import kernel_duration
from .calibrate import KernelSample, TransferSample, fit_device, fit_link, fit_quality
from .des import SimulationDeadlock, simulate
from .machine import (
    DeviceSpec,
    MachineSpec,
    cpu_host,
    dgx_a100,
    mixed_pcie,
    multi_node_a100,
    pcie_a100,
    pcie_gv100,
)
from .replay import sim_makespan, sim_makespan_total, sim_replay
from .topology import HOST_RANK, Link, Topology
from .trace import Span, SpanKind, Trace

__all__ = [
    "HOST_RANK",
    "KernelSample",
    "TransferSample",
    "DeviceSpec",
    "Link",
    "MachineSpec",
    "SimulationDeadlock",
    "Span",
    "SpanKind",
    "Topology",
    "Trace",
    "cpu_host",
    "dgx_a100",
    "fit_device",
    "fit_link",
    "fit_quality",
    "kernel_duration",
    "mixed_pcie",
    "multi_node_a100",
    "pcie_a100",
    "pcie_gv100",
    "sim_makespan",
    "sim_makespan_total",
    "sim_replay",
    "simulate",
]
