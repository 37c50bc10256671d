"""Analytic cost model mapping commands to durations.

Kernels follow a roofline: duration is launch overhead plus the larger of
the memory-traffic time and the arithmetic time.  Grid kernels in the
paper (LBM, 7/27-point stencils) are bandwidth bound on A100-class
hardware, so the memory term dominates — which is why the paper reports
LBM throughput as a fraction of effective bandwidth.  Transfers use a
latency + size/bandwidth model per directed link
(:meth:`repro.sim.topology.Link.transfer_time`).
"""

from __future__ import annotations

from repro.system.queue import KernelCost

from .machine import DeviceSpec


def kernel_duration(cost: KernelCost, spec: DeviceSpec) -> float:
    """Duration of one kernel on one device under the roofline model."""
    mem_time = cost.bytes_moved * cost.indirection / spec.mem_bandwidth
    compute_time = cost.flops / spec.flops
    return cost.launches * spec.launch_overhead + max(mem_time, compute_time)
