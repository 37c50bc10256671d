"""Per-device slab shares from the machine model.

The slab decomposition's only knob is how many slices each device owns.
On a homogeneous machine the uniform split is optimal; on a
heterogeneous one (mixed device generations, asymmetric links) the
slowest device gates every halo-synchronised step.  This module turns a
:class:`~repro.sim.machine.MachineSpec` plus a workload profile into
partition shares that equalise *per-device step time*:

    cells_r * cell_time_r + fixed_r = T   for every rank r,

where ``cell_time_r`` is the roofline per-cell time of rank r's device
(same formula as :func:`repro.sim.costmodel.kernel_duration`) and
``fixed_r`` is the cell-count-independent part of the rank's step —
launch overheads plus its halo transfer time, which encodes the link
asymmetry (chain-end devices have one neighbour, middles two; per-link
bandwidths may differ).  Solving for ``cells_r`` under
``sum cells_r = total`` is a one-shot water-fill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.machine import MachineSpec
from repro.system.queue import CopyCommand, KernelCommand


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-cell resource demands of one application step."""

    bytes_per_cell: float
    flops_per_cell: float

    def cell_time(self, spec) -> float:
        """Roofline seconds per cell on one device (no launch overhead)."""
        return max(self.bytes_per_cell / spec.mem_bandwidth, self.flops_per_cell / spec.flops)


def profile_workload(plans, num_active: int) -> WorkloadProfile:
    """Derive the per-cell profile from a recorded step's schedule stats.

    ``plans`` are the recorded :class:`ExecutionResult`s of one
    application step (all its host-synchronised skeletons); their
    aggregate kernel traffic divided by the grid's active cells is the
    workload's per-cell demand — self-consistent with the DES, since
    both read the same :class:`KernelCost` numbers.
    """
    if num_active <= 0:
        raise ValueError("num_active must be positive")
    total_bytes = sum(p.stats.kernel_bytes for p in plans)
    total_flops = sum(p.stats.kernel_flops for p in plans)
    return WorkloadProfile(
        bytes_per_cell=total_bytes / num_active,
        flops_per_cell=total_flops / num_active,
    )


def fixed_seconds(plans, machine: MachineSpec, num_devices: int) -> np.ndarray:
    """Per-rank cell-count-independent seconds of one recorded step.

    Two ingredients, both independent of the slab split:

    * launch overheads — each kernel command pays its device's
      per-launch cost (slower generations pay more per launch);
    * communication *asymmetry* — halo message sizes depend only on
      halo radius and lateral extent, and each direction's copies run
      on their own queue (concurrently), so a rank's halo time is the
      max over its copy queues.  The fleet-wide minimum of that max is
      the same for every rank and overlaps interior compute under OCC,
      so it cancels out of the equalisation; only the *excess* above
      the minimum (e.g. a slab neighbour across a slow inter-node
      link) is charged as fixed cost.
    """
    fixed = np.zeros(num_devices)
    # per-copy-queue transfer seconds, then per-rank max over the queues
    # that rank participates in (as sender or receiver)
    queue_seconds: dict[int, float] = {}
    queue_ranks: dict[int, set[int]] = {}
    for plan in plans:
        for q in getattr(plan, "queues", plan):
            for cmd in q.commands:
                if isinstance(cmd, KernelCommand):
                    rank = q.device.index
                    fixed[rank] += cmd.cost.launches * machine.device_spec(rank).launch_overhead
                elif isinstance(cmd, CopyCommand):
                    t = machine.topology.link(cmd.src.index, cmd.dst.index).transfer_time(cmd.nbytes)
                    key = id(q)
                    queue_seconds[key] = queue_seconds.get(key, 0.0) + t
                    queue_ranks.setdefault(key, set()).update(
                        r for r in (cmd.src.index, cmd.dst.index) if 0 <= r < num_devices
                    )
    if queue_seconds:
        comm = np.zeros(num_devices)
        for key, t in queue_seconds.items():
            for rank in queue_ranks[key]:
                comm[rank] = max(comm[rank], t)
        fixed += comm - float(np.min(comm))
    return fixed


def device_shares(
    machine: MachineSpec,
    num_devices: int,
    profile: WorkloadProfile,
    total_cells: int,
    fixed: np.ndarray | None = None,
) -> np.ndarray:
    """Normalised slab shares equalising per-device step time.

    Solves ``cells_r = (T - fixed_r) / cell_time_r`` with
    ``sum cells_r = total_cells``.  A device whose fixed costs alone
    exceed the equalised step time is clamped to a minimal share and the
    water-fill is re-solved over the remaining devices (standard
    active-set iteration; terminates in at most ``num_devices`` rounds).
    """
    if total_cells <= 0:
        raise ValueError("total_cells must be positive")
    ct = np.array([profile.cell_time(machine.device_spec(r)) for r in range(num_devices)])
    if np.any(ct <= 0.0):
        raise ValueError("non-positive per-cell time; check the workload profile")
    fixed = np.zeros(num_devices) if fixed is None else np.asarray(fixed, dtype=np.float64)
    inv = 1.0 / ct
    floor = max(1.0, 1e-3 * total_cells / num_devices)
    cells = np.full(num_devices, floor)
    active = np.ones(num_devices, dtype=bool)
    for _ in range(num_devices):
        remaining = total_cells - float(np.sum(cells[~active]))
        if remaining <= 0 or not np.any(active):
            break
        T = (remaining + float(np.sum((fixed * inv)[active]))) / float(np.sum(inv[active]))
        trial = (T - fixed) * inv
        clamped = active & (trial < floor)
        if not np.any(clamped):
            cells[active] = trial[active]
            break
        active &= ~clamped
    shares = cells / float(np.sum(cells))
    return shares
