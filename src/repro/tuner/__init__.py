"""Cost-model-driven autotuner (heterogeneous load balancing).

Scores the recorded runtime on the simulator, before a run starts:

* :mod:`repro.tuner.weights`   — per-device slab shares from a
  :class:`~repro.sim.machine.MachineSpec` (compute roofline + link
  asymmetry water-fill);
* :mod:`repro.tuner.search`    — the search over OCC level x execution
  mode x partition weights: each candidate is the real application
  (:func:`repro.workloads.build`) on virtual, allocation-free grids at
  benchmark scale, scored by DES replay of its recorded command stream
  (never a wall clock).

Entry point: :func:`tune_workload` / ``python -m repro tune``, the one
tuner.  It only ever produces a :class:`TunePlan`, which a caller turns
into a spec (OCC level, mode, weights) before compiling; a compiled
skeleton never changes its OCC level or replay mode.
"""

from .search import Candidate, TunePlan, record_candidate, tune_workload
from .weights import WorkloadProfile, device_shares, profile_workload

__all__ = [
    "Candidate",
    "TunePlan",
    "WorkloadProfile",
    "device_shares",
    "profile_workload",
    "record_candidate",
    "tune_workload",
]
