"""Cost-model-driven autotuner (heterogeneous load balancing).

Closes the loop between the recorded runtime and the simulator:

* :mod:`repro.tuner.weights`   — per-device slab shares from a
  :class:`~repro.sim.machine.MachineSpec` (compute roofline + link
  asymmetry water-fill);
* :mod:`repro.tuner.search`    — the search over OCC level x execution
  mode x partition weights: each candidate is the real application
  (:func:`repro.workloads.build`) on virtual, allocation-free grids at
  benchmark scale, scored by DES replay of its recorded command stream
  (never a wall clock);
* :mod:`repro.tuner.feedback`  — recalibration: fit ``DeviceSpec``s from
  observed kernel timings and re-tune when the machine model's fit
  quality degrades.

Entry points: ``Skeleton.autotune(machine=...)`` for an existing
skeleton (OCC x mode only — re-partitioning needs a grid rebuild), and
:func:`tune_workload` / ``python -m repro tune`` for the full search.
"""

from .feedback import CalibrationReport, Recalibrator, kernel_samples_from_trace, samples_from_metrics
from .search import Candidate, TunePlan, record_candidate, tune_workload
from .weights import WorkloadProfile, device_shares, profile_workload

__all__ = [
    "CalibrationReport",
    "Candidate",
    "Recalibrator",
    "TunePlan",
    "WorkloadProfile",
    "device_shares",
    "kernel_samples_from_trace",
    "samples_from_metrics",
    "profile_workload",
    "record_candidate",
    "tune_workload",
]
