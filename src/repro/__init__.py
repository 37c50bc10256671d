"""repro: a Python reproduction of "Neon: A Multi-GPU Programming Model
for Grid-based Computations" (Meneghin et al., IPDPS 2022).

The package mirrors the paper's abstraction hierarchy:

* :mod:`repro.system`  — devices, memory, queues/events (System level)
* :mod:`repro.sets`    — multi-device data, Containers, Loaders (Set level)
* :mod:`repro.domain`  — Grids, Fields, views, halos (Domain level)
* :mod:`repro.skeleton`— dependency graphs, OCC, scheduling (Skeleton level)
* :mod:`repro.core`    — the user-facing facade plus BLAS-like ops
* :mod:`repro.sim`     — the machine model replacing real GPUs
* :mod:`repro.solvers` — LBM, Poisson, linear elasticity applications
* :mod:`repro.workloads` — the one description (``JobSpec``) and the one
  constructor (``build``) of the four experiments every tool runs
* :mod:`repro.baselines` — hand-written comparators (cuboltz/stlbm roles)
* :mod:`repro.bench`   — metrics and harnesses for the paper's tables/figures
* :mod:`repro.observability` — structured tracing, metrics, profiling hooks
"""

__version__ = "0.1.0"
