"""Neon-like public API: everything a user application needs (paper III).

A typical application::

    from repro.core import Backend, DenseGrid, Skeleton, Occ, ops
    from repro.domain import STENCIL_7PT

    backend = Backend.sim_gpus(8)
    grid = DenseGrid(backend, (320, 320, 320), stencils=[STENCIL_7PT])
    u = grid.new_field("u")
    ...
    sk = Skeleton(backend, [c1, c2, c3], occ=Occ.TWO_WAY)
    sk.run()
"""

from repro.domain import (
    D2Q9_STENCIL,
    D3Q19_STENCIL,
    STENCIL_7PT,
    STENCIL_27PT,
    DataView,
    DenseGrid,
    Field,
    Grid,
    Layout,
    SparseGrid,
    Stencil,
)
from repro.sets import Container, Loader, MemSet, MultiEvent, MultiStream, Pattern
from repro.sim import MachineSpec, Trace, cpu_host, dgx_a100, pcie_gv100, simulate
from repro.skeleton import Occ, Skeleton
from repro.system import Backend

from . import ops
from .ops import ScalarResult

__all__ = [
    "D2Q9_STENCIL",
    "D3Q19_STENCIL",
    "STENCIL_7PT",
    "STENCIL_27PT",
    "Backend",
    "Container",
    "DataView",
    "DenseGrid",
    "Field",
    "Grid",
    "Layout",
    "Loader",
    "MachineSpec",
    "MemSet",
    "MultiEvent",
    "MultiStream",
    "Occ",
    "Pattern",
    "ScalarResult",
    "Skeleton",
    "SparseGrid",
    "Stencil",
    "Trace",
    "cpu_host",
    "dgx_a100",
    "ops",
    "pcie_gv100",
    "simulate",
]
