"""Unfused LBM: streaming and collision as separate Containers.

The paper's section V-D names kernel/container fusion as the one
optimisation a library approach cannot perform automatically: "the only
limitation that this design decision incurs is the inability to optimize
the single-GPU performance (e.g., via kernel/container fusion and
tiling)".  This module provides the two-container formulation a naive
user (or an automatic translator without fusion) would write, so the
cost of *not* fusing is measurable inside the framework itself — the
fused twoPop kernel touches each population twice per step, the unfused
pair four times.
"""

from __future__ import annotations

import numpy as np

from repro.domain import DenseGrid

from .d3q19 import pull
from .lattice import D3Q19


def make_stream_container(grid: DenseGrid, f_in, f_mid, lid_velocity: float, name: str = "stream"):
    """Pure streaming pass: gather pulled populations (with bounce-back)."""
    nz = grid.shape[0]

    def loading(loader):
        fi = loader.read(f_in, stencil=True)
        fm = loader.write(f_mid)

        def compute(span):
            z = fi.coords(span)[0]
            for q in range(D3Q19.q):
                fm.view(span, q)[...] = pull(fi, span, q, z, nz, lid_velocity)

        return compute

    return grid.new_container(name, loading, flops_per_cell=40.0)


def make_collide_container(grid: DenseGrid, f_mid, f_out, omega: float, name: str = "collide"):
    """Pure BGK collision pass over the streamed populations."""

    def loading(loader):
        fm = loader.read(f_mid)
        fo = loader.write(f_out)

        def compute(span):
            out = D3Q19.collide(np.stack([fm.view(span, q) for q in range(D3Q19.q)]), omega)
            for q in range(D3Q19.q):
                fo.view(span, q)[...] = out[q]

        return compute

    return grid.new_container(name, loading, flops_per_cell=310.0)


def make_unfused_step(grid, f_in, f_mid, f_out, omega, lid_velocity):
    """The two-container step: stream into scratch, then collide."""
    return [
        make_stream_container(grid, f_in, f_mid, lid_velocity),
        make_collide_container(grid, f_mid, f_out, omega),
    ]
