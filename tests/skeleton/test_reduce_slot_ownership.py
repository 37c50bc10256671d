"""Slot ownership of a split reduction (paper V-B, Two-way Extended OCC).

A reduce partial holds one slot per owned axis-0 slice, and launch pieces
cover whole slices, so the INTERNAL and BOUNDARY halves of a split reduce
write disjoint slot sets that together fill the rank's row.  That is what
lets the access model treat a partial as plain owned data and the OCC
transform leave the halves unordered.  Each half runs alone into a
NaN-filled partial, through the interpreted closure and, where one binds,
the generated C kernel.
"""

import numpy as np
import pytest

from repro import codegen
from repro.core import ops
from repro.domain import STENCIL_7PT, DataView, DenseGrid, SparseGrid
from repro.sets.loader import Loader
from repro.skeleton import Occ, Skeleton
from repro.system import Backend

from .conftest import make_laplace
from .test_hybrid_stencil_reduce import make_residual_norm

SHAPE = (24, 8, 8)  # three slices per rank on 8 devices
HALVES = (DataView.INTERNAL, DataView.BOUNDARY)


def _grid(grid_kind, ndev):
    backend = Backend.sim_gpus(ndev)
    if grid_kind == "dense":
        return DenseGrid(backend, SHAPE, stencils=[STENCIL_7PT])
    # solid fraction 0.4: a 5x5 column through an 8x8 cross-section
    mask = np.zeros(SHAPE, dtype=bool)
    mask[:, 1:6, 2:7] = True
    return SparseGrid(backend, mask=mask, stencils=[STENCIL_7PT])


def _program(program, grid):
    """``(containers, reduce container, partial)`` of one test program."""
    rng = np.random.default_rng(5)
    u, f = grid.new_field("u"), grid.new_field("f")
    du, df = rng.standard_normal(SHAPE), rng.standard_normal(SHAPE)
    u.init(lambda z, y, x: du[z, y, x])
    f.init(lambda z, y, x: df[z, y, x])
    partial = grid.new_reduce_partial("partial")
    if program == "dot":
        # f <- laplace(u), then the dot consumes the stencil's output: the
        # reduce TWO_WAY splits
        reduce = ops.dot(grid, u, f, partial)
        return [make_laplace(grid, u, f), reduce], reduce, partial
    # the hybrid stencil-reads u and reduces: STANDARD on splits it
    reduce = make_residual_norm(grid, u, f, partial)
    return [reduce], reduce, partial


def _launch(reduce, view, compiled: bool) -> None:
    """One launch of ``reduce`` over ``view`` on every rank: the generated
    kernel, or the interpreted closure."""
    grid = reduce.index_data
    for rank in range(grid.num_devices):
        span = grid.span_for(rank, view)
        if span.is_empty:
            continue
        if compiled:
            reduce.specialize(rank, view, span)()
        else:
            compute = reduce.loading(Loader(rank=rank, view=view))
            for piece in span.pieces():
                compute(piece)


def _written(partial, reduce, view, compiled) -> set:
    partial.fill(np.nan)
    _launch(reduce, view, compiled)
    return {
        (rank, int(slot))
        for rank, buf in enumerate(partial.buffers)
        for slot in np.flatnonzero(~np.isnan(buf.array))
    }


@pytest.mark.parametrize("occ", list(Occ))
@pytest.mark.parametrize("ndev", [1, 2, 3, 8])
@pytest.mark.parametrize("grid_kind", ["dense", "sparse"])
@pytest.mark.parametrize("program", ["dot", "residual_norm"])
def test_reduce_halves_write_disjoint_slots_covering_every_owned_slot(program, grid_kind, ndev, occ):
    grid = _grid(grid_kind, ndev)
    containers, reduce, partial = _program(program, grid)
    views = {n.view for n in Skeleton(grid.backend, containers, occ=occ).graph.nodes if n.container is reduce}
    split_from = Occ.TWO_WAY if program == "dot" else Occ.STANDARD
    splits = ndev > 1 and occ.level >= split_from.level
    assert views == (set(HALVES) if splits else {DataView.STANDARD})

    owned = {(rank, slot) for rank, n in enumerate(partial.counts) for slot in range(n)}
    # the dense dot also runs as generated C; the other launches decline it
    compiles = codegen.available() and program == "dot" and grid_kind == "dense"
    for compiled in (False, True) if compiles else (False,):
        internal, boundary = (_written(partial, reduce, view, compiled) for view in HALVES)
        assert not internal & boundary, compiled
        assert internal | boundary == owned, compiled
