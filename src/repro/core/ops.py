"""Well-optimised standard BLAS-like Containers with a unified interface
for every grid type (paper section III: "Neon also offers a set of
well-optimized standard BLAS operations (e.g., dot product) with a
unified interface for different grid types to facilitate rapid
prototyping").

All operations are cardinality-generic: they act on every component of
their fields through the layout-independent ``view_all`` accessor, so
the same Container works for scalar and vector fields, SoA or AoS,
dense or element-sparse grids.

Each map and sum-reduce also registers its generated-C equivalent as the
container's ``specialize`` hook (:mod:`repro.codegen.grid_kernels`); the
hook declines everything but dense SoA float64 fields, and the NumPy
closure below stays the reference the C kernel must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.codegen import grid_kernels as _c
from repro.codegen import table as _table
from repro.sets import Container, MemSet
from repro.domain.grid import Grid


def copy(grid: Grid, src, dst, name: str = "copy") -> Container:
    """dst <- src."""
    _check(grid, src, dst)

    def loading(loader):
        s = loader.read(src)
        d = loader.write(dst)
        return lambda span: np.copyto(d.view_all(span), s.view_all(span))

    container = grid.new_container(name, loading)
    container.specialize = _c.elementwise("copy", dst, src)
    return container


def scale(grid: Grid, alpha: float, x, name: str = "scale") -> Container:
    """x <- alpha * x."""
    _check(grid, x)

    def loading(loader):
        xp = loader.read_write(x)

        def compute(span):
            xp.view_all(span)[...] *= alpha

        return compute

    container = grid.new_container(name, loading)
    container.specialize = _c.elementwise("ax", x, x, scalars=lambda: (alpha, 0.0))
    return container


def axpy(grid: Grid, alpha: float, x, y, name: str = "axpy") -> Container:
    """y <- alpha * x + y (the BLAS AXPY)."""
    _check(grid, x, y)

    def loading(loader):
        xp = loader.read(x)
        yp = loader.read_write(y)

        def compute(span):
            yp.view_all(span)[...] += alpha * xp.view_all(span)

        return compute

    # y + alpha*x == alpha*x + 1.0*y bit for bit (1.0*y is exact, + commutes)
    container = grid.new_container(name, loading, flops_per_cell=2.0 * x.cardinality)
    container.specialize = _c.elementwise("axpby", y, x, y, scalars=lambda: (alpha, 1.0))
    return container


def axpby(grid: Grid, alpha: float, x, beta: float, y, name: str = "axpby") -> Container:
    """y <- alpha * x + beta * y (covers CG's p-update)."""
    _check(grid, x, y)

    def loading(loader):
        xp = loader.read(x)
        yp = loader.read_write(y)

        def compute(span):
            yv = yp.view_all(span)
            yv[...] = alpha * xp.view_all(span) + beta * yv

        return compute

    container = grid.new_container(name, loading, flops_per_cell=3.0 * x.cardinality)
    container.specialize = _c.elementwise("axpby", y, x, y, scalars=lambda: (alpha, beta))
    return container


def dot(grid: Grid, x, y, partial: MemSet, name: str = "dot") -> Container:
    """partial <- per-slice sums of x . y (all components) over the rank's
    cells; the combined scalar (:class:`ScalarResult`) is bitwise
    partition-invariant."""
    _check(grid, x, y)

    def loading(loader):
        xp = loader.read(x)
        yp = loader.read(y)
        acc = loader.reduce_target(partial)

        def compute(span):
            acc.deposit_sums(span, xp.view_all(span) * yp.view_all(span))

        return compute

    container = grid.new_container(name, loading, flops_per_cell=2.0 * x.cardinality)
    container.specialize = _c.slice_sums(partial, x, y)
    return container


def norm2_squared(grid: Grid, x, partial: MemSet, name: str = "norm2sq") -> Container:
    """partial <- per-slice sums of x*x (combine + sqrt host-side for the L2 norm)."""
    return dot(grid, x, x, partial, name=name)


def total(grid: Grid, x, partial: MemSet, name: str = "sum") -> Container:
    """partial <- per-slice sums of all components of x over the rank's cells."""
    _check(grid, x)

    def loading(loader):
        xp = loader.read(x)
        acc = loader.reduce_target(partial)

        def compute(span):
            acc.deposit_sums(span, xp.view_all(span))

        return compute

    container = grid.new_container(name, loading, flops_per_cell=1.0 * x.cardinality)
    container.specialize = _c.slice_sums(partial, x)
    return container


class ScalarResult:
    """Host-side view of a reduction: combines the per-slice partials.

    Reading the value implies a device->host round trip for one row of
    slice sums per device, exactly as a cuBLAS dot does; the
    conjugate-gradient solver reads it twice per iteration (alpha and the
    convergence check).

    The partial (``Grid.new_reduce_partial``) is read by gathering its
    rank rows into the partial's host mirror and summing that one row —
    one op table of :func:`repro.codegen.table.copy` records and a closing
    :func:`repro.codegen.table.total`, built on the first read
    (``np.concatenate(rows, out=host)`` then ``np.add.reduce`` without a
    compiler) — into a one-element result row.  Device payload arrays are
    never rebound, so the gather built once stays valid for the partial's
    lifetime.
    """

    def __init__(self, partial: MemSet):
        self.partial = partial
        self._gather = None
        self._result = np.zeros(1)

    def value(self) -> float:
        if self._gather is None:
            if self.partial.virtual:
                raise RuntimeError("reduction partials of a virtual grid have no payload")
            self._gather = _gather(self.partial, self._result)
        self._gather()
        return float(self._result[0])


def _gather(partial: MemSet, result: np.ndarray):
    """The callable that copies ``partial``'s rank rows into its host mirror
    and sums that row into ``result[0]``.

    The rank rows in rank order are the global slice order, so the
    summation tree depends only on the domain extent — bitwise identical
    for every partition (see ``Grid.new_reduce_partial``).
    """
    host, rows = partial.host, [buf.array for buf in partial.buffers]
    tables = [_table.copy(partial.host_slice(r), row) for r, row in enumerate(rows) if len(row)]
    tables.append(_table.total(result, host))
    if all(tables):
        return _table.concat(tables)

    def gather():
        np.concatenate(rows, out=host)
        result[0] = np.add.reduce(host)

    return gather


def _check(grid: Grid, *fields) -> None:
    for f in fields:
        if f.grid is not grid:
            raise ValueError(f"field '{f.name}' belongs to grid '{f.grid.name}', not '{grid.name}'")
    cards = {f.cardinality for f in fields}
    if len(cards) > 1:
        raise ValueError(f"mixed cardinalities {cards} in one BLAS op")
