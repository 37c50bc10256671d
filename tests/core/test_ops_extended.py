import ctypes

import numpy as np
import pytest

from repro import codegen
from repro.codegen import table
from repro.codegen.table import Table
from repro.core import Backend, DenseGrid, Occ, ScalarResult, Skeleton, ops
from repro.domain import STENCIL_7PT


@pytest.fixture
def grid():
    return DenseGrid(Backend.sim_gpus(2), (8, 4, 4), stencils=[STENCIL_7PT])


def run_one(grid, container):
    Skeleton(grid.backend, [container], occ=Occ.NONE).run()


def test_copy_then_axpby_leaves_inputs_untouched(grid):
    x, y, w = (grid.new_field(n) for n in "xyw")
    x.fill(2.0)
    y.fill(3.0)
    run_one(grid, ops.copy(grid, y, w))
    run_one(grid, ops.axpby(grid, 2.0, x, -1.0, w))
    assert np.allclose(w.to_numpy(), 1.0)
    # inputs untouched
    assert np.allclose(x.to_numpy(), 2.0)
    assert np.allclose(y.to_numpy(), 3.0)


def test_total(grid):
    x = grid.new_field("x", cardinality=2)
    x.fill(1.5)
    partial = grid.new_reduce_partial("p")
    run_one(grid, ops.total(grid, x, partial))
    assert ScalarResult(partial).value() == pytest.approx(1.5 * 2 * grid.num_cells)


def test_slice_reduce_read_equals_the_rebuilt_concatenation_bitwise(monkeypatch):
    """A per-slice read gathers the rank rows into the partial's host mirror
    and sums that row (one op table, closed by the total's record, where
    ``cc`` exists; ``np.concatenate(out=)`` then ``np.add.reduce``
    otherwise): every read must be the bits of a fresh concatenation
    summed — on 1, 2, 3 and 8 devices, even and weighted strips, with a
    ``-0.0`` row, with every row ``-0.0``, after the rows are rewritten in
    place, with and without a compiler.  With one, ``value()`` runs no
    NumPy reduction at all."""
    for cc in (True, False):
        if not cc:
            monkeypatch.setenv("REPRO_DISABLE_CC", "1")
        for devices in (1, 2, 3, 8):
            for weights in (None, [1.0 + 2.0 * r for r in range(devices)]):
                with monkeypatch.context() as patch:
                    if codegen.available():
                        patch.setattr(ops, "np", _NoReduction())
                    _check_host_read(devices, weights, cc)
    with monkeypatch.context() as patch:  # the stand-in bites where NumPy sums
        patch.setattr(ops, "np", _NoReduction())
        with pytest.raises(AssertionError, match="NumPy reduction"):
            ScalarResult(DenseGrid(Backend.sim_gpus(2), (5, 3, 4)).new_reduce_partial("p")).value()


class _NoReduction:
    """NumPy as :mod:`repro.core.ops` sees it, minus its reductions."""

    class add:
        @staticmethod
        def reduce(*args, **kwargs):
            raise AssertionError("value() ran a NumPy reduction")

    sum = add.reduce

    def __getattr__(self, name):
        return getattr(np, name)


def _check_host_read(devices: int, weights, cc: bool) -> None:
    g = DenseGrid(Backend.sim_gpus(devices), (29, 3, 4), stencils=[STENCIL_7PT], partition_weights=weights)
    assert devices == 1 or len({g.local_slices(r) for r in range(devices)}) > 1, "uneven strips"
    partial = g.new_reduce_partial("p")
    read = ScalarResult(partial)
    rows = [partial.partition(r).array for r in range(devices)]
    rng = np.random.default_rng(devices)
    for magnitude in (1.0, 1e-9, 1e12):
        for row in rows:
            row[...] = rng.standard_normal(len(row)) * magnitude
        rows[-1][...] = -0.0
        want = np.float64(np.sum(np.concatenate(rows))).tobytes()
        assert np.float64(read.value()).tobytes() == want, (devices, weights, cc)
        assert partial.host.tobytes() == np.concatenate(rows).tobytes(), "the mirror holds the gathered row"
    for row in rows:
        row[...] = -0.0
    assert np.float64(read.value()).tobytes() == np.float64(np.sum(np.full(29, -0.0))).tobytes()
    assert isinstance(read._gather, Table) == (cc and codegen.available())
    if isinstance(read._gather, Table):  # the total is the gather table's last record, over the mirror
        total = table.bind(("optable", "sum_op"), table._WALKER_C, "sum_op")
        last = read._gather.ops[-1]
        assert last.fn == ctypes.cast(total, ctypes.c_void_p).value
        assert last.p[0] == partial.host.ctypes.data and last.n[0] == 29
