import numpy as np
import pytest

from repro.domain import DenseGrid, SparseGrid
from repro.sets import Access, DataView, Loader, MemSet, Pattern
from repro.system import Backend


@pytest.fixture
def backend():
    return Backend.sim_gpus(2)


def test_access_predicates():
    assert Access.READ.reads and not Access.READ.writes
    assert Access.WRITE.writes and not Access.WRITE.reads
    assert Access.READ_WRITE.reads and Access.READ_WRITE.writes


def test_loader_records_tokens_in_order(backend):
    a = MemSet(backend, [2, 2], np.float64, name="a")
    b = MemSet(backend, [2, 2], np.float64, name="b")
    loader = Loader(rank=0)
    loader.read(a, stencil=True)
    loader.write(b)
    pats = [(t.data.name, t.access, t.pattern) for t in loader.tokens]
    assert pats == [("a", Access.READ, Pattern.STENCIL), ("b", Access.WRITE, Pattern.MAP)]


def test_loader_returns_rank_partition(backend):
    a = MemSet(backend, [3, 5], np.float64)
    assert len(Loader(rank=0).read(a)) == 3
    assert len(Loader(rank=1).read(a)) == 5


def test_token_conflict_detection(backend):
    a = MemSet(backend, [2, 2], np.float64)
    b = MemSet(backend, [2, 2], np.float64)
    l1, l2 = Loader(0), Loader(0)
    l1.read(a)
    l2.write(a)
    l2.read(b)
    read_a, write_a, read_b = l1.tokens[0], l2.tokens[0], l2.tokens[1]
    # the dependency graph orders two tokens on the same data when one writes
    assert read_a.data.uid == write_a.data.uid != read_b.data.uid
    assert write_a.access.writes
    assert not read_a.access.writes and not read_b.access.writes


def test_reduce_target_deposits_one_sum_per_slice(backend):
    grid = DenseGrid(backend, (5, 2, 3))
    partial = grid.new_reduce_partial("p")
    assert partial.counts == [3, 2]
    acc = Loader(1).reduce_target(partial)
    values = np.arange(2 * 2 * 6, dtype=float).reshape(2, 2, 2, 3)  # (card, slices, y, x)
    acc.deposit_sums(grid.span_for(1, DataView.STANDARD), values)
    expect = [np.sum(np.ascontiguousarray(values[:, i])) for i in range(2)]
    assert partial.partition(1).array.tobytes() == np.array(expect).tobytes()
    acc.deposit_sums(grid.span_for(1, DataView.STANDARD), values)
    assert partial.partition(1).array.tobytes() == np.array(expect).tobytes()  # assigns, never folds


def test_sparse_reduce_target_cuts_at_slice_starts(backend):
    mask = np.zeros((6, 2, 2), dtype=bool)
    mask[0, 0, :] = mask[1] = mask[3, 1, 1] = mask[4, :, 0] = mask[5, 0, 0] = True  # slice 2 empty
    grid = SparseGrid(backend, mask=mask)
    partial = grid.new_reduce_partial("p")
    partial.partition(1).array[...] = -1.0
    s, e = grid.bounds[1]
    cells = int(mask[s:e].sum())
    values = np.arange(1.0, 1.0 + 2 * cells).reshape(2, cells)
    Loader(1).reduce_target(partial).deposit_sums(grid.span_for(1, DataView.STANDARD), values)
    starts = np.concatenate(([0], np.cumsum(mask[s:e].reshape(e - s, -1).sum(axis=1))))
    expect = [np.sum(np.ascontiguousarray(values[:, a:b])) for a, b in zip(starts[:-1], starts[1:])]
    assert partial.partition(1).array.tolist() == expect
    assert 0.0 in expect  # the empty slice deposits 0.0


def test_loader_view_defaults(backend):
    loader = Loader(rank=1)
    assert loader.view is DataView.STANDARD
    assert not loader.parse_only
