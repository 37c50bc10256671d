import numpy as np
import pytest

from repro.sets import Access, DataView, Loader, MemSet, Pattern, ReduceMode
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


def test_reduce_accessor_modes(backend):
    partial = MemSet(backend, [1, 1], np.float64)
    acc = Loader(0, reduce_mode=ReduceMode.ASSIGN).reduce_target(partial)
    acc.deposit(5.0)
    acc.deposit(7.0)
    assert partial.partition(0).array[0] == 7.0  # assign overwrites
    acc2 = Loader(0, reduce_mode=ReduceMode.ACCUMULATE).reduce_target(partial)
    acc2.deposit(3.0)
    assert partial.partition(0).array[0] == 10.0  # accumulate folds


def test_reduce_with_custom_op(backend):
    partial = MemSet(backend, [1, 1], np.float64)
    partial.fill(2.0)
    acc = Loader(0, reduce_mode=ReduceMode.ACCUMULATE).reduce_target(partial, op=np.maximum)
    acc.deposit(1.0)
    assert partial.partition(0).array[0] == 2.0
    acc.deposit(9.0)
    assert partial.partition(0).array[0] == 9.0


def test_loader_view_defaults(backend):
    loader = Loader(rank=1)
    assert loader.view is DataView.STANDARD
    assert loader.reduce_mode is ReduceMode.ASSIGN
    assert not loader.parse_only
