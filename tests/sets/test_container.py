import numpy as np
import pytest

from repro.domain import DenseGrid
from repro.sets import (
    Access,
    Container,
    DataView,
    MemSet,
    MultiStream,
    Pattern,
)
from repro.system import Backend


@pytest.fixture
def backend():
    return Backend.sim_gpus(2)


def axpy_container(a, x, y):
    def loading(loader):
        xp = loader.read(x)
        yp = loader.read_write(y)

        def compute(span):
            yp.view(span)[...] += a * xp.view(span)

        return compute

    return Container("axpy", x, loading)


def test_map_container_runs_on_all_devices(backend):
    x = MemSet(backend, [4, 4], np.float64)
    y = MemSet(backend, [4, 4], np.float64)
    x.fill(2.0)
    y.fill(1.0)
    streams = MultiStream.create(backend, "s")
    axpy_container(3.0, x, y).run(streams)
    for r in range(2):
        assert np.all(y.partition(r).array == 7.0)


def test_tokens_capture_access_and_pattern(backend):
    x = MemSet(backend, [4, 4], np.float64)
    y = MemSet(backend, [4, 4], np.float64)
    c = axpy_container(1.0, x, y)
    toks = c.tokens()
    assert [(t.data.uid, t.access, t.pattern) for t in toks] == [
        (x.uid, Access.READ, Pattern.MAP),
        (y.uid, Access.READ_WRITE, Pattern.MAP),
    ]
    assert c.pattern is Pattern.MAP


def test_tokens_are_cached(backend):
    x = MemSet(backend, [4, 4], np.float64)
    calls = []

    def loading(loader):
        calls.append(1)
        loader.read(x)
        return lambda span: None

    c = Container("noop", x, loading)
    c.tokens()
    c.tokens()
    assert len(calls) == 1


def test_stencil_write_violates_own_compute_rule(backend):
    x = MemSet(backend, [4, 4], np.float64)

    def loading(loader):
        loader.load(x, Access.WRITE, Pattern.STENCIL)
        return lambda span: None

    with pytest.raises(ValueError, match="read-only"):
        Container("bad", x, loading).tokens()


def test_loading_must_return_callable(backend):
    x = MemSet(backend, [4, 4], np.float64)
    c = Container("bad", x, lambda loader: 42)
    with pytest.raises(TypeError):
        c.tokens()


def test_loading_must_declare_accesses(backend):
    x = MemSet(backend, [4, 4], np.float64)
    c = Container("bad", x, lambda loader: (lambda span: None))
    with pytest.raises(ValueError, match="no data accesses"):
        c.tokens()


def test_reduce_container_reruns_assign_per_slice(backend):
    grid = DenseGrid(backend, (5, 2, 2))
    x = grid.new_field("x")
    x.init(lambda z, y, i: 1.0 + z)
    partial = grid.new_reduce_partial("p")

    def loading(loader):
        xp = loader.read(x)
        acc = loader.reduce_target(partial)
        return lambda span: acc.deposit_sums(span, xp.view_all(span))

    c = Container("sum", grid, loading)
    assert c.pattern is Pattern.REDUCE
    streams = MultiStream.create(backend, "s")
    for _ in range(2):  # a second launch assigns the same sums again
        c.run(streams)
        rows = [partial.partition(r).array.tolist() for r in range(2)]
        assert rows == [[4.0, 8.0, 12.0], [16.0, 20.0]]


def test_reduce_partial_must_have_one_slot(backend):
    grid = DenseGrid(backend, (6, 2, 2))
    x = MemSet(backend, [3, 3], np.float64)

    def reducing(index_data, partial):
        def loading(loader):
            loader.read(x)
            loader.reduce_target(partial)
            return lambda span: None

        return Container("sum", index_data, loading)

    per_rank = MemSet(backend, [1, 1], np.float64, name="per_rank")
    with pytest.raises(ValueError, match="one slot per owned slice"):
        reducing(grid, per_rank).tokens()
    with pytest.raises(ValueError, match="reductions iterate a grid"):
        reducing(x, grid.new_reduce_partial("p")).tokens()


def test_boundary_launch_skips_empty_spans(backend):
    x = MemSet(backend, [4, 4], np.float64)
    hits = []

    def loading(loader):
        loader.read(x)
        return lambda span: hits.append(span)

    streams = MultiStream.create(backend, "s")
    Container("c", x, loading).run(streams, view=DataView.BOUNDARY)
    assert hits == []  # MemSet has no boundary cells
    assert all(len(q) == 0 for q in streams)


def test_run_on_rank_subset(backend):
    x = MemSet(backend, [4, 4], np.float64)
    y = MemSet(backend, [4, 4], np.float64)
    x.fill(1.0)
    streams = MultiStream.create(backend, "s")
    axpy_container(1.0, x, y).run(streams, ranks=[1])
    assert np.all(y.partition(0).array == 0.0)
    assert np.all(y.partition(1).array == 1.0)


def test_cost_estimate_counts_reads_and_writes(backend):
    x = MemSet(backend, [100, 100], np.float64)
    y = MemSet(backend, [100, 100], np.float64)
    c = axpy_container(1.0, x, y)
    cost = c.cost_for(0, DataView.STANDARD)
    # read x (8) + read y (8) + write y (8) per cell, 100 cells
    assert cost.bytes_moved == pytest.approx(100 * 24)
