"""Microbenchmarks of the framework's own overheads (wall clock).

A framework paper lives or dies on its overhead story — these pin down
where this implementation spends host time: graph compilation, one
skeleton execution (per-launch overhead), a single container launch, a
halo exchange, and DES replay throughput.  Run under pytest-benchmark
for statistically meaningful numbers; useful for performance-regression
tracking of the framework itself.
"""

import numpy as np
import pytest

from repro.core import Backend, DenseGrid, Occ, Skeleton, ops
from repro.domain import STENCIL_7PT
from repro.sets import MultiStream
from repro.sim import simulate

# x <- x + ALPHA * laplacian(x) is an explicit heat step, stable for
# ALPHA <= 1/6: the timed skeleton runs hundreds of rounds on the same
# fields, and a growing iterate would overflow and time inf/nan arithmetic
ALPHA = 0.05


def laplacian(grid, x, y):
    def loading(loader):
        xp = loader.read(x, stencil=True)
        yp = loader.write(y)

        def compute(span):
            acc = -6.0 * xp.view(span)
            for off in STENCIL_7PT:
                if off != (0, 0, 0):
                    acc = acc + xp.neighbour(span, off)
            yp.view(span)[...] = acc

        return compute

    return grid.new_container("laplace", loading)


@pytest.fixture
def env():
    backend = Backend.sim_gpus(4)
    grid = DenseGrid(backend, (16, 8, 8), stencils=[STENCIL_7PT])
    x, y = grid.new_field("x"), grid.new_field("y")
    x.fill(1.0)
    y.fill(2.0)
    x.sync_halo_now()
    return backend, grid, x, y


def test_micro_skeleton_compile(benchmark, env):
    backend, grid, x, y = env
    partial = grid.new_reduce_partial("p")

    def compile_skeleton():
        return Skeleton(
            backend,
            [ops.axpy(grid, ALPHA, y, x), laplacian(grid, x, y), ops.dot(grid, x, y, partial)],
            occ=Occ.TWO_WAY,
        )

    sk = benchmark(compile_skeleton)
    assert sk.plan.num_streams >= 1


def test_micro_skeleton_execute(benchmark, env):
    backend, grid, x, y = env
    partial = grid.new_reduce_partial("p")
    sk = Skeleton(
        backend,
        [ops.axpy(grid, ALPHA, y, x), laplacian(grid, x, y), ops.dot(grid, x, y, partial)],
        occ=Occ.TWO_WAY,
    )
    result = benchmark(sk.run)
    assert result.stats.num_kernels > 0


def test_micro_container_launch(benchmark, env):
    backend, grid, x, y = env
    c = ops.axpy(grid, 0.5, y, x)
    streams = MultiStream.create(backend, "s")
    benchmark(lambda: c.run(streams))


def test_micro_halo_exchange(benchmark, env):
    backend, grid, x, y = env
    benchmark(x.sync_halo_now)


def test_micro_des_throughput(benchmark, env):
    backend, grid, x, y = env
    partial = grid.new_reduce_partial("p")
    sk = Skeleton(
        backend,
        [ops.axpy(grid, ALPHA, y, x), laplacian(grid, x, y), ops.dot(grid, x, y, partial)],
        occ=Occ.TWO_WAY,
    )
    result = sk.record()
    trace = benchmark(lambda: simulate(result.queues, backend.machine))
    assert trace.makespan > 0


def test_micro_graph_and_field_setup(benchmark):
    backend = Backend.sim_gpus(4)

    def build():
        grid = DenseGrid(backend, (16, 8, 8), stencils=[STENCIL_7PT])
        return grid.new_field("x")

    f = benchmark(build)
    assert f.buffers
