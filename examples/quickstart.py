"""Quickstart: the paper's programming model in ~60 lines of user code.

Builds the Fig 4a example — a map (axpy), a stencil (Laplacian), and a
reduction (dot product) — runs it unchanged on 1 and 4 simulated GPUs at
two OCC levels, and shows the simulated execution timeline.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import Backend, DenseGrid, Occ, ScalarResult, Skeleton, ops
from repro.domain import STENCIL_7PT


def laplacian(grid, x, y):
    """y <- 7-point Laplacian of x: a user-defined stencil Container."""

    def loading(loader):
        xp = loader.read(x, stencil=True)  # declares the stencil pattern
        yp = loader.write(y)

        def compute(span):
            acc = -6.0 * xp.view(span)
            for off in STENCIL_7PT:
                if off != (0, 0, 0):
                    acc = acc + xp.neighbour(span, off)
            yp.view(span)[...] = acc

        return compute

    return grid.new_container("laplace", loading)


def run(num_gpus: int, occ: Occ):
    backend = Backend.sim_gpus(num_gpus)
    grid = DenseGrid(backend, (32, 32, 32), stencils=[STENCIL_7PT])

    x = grid.new_field("x")
    y = grid.new_field("y")
    x.init(lambda z, j, i: np.sin(0.2 * z) + 0.1 * i)
    y.init(lambda z, j, i: np.cos(0.3 * j))

    partial = grid.new_reduce_partial("dot")
    # sequential-looking application: the Skeleton handles distribution,
    # halo exchange, and overlap of computation and communication
    sk = Skeleton(
        backend,
        [ops.axpy(grid, 0.5, y, x), laplacian(grid, x, y), ops.dot(grid, x, y, partial)],
        occ=occ,
    )
    sk.run()
    return ScalarResult(partial).value(), sk


def main():
    print("same user code, different back ends and OCC levels:\n")
    reference = None
    for num_gpus in (1, 4):
        for occ in (Occ.NONE, Occ.TWO_WAY):
            value, sk = run(num_gpus, occ)
            if reference is None:
                reference = value
            # per-slice partials: the same bits on any device count and OCC level
            status = "ok" if value == reference else "MISMATCH"
            print(f"  {num_gpus} GPU(s), occ={occ.value:<17}  dot = {value:+.6e}   [{status}]")
            assert value == reference

    print("\nsimulated timeline on 4 GPUs with two-way-extended OCC:")
    _, sk = run(4, Occ.TWO_WAY)
    print(sk.trace().gantt(90))
    print(f"\nstreams used: {sk.stats.num_streams}, events: {sk.stats.num_events}, "
          f"kernels: {sk.stats.num_kernels}, copies: {sk.stats.num_copies}")


if __name__ == "__main__":
    main()
