"""Conjugate-gradient driver behaviour beyond the Poisson/elastic suites."""

import numpy as np
import pytest

from repro.core import ops
from repro.domain import STENCIL_7PT, DenseGrid
from repro.skeleton import Occ
from repro.solvers import ConjugateGradient
from repro.solvers.poisson import make_neg_laplacian
from repro.system import Backend


def setup(ndev=2, shape=(8, 6, 6), occ=Occ.STANDARD, op=make_neg_laplacian):
    backend = Backend.sim_gpus(ndev)
    grid = DenseGrid(backend, shape, stencils=[STENCIL_7PT])
    b = grid.new_field("b")
    x = grid.new_field("x")
    cg = ConjugateGradient(grid, op, b, x, occ=occ)
    return grid, b, x, cg


def test_non_positive_definite_operator_detected():
    def plain_laplacian(grid, u, out, name):
        # the raw Laplacian (not its negation) is negative semi-definite on
        # the Dirichlet subspace: CG must refuse it
        def loading(loader):
            up = loader.read(u, stencil=True)
            op_ = loader.write(out)

            def compute(span):
                acc = -6.0 * up.view(span)
                for off in STENCIL_7PT:
                    if off != (0, 0, 0):
                        acc = acc + up.neighbour(span, off)
                op_.view(span)[...] = acc

            return compute

        return grid.new_container(name, loading)

    grid, b, x, cg = setup(op=plain_laplacian)
    b.fill(1.0)
    with pytest.raises(RuntimeError, match="positive definite"):
        cg.solve(max_iterations=5)


def test_warm_start_converges_faster():
    grid, b, x, cg = setup()
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(grid.shape)
    b.init(lambda z, y, xx: vals[z, y, xx])
    res_cold = cg.solve(max_iterations=300, tolerance=1e-10)
    assert res_cold.converged
    # x now holds the solution: restarting from it converges immediately
    grid2, b2, x2, cg2 = setup()
    b2.init(lambda z, y, xx: vals[z, y, xx])
    x2.init(lambda z, y, xx: 0.0)
    sol = x.to_numpy()[0]
    x2.init(lambda z, y, xx: sol[z, y, xx])
    res_warm = cg2.solve(max_iterations=300, tolerance=1e-10)
    assert res_warm.iterations <= 1


def test_max_iterations_respected():
    grid, b, x, cg = setup(shape=(12, 10, 10))
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.shape)
    b.init(lambda z, y, xx: vals[z, y, xx])
    res = cg.solve(max_iterations=3, tolerance=1e-30)
    assert not res.converged
    assert res.iterations == 3
    assert len(res.residual_norms) == 4  # initial + 3


def test_residual_history_strictly_tracked():
    grid, b, x, cg = setup()
    b.fill(1.0)
    res = cg.solve(max_iterations=200, tolerance=1e-10)
    assert res.converged
    assert res.residual_norms[-1] <= 1e-10
    assert res.residual_norms[0] > res.residual_norms[-1]


def test_divergence_raises_typed_error_with_history_tail():
    from repro.resilience import SolverDiverged

    grid, b, x, cg = setup()
    vals = np.ones(grid.shape)
    vals[0, 0, 0] = np.nan  # a poisoned right-hand side diverges immediately
    b.init(lambda z, y, xx: vals[z, y, xx])
    with pytest.raises(SolverDiverged) as exc_info:
        cg.solve(max_iterations=10)
    err = exc_info.value
    assert err.iteration == 0
    assert len(err.residual_tail) >= 1
    assert not np.isfinite(err.residual_tail[-1])
    assert cg.result.diverged


def test_diverged_property_false_on_clean_solve():
    grid, b, x, cg = setup()
    b.fill(1.0)
    res = cg.solve(max_iterations=200, tolerance=1e-10)
    assert res.converged
    assert not res.diverged


def test_mid_iteration_divergence_detected():
    from repro.resilience import SolverDiverged

    grid, b, x, cg = setup()
    b.fill(1.0)
    cg.begin(tolerance=1e-10)
    cg.iterate()  # beta is now nonzero: stale p is blended, not overwritten
    # poison the search direction between iterations: the next curvature
    # read turns non-finite and must surface as SolverDiverged, not loop
    poisoned = cg.p.to_numpy()
    poisoned[0, 0, 0, 0] = np.nan
    cg.p.load_numpy(poisoned)
    with pytest.raises(SolverDiverged):
        for _ in range(5):
            cg.iterate()
    assert cg.result.diverged


def test_begin_restarts_from_current_iterate():
    grid, b, x, cg = setup()
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(grid.shape)
    b.init(lambda z, y, xx: vals[z, y, xx])
    cg.begin(tolerance=1e-10)
    for _ in range(5):
        cg.iterate()
    # restart mid-solve (the recovery entry point): still converges
    cg.begin(tolerance=1e-10)
    for _ in range(300):
        if cg.iterate():
            break
    assert cg.result.converged
    # checkpoints carry the whole Krylov state, so a restore resumes the
    # trajectory; restarting from the iterate alone stays available as begin()
    assert cg.checkpoint_fields() == [cg.x, cg.r, cg.p]


@pytest.mark.parametrize("occ", [Occ.NONE, Occ.TWO_WAY])
def test_iteration_makespan_scales_with_grid(occ):
    small = setup(shape=(16, 16, 16), occ=occ)[3].iteration_makespan()
    # virtual large grid
    backend = Backend.sim_gpus(2)
    grid = DenseGrid(backend, (64, 64, 64), stencils=[STENCIL_7PT], virtual=True)
    b, x = grid.new_field("b"), grid.new_field("x")
    big = ConjugateGradient(grid, make_neg_laplacian, b, x, occ=occ).iteration_makespan()
    assert big > small


def test_host_reads_are_built_once_per_solver():
    """Both host readers come with the solver and gather through the table
    their first read built: a second ``begin()`` (a restart, a recovery)
    builds neither a reader nor a gather."""
    grid, b, x, cg = setup(ndev=3)
    b.fill(1.0)
    readers = (cg._pq_read, cg._rr_read)
    cg.begin(1e-30)
    cg.iterate()
    gathers = [read._gather for read in readers]
    assert all(gathers)
    cg.begin(1e-30)
    cg.iterate()
    assert cg._pq_read is readers[0] and cg._rr_read is readers[1]
    assert all(read._gather is gather for read, gather in zip(readers, gathers))
