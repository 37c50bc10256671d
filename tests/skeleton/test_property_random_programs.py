"""Randomised differential testing of the whole Skeleton pipeline.

Hypothesis generates random container programs (maps, stencils, reduces
over a small field pool); each program must produce identical results on
1 device and on 3 devices at every OCC level, and the generated schedule
must be valid (stream/event wiring alone enforces all dependencies).
This is the strongest correctness statement in the suite: the paper's
claim that users can write sequential code and trust the orchestrator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domain import STENCIL_7PT, DenseGrid
from repro.sanitizer import sanitize_skeleton
from repro.sets import Access, Pattern
from repro.sim import sim_replay
from repro.skeleton import Occ, Skeleton, check_trace_dependencies
from repro.system import Backend

NUM_FIELDS = 3
SHAPE = (9, 3, 3)

# op encoding: ("map", src, dst, coeff) | ("stencil", src, dst) |
# ("reduce", a, b) | ("hybrid", a) — the last stencil-reads AND reduces
# in one container (the class that once broke OCC's assign/accumulate)
op_strategy = st.one_of(
    st.tuples(
        st.just("map"),
        st.integers(0, NUM_FIELDS - 1),
        st.integers(0, NUM_FIELDS - 1),
        st.floats(-1.5, 1.5, allow_nan=False),
    ),
    st.tuples(st.just("stencil"), st.integers(0, NUM_FIELDS - 1), st.integers(0, NUM_FIELDS - 1)),
    st.tuples(st.just("reduce"), st.integers(0, NUM_FIELDS - 1), st.integers(0, NUM_FIELDS - 1)),
    st.tuples(st.just("hybrid"), st.integers(0, NUM_FIELDS - 1)),
)

program_strategy = st.lists(op_strategy, min_size=1, max_size=6)


def build_and_run(program, ndev, occ, mode="serial"):
    backend = Backend.sim_gpus(ndev)
    grid = DenseGrid(backend, SHAPE, stencils=[STENCIL_7PT])
    fields = [grid.new_field(f"f{i}") for i in range(NUM_FIELDS)]
    for i, f in enumerate(fields):
        f.init(lambda z, y, x, i=i: np.sin(z + i) + 0.1 * x - 0.05 * y * i)
    partials = []
    containers = []
    for k, op in enumerate(program):
        if op[0] == "map":
            _, a, b, c = op
            containers.append(_map(grid, f"map{k}", fields[a], fields[b], c))
        elif op[0] == "stencil":
            _, a, b = op
            if a == b:
                b = (a + 1) % NUM_FIELDS  # stencil writes must not alias reads
            containers.append(_stencil(grid, f"st{k}", fields[a], fields[b]))
        elif op[0] == "reduce":
            _, a, b = op
            partial = grid.new_reduce_partial(f"p{k}")
            partials.append(partial)
            containers.append(_reduce(grid, f"red{k}", fields[a], fields[b], partial))
        else:  # hybrid: stencil-read + reduce in one container
            _, a = op
            partial = grid.new_reduce_partial(f"p{k}")
            partials.append(partial)
            containers.append(_hybrid(grid, f"hyb{k}", fields[a], partial))
    sk = Skeleton(backend, containers, occ=occ)
    result = sk.run(mode=mode)
    outs = [f.to_numpy() for f in fields]
    sums = [float(sum(p.partition(r).array[0] for r in range(ndev))) for p in partials]
    return outs, sums, sk, result


def _map(grid, name, x, y, c):
    def loading(loader):
        xp = loader.read(x)
        yp = loader.load(y, Access.READ_WRITE, Pattern.MAP)

        def compute(span):
            yv = yp.view(span)
            yv[...] = c * xp.view(span) + 0.5 * yv

        return compute

    return grid.new_container(name, loading)


def _stencil(grid, name, x, y):
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

    return grid.new_container(name, loading)


def _hybrid(grid, name, x, partial):
    """Stencil-read + reduce target in one container (hybrid pattern)."""

    def loading(loader):
        xp = loader.read(x, stencil=True)
        acc = loader.reduce_target(partial)

        def compute(span):
            v = -6.0 * xp.view(span)
            for off in STENCIL_7PT:
                if off != (0, 0, 0):
                    v = v + xp.neighbour(span, off)
            acc.deposit(float(np.sum(v * v)))

        return compute

    return grid.new_container(name, loading)


def _reduce(grid, name, x, y, partial):
    def loading(loader):
        xp = loader.read(x)
        yp = loader.read(y)
        acc = loader.reduce_target(partial)

        def compute(span):
            acc.deposit(float(np.sum(xp.view(span) * yp.view(span))))

        return compute

    return grid.new_container(name, loading)


@settings(max_examples=20, deadline=None)
@given(program=program_strategy, occ=st.sampled_from(list(Occ)))
def test_random_programs_match_single_device(program, occ):
    ref_outs, ref_sums, _, _ = build_and_run(program, 1, Occ.NONE)
    outs, sums, sk, result = build_and_run(program, 3, occ)
    for a, b in zip(ref_outs, outs):
        np.testing.assert_allclose(a, b, atol=1e-10)
    np.testing.assert_allclose(ref_sums, sums, rtol=1e-10)


@settings(max_examples=10, deadline=None)
@given(program=program_strategy, occ=st.sampled_from(list(Occ)))
def test_random_programs_parallel_replay_matches_and_sanitizes_clean(program, occ):
    """Every generated program must also survive the two strongest dynamic
    checks: a threaded (parallel-engine) replay producing bitwise-equal
    results, and the race sanitizer reporting zero violations on it."""
    ref_outs, ref_sums, _, _ = build_and_run(program, 1, Occ.NONE)
    outs, sums, sk, _ = build_and_run(program, 3, occ, mode="parallel")
    for a, b in zip(ref_outs, outs):
        np.testing.assert_allclose(a, b, atol=1e-10)
    np.testing.assert_allclose(ref_sums, sums, rtol=1e-10)
    assert sanitize_skeleton(sk, mode="parallel", runs=1) == []


@settings(max_examples=15, deadline=None)
@given(program=program_strategy, occ=st.sampled_from(list(Occ)))
def test_random_programs_have_valid_schedules(program, occ):
    _, _, sk, _ = build_and_run(program, 3, occ)
    rec = sk.record()
    trace = sim_replay(rec, sk.backend.machine)
    violations = check_trace_dependencies(rec, trace)
    assert violations == []


def build_and_run_sparse(program, ndev, occ, seed, mode="serial"):
    """Same random programs over an element-sparse free-form domain."""
    from repro.domain import SparseGrid

    rng = np.random.default_rng(seed)
    mask = rng.random(SHAPE) < 0.75
    mask[::2] |= True
    backend = Backend.sim_gpus(ndev)
    try:
        grid = SparseGrid(backend, mask=mask, stencils=[STENCIL_7PT])
    except ValueError:
        return None
    fields = [grid.new_field(f"f{i}") for i in range(NUM_FIELDS)]
    for i, f in enumerate(fields):
        f.init(lambda z, y, x, i=i: np.sin(z + i) + 0.1 * x - 0.05 * y * i)
    containers = []
    partials = []
    for k, op in enumerate(program):
        if op[0] == "map":
            _, a, b, c = op
            containers.append(_map(grid, f"map{k}", fields[a], fields[b], c))
        elif op[0] == "stencil":
            _, a, b = op
            if a == b:
                b = (a + 1) % NUM_FIELDS
            containers.append(_stencil(grid, f"st{k}", fields[a], fields[b]))
        elif op[0] == "reduce":
            _, a, b = op
            partial = grid.new_reduce_partial(f"p{k}")
            partials.append(partial)
            containers.append(_reduce(grid, f"red{k}", fields[a], fields[b], partial))
        else:  # hybrid: stencil-read + reduce in one container
            _, a = op
            partial = grid.new_reduce_partial(f"p{k}")
            partials.append(partial)
            containers.append(_hybrid(grid, f"hyb{k}", fields[a], partial))
    sk = Skeleton(backend, containers, occ=occ)
    sk.run(mode=mode)
    outs = [f.to_numpy() for f in fields]
    sums = [float(sum(p.partition(r).array[0] for r in range(ndev))) for p in partials]
    return outs, sums, sk


@settings(max_examples=12, deadline=None)
@given(program=program_strategy, occ=st.sampled_from(list(Occ)), seed=st.integers(0, 1000))
def test_random_programs_on_sparse_grids_match(program, occ, seed):
    ref = build_and_run_sparse(program, 1, Occ.NONE, seed)
    got = build_and_run_sparse(program, 3, occ, seed)
    if ref is None or got is None:
        return
    for a, b in zip(ref[0], got[0]):
        np.testing.assert_allclose(a, b, atol=1e-10)
    np.testing.assert_allclose(ref[1], got[1], rtol=1e-10)


@settings(max_examples=8, deadline=None)
@given(program=program_strategy, occ=st.sampled_from(list(Occ)), seed=st.integers(0, 1000))
def test_random_sparse_programs_parallel_replay_and_sanitizer(program, occ, seed):
    """The sparse-grid program pool under the same dynamic checks: a
    parallel replay must match the 1-device serial reference, and the
    sanitizer must find nothing to complain about."""
    ref = build_and_run_sparse(program, 1, Occ.NONE, seed)
    got = build_and_run_sparse(program, 3, occ, seed, mode="parallel")
    if ref is None or got is None:
        return
    for a, b in zip(ref[0], got[0]):
        np.testing.assert_allclose(a, b, atol=1e-10)
    np.testing.assert_allclose(ref[1], got[1], rtol=1e-10)
    assert sanitize_skeleton(got[2], mode="parallel", runs=1) == []
