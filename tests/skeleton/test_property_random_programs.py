"""Randomised differential testing of the whole Skeleton pipeline.

Hypothesis generates random container programs (maps, stencils, reduces
over a small field pool); each program must produce bitwise-identical
fields and sums on 1 device and on 3 devices at every OCC level, on dense
and sparse grids, and the generated schedule must be valid (stream/event
wiring alone enforces all dependencies).
This is the strongest correctness statement in the suite: the paper's
claim that users can write sequential code and trust the orchestrator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScalarResult
from repro.domain import STENCIL_7PT, DenseGrid, SparseGrid
from repro.sanitizer import sanitize_skeleton
from repro.sets import Access, Pattern
from repro.sim import sim_replay
from repro.skeleton import Occ, Skeleton, check_trace_dependencies
from repro.system import Backend

NUM_FIELDS = 3
SHAPE = (9, 3, 3)

# op encoding: ("map", src, dst, coeff) | ("stencil", src, dst) |
# ("reduce", a, b) | ("hybrid", a) — the last stencil-reads AND reduces
# in one container (the class that once lost half its sum to an OCC split)
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
    return _run(DenseGrid(backend, SHAPE, stencils=[STENCIL_7PT]), program, occ, mode)


def _run(grid, program, occ, mode):
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
    sk = Skeleton(grid.backend, containers, occ=occ)
    result = sk.run(mode=mode)
    outs = [f.to_numpy() for f in fields]
    sums = [ScalarResult(p).value() for p in partials]
    return outs, sums, sk, result


def _assert_bitwise(ref, got):
    for a, b in zip(ref[0], got[0]):
        assert a.tobytes() == b.tobytes()
    assert np.array(ref[1]).tobytes() == np.array(got[1]).tobytes()


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
            acc.deposit_sums(span, (v * v)[np.newaxis])

        return compute

    return grid.new_container(name, loading)


def _reduce(grid, name, x, y, partial):
    def loading(loader):
        xp = loader.read(x)
        yp = loader.read(y)
        acc = loader.reduce_target(partial)

        def compute(span):
            acc.deposit_sums(span, (xp.view(span) * yp.view(span))[np.newaxis])

        return compute

    return grid.new_container(name, loading)


@settings(max_examples=20, deadline=None)
@given(program=program_strategy, occ=st.sampled_from(list(Occ)))
def test_random_programs_match_single_device(program, occ):
    _assert_bitwise(build_and_run(program, 1, Occ.NONE), build_and_run(program, 3, occ))


@settings(max_examples=10, deadline=None)
@given(program=program_strategy, occ=st.sampled_from(list(Occ)))
def test_random_programs_parallel_replay_matches_and_sanitizes_clean(program, occ):
    """Every generated program must also survive the two strongest dynamic
    checks: a threaded (parallel-engine) replay producing bitwise-equal
    results, and the race sanitizer reporting zero violations on it."""
    got = build_and_run(program, 3, occ, mode="parallel")
    _assert_bitwise(build_and_run(program, 1, Occ.NONE), got)
    assert sanitize_skeleton(got[2], mode="parallel", runs=1) == []


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
    rng = np.random.default_rng(seed)
    mask = rng.random(SHAPE) < 0.75
    mask[::2] |= True
    try:
        grid = SparseGrid(Backend.sim_gpus(ndev), mask=mask, stencils=[STENCIL_7PT])
    except ValueError:
        return None
    return _run(grid, program, occ, mode)


@settings(max_examples=12, deadline=None)
@given(program=program_strategy, occ=st.sampled_from(list(Occ)), seed=st.integers(0, 1000))
def test_random_programs_on_sparse_grids_match(program, occ, seed):
    ref = build_and_run_sparse(program, 1, Occ.NONE, seed)
    got = build_and_run_sparse(program, 3, occ, seed)
    if ref is None or got is None:
        return
    _assert_bitwise(ref, got)


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
    _assert_bitwise(ref, got)
    assert sanitize_skeleton(got[2], mode="parallel", runs=1) == []
