"""The paper's running example (Fig 4/5/6): apxpy -> laplace -> dot."""

import numpy as np
import pytest

from repro.sets import Pattern
from repro.skeleton import (
    DepKind,
    NodeKind,
    Occ,
    apply_occ,
    build_multi_gpu_graph,
    Plan,
    Skeleton,
)

from .conftest import combine_partial


def test_fig4b_dependency_graph(paper_example):
    backend, grid, x, y, partial, containers = paper_example
    g = build_multi_gpu_graph(containers, backend)
    g.local_transitive_reduction()
    axpy, lap, dot = g.find("axpy"), g.find("laplace"), g.find("dot")
    halo = g.find("halo(X)")

    # operation types (node flags in the paper)
    assert axpy.pattern is Pattern.MAP
    assert lap.pattern is Pattern.STENCIL
    assert dot.pattern is Pattern.REDUCE
    assert halo.kind is NodeKind.HALO

    # apxpy -> laplace carries both RaW (on X) and WaR (on Y)
    kinds, _ = g.edge_info(axpy, lap)
    assert {DepKind.RAW, DepKind.WAR} <= kinds
    # laplace -> dot carries RaW (on Y)
    kinds, _ = g.edge_info(lap, dot)
    assert DepKind.RAW in kinds


def test_fig4c_halo_insertion_and_redundant_edge_removal(paper_example):
    backend, grid, x, y, partial, containers = paper_example
    g = build_multi_gpu_graph(containers, backend)
    g.local_transitive_reduction()
    axpy, lap, dot = g.find("axpy"), g.find("laplace"), g.find("dot")
    halo = g.find("halo(X)")
    # the halo update is fed by the writer of X and feeds the stencil
    assert g.has_edge(axpy, halo)
    assert g.has_edge(halo, lap)
    # the apxpy -> dot dependency is removed as redundant
    assert not g.has_edge(axpy, dot)


def test_no_halo_nodes_on_single_device(paper_example_single=None):
    from repro.domain import STENCIL_7PT, DenseGrid
    from repro.system import Backend
    from .conftest import make_axpy, make_dot, make_laplace

    backend = Backend.sim_gpus(1)
    grid = DenseGrid(backend, (8, 4, 4), stencils=[STENCIL_7PT])
    x, y = grid.new_field("X"), grid.new_field("Y")
    partial = grid.new_reduce_partial("p")
    g = build_multi_gpu_graph(
        [make_axpy(grid, 1.0, x, y), make_laplace(grid, x, y), make_dot(grid, x, y, partial)], backend
    )
    assert all(n.kind is NodeKind.COMPUTE for n in g.nodes)


def test_halo_reused_when_fresh(paper_example):
    """Two stencil reads with no intervening write share one halo update."""
    backend, grid, x, y, partial, containers = paper_example
    from .conftest import make_laplace

    y2 = grid.new_field("Y2")
    lap2 = make_laplace(grid, x, y2)
    lap2.name = "laplace2"
    g = build_multi_gpu_graph(containers[:2] + [lap2], backend)
    halos = [n for n in g.nodes if n.kind is NodeKind.HALO]
    assert len(halos) == 1
    assert g.has_edge(halos[0], g.find("laplace2"))


def test_halo_reinserted_after_write(paper_example):
    """A write to the field makes its halo stale again."""
    backend, grid, x, y, partial, containers = paper_example
    from .conftest import make_axpy, make_laplace

    axpy2 = make_axpy(grid, 2.0, x, y)
    axpy2.name = "axpy2"
    lap2 = make_laplace(grid, x, grid.new_field("Y2"))
    lap2.name = "laplace2"
    g = build_multi_gpu_graph(containers[:2] + [axpy2, lap2], backend)
    halos = [n for n in g.nodes if n.kind is NodeKind.HALO]
    assert len(halos) == 2


def test_fig4d_two_way_extended_graph(paper_example):
    backend, grid, x, y, partial, containers = paper_example
    g = build_multi_gpu_graph(containers, backend)
    report = apply_occ(g, Occ.TWO_WAY)
    g.local_transitive_reduction()

    assert report.split_stencils == ["laplace"]
    assert report.split_pre_maps == ["axpy"]
    assert report.split_post_nodes == ["dot"]

    names = {n.name for n in g.nodes}
    assert names == {
        "axpy.internal",
        "axpy.boundary",
        "halo(X)",
        "laplace.internal",
        "laplace.boundary",
        "dot.internal",
        "dot.boundary",
    }

    halo = g.find("halo(X)")
    # only the boundary map feeds the halo; only the boundary stencil reads it
    assert {p.name for p in g.parents(halo)} == {"axpy.boundary"}
    assert {c.name for c in g.children(halo)} == {"laplace.boundary"}
    # internal stencil depends on both map halves (internal cells read
    # locally-owned boundary cells), but never on the halo
    lap_int = g.find("laplace.internal")
    assert {p.name for p in g.parents(lap_int)} == {"axpy.internal", "axpy.boundary"}
    # the reduction split: the halves fill disjoint slots of the partial,
    # so only the launch-order hint links them
    dot_int, dot_bnd = g.find("dot.internal"), g.find("dot.boundary")
    assert g.edge_info(dot_int, dot_bnd)[0] == {DepKind.SCHED}
    # scheduling hints exist (orange arrows)
    hints = {(a.name, b.name) for a, b in g.hint_edges()}
    assert ("axpy.boundary", "axpy.internal") in hints
    assert ("laplace.internal", "laplace.boundary") in hints


def test_fig5_bfs_levels_and_stream_count(paper_example):
    backend, grid, x, y, partial, containers = paper_example
    g = build_multi_gpu_graph(containers, backend)
    apply_occ(g, Occ.TWO_WAY)
    g.local_transitive_reduction()
    levels = [sorted(n.name for n in lvl) for lvl in g.bfs_levels()]
    assert levels == [
        ["axpy.boundary", "axpy.internal"],
        ["halo(X)", "laplace.internal"],
        ["dot.internal", "laplace.boundary"],
        ["dot.boundary"],
    ]
    plan = Plan(g, backend)
    assert plan.num_streams == 2


def test_fig6_task_order_respects_hints(paper_example):
    backend, grid, x, y, partial, containers = paper_example
    g = build_multi_gpu_graph(containers, backend)
    apply_occ(g, Occ.TWO_WAY)
    g.local_transitive_reduction()
    plan = Plan(g, backend)
    order = [n.name for n in plan.order]
    # boundary map launches before internal map (hint) so the halo can start early
    assert order.index("axpy.boundary") < order.index("axpy.internal")
    # internal stencil and internal reduce launch before the boundary stencil's sync
    assert order.index("laplace.internal") < order.index("laplace.boundary")
    assert order.index("dot.internal") < order.index("dot.boundary")


@pytest.mark.parametrize("occ", list(Occ))
def test_functional_equivalence_across_occ_and_devices(occ):
    """The same user code gives identical results on 1 and 3 devices, any OCC."""
    from repro.domain import STENCIL_7PT, DenseGrid
    from repro.system import Backend
    from .conftest import make_axpy, make_dot, make_laplace

    results = {}
    for ndev in (1, 3):
        backend = Backend.sim_gpus(ndev)
        grid = DenseGrid(backend, (12, 4, 4), stencils=[STENCIL_7PT])
        x, y = grid.new_field("X"), grid.new_field("Y")
        x.init(lambda z, yy, xx: np.sin(z * 1.0) + xx * 0.1)
        y.init(lambda z, yy, xx: np.cos(yy * 1.0) + z * 0.01)
        partial = grid.new_reduce_partial("p")
        sk = Skeleton(
            backend,
            [make_axpy(grid, 0.5, x, y), make_laplace(grid, x, y), make_dot(grid, x, y, partial)],
            occ=occ,
        )
        sk.run()
        results[ndev] = (x.to_numpy(), y.to_numpy(), combine_partial(partial))

    x1, y1, d1 = results[1]
    x3, y3, d3 = results[3]
    assert np.array_equal(x1, x3)
    assert np.array_equal(y1, y3)
    assert d1 == d3


@pytest.mark.parametrize("occ", list(Occ))
def test_schedule_validity_all_occ_levels(paper_example, occ):
    """Stream/event wiring alone must enforce every data dependency."""
    backend, grid, x, y, partial, containers = paper_example
    sk = Skeleton(backend, containers, occ=occ)
    sk.validate()


def test_repeated_runs_accumulate_correctly(paper_example):
    backend, grid, x, y, partial, containers = paper_example
    sk = Skeleton(backend, containers, occ=Occ.STANDARD)
    sk.run()
    first = combine_partial(partial)
    sk.run()
    second = combine_partial(partial)
    # state evolved (axpy is applied again), so the dot product changes
    assert first != second


def test_duplicate_container_names_rejected(paper_example):
    backend, grid, x, y, partial, containers = paper_example
    with pytest.raises(ValueError, match="unique"):
        Skeleton(backend, [containers[0], containers[0]])


def test_empty_skeleton_rejected(paper_example):
    backend = paper_example[0]
    with pytest.raises(ValueError):
        Skeleton(backend, [])
