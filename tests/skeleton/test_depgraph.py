import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets import Container, MemSet
from repro.skeleton import DepKind, NodeKind, build_dependency_graph, containers_to_nodes
from repro.skeleton.depgraph import DepGraph, GraphNode, Scope
from repro.system import Backend


@pytest.fixture
def backend():
    return Backend.sim_gpus(2)


def mk(backend, name, reads=(), writes=()):
    """Container reading/writing the given MemSets (map pattern)."""
    first = (list(reads) + list(writes))[0]

    def loading(loader):
        for d in reads:
            loader.read(d)
        for d in writes:
            loader.write(d)
        return lambda span: None

    return Container(name, first, loading)


def test_raw_dependency(backend):
    a = MemSet(backend, [4, 4], np.float64, name="A")
    w = mk(backend, "w", writes=[a])
    r = mk(backend, "r", reads=[a])
    g = build_dependency_graph(containers_to_nodes([w, r]))
    (edge,) = list(g.data_edges())
    assert edge[0].name == "w" and edge[1].name == "r"
    assert DepKind.RAW in edge[2]


def test_war_dependency(backend):
    a = MemSet(backend, [4, 4], np.float64, name="A")
    r = mk(backend, "r", reads=[a])
    w = mk(backend, "w", writes=[a])
    g = build_dependency_graph(containers_to_nodes([r, w]))
    (edge,) = list(g.data_edges())
    assert DepKind.WAR in edge[2]


def test_waw_dependency(backend):
    a = MemSet(backend, [4, 4], np.float64, name="A")
    w1 = mk(backend, "w1", writes=[a])
    w2 = mk(backend, "w2", writes=[a])
    g = build_dependency_graph(containers_to_nodes([w1, w2]))
    (edge,) = list(g.data_edges())
    assert DepKind.WAW in edge[2]


def test_independent_containers_have_no_edges(backend):
    a = MemSet(backend, [4, 4], np.float64, name="A")
    b = MemSet(backend, [4, 4], np.float64, name="B")
    g = build_dependency_graph(containers_to_nodes([mk(backend, "1", writes=[a]), mk(backend, "2", writes=[b])]))
    assert list(g.data_edges()) == []


def test_transitive_reduction_drops_redundant_edge(backend):
    a = MemSet(backend, [4, 4], np.float64, name="A")
    b = MemSet(backend, [4, 4], np.float64, name="B")
    n1 = mk(backend, "n1", writes=[a])
    n2 = mk(backend, "n2", reads=[a], writes=[b])
    n3 = mk(backend, "n3", reads=[a, b])
    g = build_dependency_graph(containers_to_nodes([n1, n2, n3]), reduce=True)
    # n1->n3 (RaW on A) is implied by n1->n2->n3
    assert not g.has_edge(g.find("n1"), g.find("n3"))
    assert g.has_edge(g.find("n1"), g.find("n2"))
    assert g.has_edge(g.find("n2"), g.find("n3"))


def test_bfs_levels_group_independent_nodes(backend):
    a = MemSet(backend, [4, 4], np.float64, name="A")
    b = MemSet(backend, [4, 4], np.float64, name="B")
    n1 = mk(backend, "n1", writes=[a])
    n2 = mk(backend, "n2", writes=[b])
    n3 = mk(backend, "n3", reads=[a, b])
    g = build_dependency_graph(containers_to_nodes([n1, n2, n3]))
    levels = g.bfs_levels()
    assert [sorted(n.name for n in lvl) for lvl in levels] == [["n1", "n2"], ["n3"]]


def test_rw_same_container_reads_and_writes(backend):
    a = MemSet(backend, [4, 4], np.float64, name="A")

    def loading(loader):
        loader.read_write(a)
        return lambda span: None

    c1 = Container("c1", a, loading)
    c2 = Container("c2", a, loading)
    g = build_dependency_graph(containers_to_nodes([c1, c2]))
    (edge,) = list(g.data_edges())
    assert {DepKind.RAW, DepKind.WAW} <= edge[2] or {DepKind.RAW, DepKind.WAR} <= edge[2]


def test_node_kind_and_pattern(paper_example=None, backend=None):
    be = Backend.sim_gpus(2)
    a = MemSet(be, [4, 4], np.float64, name="A")
    node = containers_to_nodes([mk(be, "m", writes=[a])])[0]
    assert node.kind is NodeKind.COMPUTE
    assert a.uid in node.writes()
    assert node.reads() == set()


# -- the in-tree reduction against a brute-force Boolean closure ---------------------
EDGE_KINDS = st.sets(st.sampled_from(list(DepKind)), min_size=1)
EDGE_SCOPES = st.sets(st.sampled_from(list(Scope)), min_size=1)


@st.composite
def random_dags(draw):
    """Nodes 0..n-1 and edges i -> j (i < j) with mixed kinds and scopes."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return n, [(i, j, draw(EDGE_KINDS), draw(EDGE_SCOPES)) for i, j in chosen]


def _is_local_data(kinds, scopes) -> bool:
    return scopes == {Scope.LOCAL} and kinds != {DepKind.SCHED}


@settings(max_examples=300, deadline=None)
@given(random_dags())
def test_local_reduction_matches_boolean_closure(dag):
    n, edges = dag
    nodes = [GraphNode(name=f"n{i}", kind=NodeKind.COMPUTE, seq=i) for i in range(n)]
    g = DepGraph()
    for node in nodes:
        g.add_node(node)
    for i, j, kinds, scopes in edges:
        for kind in sorted(kinds, key=lambda k: k.value):
            for scope in sorted(scopes, key=lambda s: s.value):
                g.add_edge(nodes[i], nodes[j], kind, scope)
    before = [(nodes.index(a), nodes.index(b), set(k), set(s)) for a, b, k, s in g.edges()]

    # reach[i][j]: a LOCAL data path of one or more edges leads from i to j (Warshall)
    local = [[False] * n for _ in range(n)]
    for i, j, kinds, scopes in before:
        local[i][j] = _is_local_data(kinds, scopes)
    reach = [row[:] for row in local]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    implied = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if local[i][j] and any(local[i][c] and reach[c][j] for c in range(n))
    }

    assert g.local_transitive_reduction() == len(implied)
    after = [(nodes.index(a), nodes.index(b), k, s) for a, b, k, s in g.edges()]
    want = []
    for i, j, kinds, scopes in before:
        if (i, j) not in implied:
            want.append((i, j, kinds, scopes))
        elif DepKind.SCHED in kinds:
            want.append((i, j, {DepKind.SCHED}, scopes))  # the hint survives its data role
    assert after == want
    assert sorted((nodes.index(p), j) for j in range(n) for p in g.parents(nodes[j], with_hints=True)) == sorted(
        (i, j) for i, j, _k, _s in want
    )


def test_remove_node_drops_its_edges_and_keeps_the_rest_in_order():
    a, b, c, d = (GraphNode(name=x, kind=NodeKind.COMPUTE, seq=i) for i, x in enumerate("abcd"))
    g = DepGraph()
    for src, dst in ((a, b), (a, c), (b, c), (c, d), (a, d)):
        g.add_edge(src, dst, DepKind.RAW)
    g.remove_node(c)
    assert [(x.name, y.name) for x, y, _k, _s in g.edges()] == [("a", "b"), ("a", "d")]
    assert list(g.parents(d)) == [a] and list(g.children(b)) == []
    g.add_edge(b, d, DepKind.WAR)
    assert list(g.parents(d)) == [a, b]
