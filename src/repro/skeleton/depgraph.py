"""Data dependency graph extraction from a Container sequence (paper V-A).

Nodes are Containers (plus, later, halo-update nodes); edges are
read-after-write, write-after-read and write-after-write conflicts on
the Multi-GPU data objects the Containers' Loaders declared.  Redundant
(transitively implied) dependencies are removed, exactly as the paper
drops the apxpy->dot edge in Fig 4c.

Each *resource* a node touches is either a data object's cell payload
(keyed by the data uid) or, for halo modelling, the data's halo slots
(keyed by ``("halo", uid)``).  A stencil read touches both — that single
rule makes every halo-related ordering fall out of the generic
dependency builder in :mod:`repro.skeleton.mgraph`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.sets import Container, DataView, Pattern, ReduceMode
from repro.sets.loader import Access


class NodeKind(enum.Enum):
    """A graph node is a Container launch or a halo update."""

    COMPUTE = "compute"
    HALO = "halo"


class DepKind(enum.Enum):
    """Edge type: data hazard (RaW/WaR/WaW) or scheduling hint (SCHED)."""

    RAW = "RaW"
    WAR = "WaR"
    WAW = "WaW"
    SCHED = "hint"


class Scope(enum.Enum):
    """Which device ranks an edge synchronises (see scheduler).

    LOCAL: consumer rank waits the producer on the same rank.
    HALO_SRC: the ordering concerns a halo message's *source* rank.
    HALO_DST: the ordering concerns a halo message's *destination* rank.
    """

    LOCAL = "local"
    HALO_SRC = "halo_src"
    HALO_DST = "halo_dst"


_node_ids = itertools.count()

Resource = object  # data uid (int) or ("halo", uid)


@dataclass(eq=False)
class GraphNode:
    """One multi-GPU graph node: a Container launch or a halo update."""

    name: str
    kind: NodeKind
    container: Container | None = None
    view: DataView = DataView.STANDARD
    reduce_mode: ReduceMode = ReduceMode.ASSIGN
    halo_field: object | None = None  # Field, for HALO nodes
    seq: int = 0
    uid: int = field(default_factory=lambda: next(_node_ids))

    @property
    def pattern(self) -> Pattern | None:
        return self.container.pattern if self.container is not None else None

    def reads(self) -> set[Resource]:
        if self.kind is NodeKind.HALO:
            return {self.halo_field.uid}
        out: set[Resource] = set()
        for t in self.container.tokens():
            if t.access.reads:
                out.add(t.data.uid)
            if t.pattern is Pattern.STENCIL:
                out.add(("halo", t.data.uid))
        return out

    def writes(self) -> set[Resource]:
        if self.kind is NodeKind.HALO:
            return {("halo", self.halo_field.uid)}
        return {t.data.uid for t in self.container.tokens() if t.access.writes}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name}@{self.view.value})"


class DepGraph:
    """A DAG of GraphNodes with typed, scoped edges.

    Adjacency is two insertion-ordered dicts, ``_succ`` and ``_pred``:
    node -> {neighbour: (kinds, scopes)}, both directions sharing one
    tuple per edge.  Nodes iterate in insertion order and each node's
    edges in the order they were first added.
    """

    def __init__(self) -> None:
        self._succ: dict[GraphNode, dict[GraphNode, tuple[set[DepKind], set[Scope]]]] = {}
        self._pred: dict[GraphNode, dict[GraphNode, tuple[set[DepKind], set[Scope]]]] = {}

    # -- construction ------------------------------------------------------
    def add_node(self, node: GraphNode) -> GraphNode:
        self._succ.setdefault(node, {})
        self._pred.setdefault(node, {})
        return node

    def add_edge(self, a: GraphNode, b: GraphNode, kind: DepKind, scope: Scope = Scope.LOCAL) -> None:
        if a is b:
            return
        if self.has_edge(a, b):
            kinds, scopes = self._succ[a][b]
            kinds.add(kind)
            scopes.add(scope)
        else:
            self.add_node(a)
            self.add_node(b)
            self._succ[a][b] = self._pred[b][a] = ({kind}, {scope})

    def remove_edge(self, a: GraphNode, b: GraphNode) -> None:
        del self._succ[a][b]
        del self._pred[b][a]

    def remove_node(self, node: GraphNode) -> None:
        """Drop ``node`` and every edge into or out of it."""
        for b in self._succ.pop(node):
            del self._pred[b][node]
        for a in self._pred.pop(node):
            del self._succ[a][node]

    # -- queries ----------------------------------------------------------
    @property
    def nodes(self) -> list[GraphNode]:
        return sorted(self._succ, key=lambda n: (n.seq, n.uid))

    def edges(self) -> list[tuple[GraphNode, GraphNode, set[DepKind], set[Scope]]]:
        return [(a, b, kinds, scopes) for a, nbrs in self._succ.items() for b, (kinds, scopes) in nbrs.items()]

    def data_edges(self):
        """Edges that are real data dependencies (hints excluded)."""
        for a, b, kinds, scopes in self.edges():
            if kinds - {DepKind.SCHED}:
                yield a, b, kinds, scopes

    def hint_edges(self):
        for a, b, kinds, _scopes in self.edges():
            if DepKind.SCHED in kinds:
                yield a, b

    def parents(self, node: GraphNode, with_hints: bool = False):
        for a, (kinds, _scopes) in self._pred[node].items():
            if with_hints or kinds - {DepKind.SCHED}:
                yield a

    def children(self, node: GraphNode, with_hints: bool = False):
        for b, (kinds, _scopes) in self._succ[node].items():
            if with_hints or kinds - {DepKind.SCHED}:
                yield b

    def edge_info(self, a: GraphNode, b: GraphNode) -> tuple[set[DepKind], set[Scope]]:
        return self._succ[a][b]

    def has_edge(self, a: GraphNode, b: GraphNode) -> bool:
        return b in self._succ.get(a, ())

    def find(self, name: str) -> GraphNode:
        hits = [n for n in self._succ if n.name == name]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} nodes named '{name}'")
        return hits[0]

    def bfs_levels(self, with_hints: bool = False) -> list[list[GraphNode]]:
        """Dependency-respecting BFS levels (paper V-C, Fig 5/6).

        A node enters the frontier only when all its parents have been
        placed in earlier levels; nodes inside a level are independent.
        """
        placed: dict[GraphNode, int] = {}
        levels: list[list[GraphNode]] = []
        pending = set(self._succ)
        while pending:
            frontier = [
                n
                for n in pending
                if all(p in placed for p in self.parents(n, with_hints=with_hints))
            ]
            if not frontier:
                raise RuntimeError("cycle in dependency graph")
            frontier.sort(key=lambda n: (n.seq, n.uid))
            for n in frontier:
                placed[n] = len(levels)
            levels.append(frontier)
            pending -= set(frontier)
        return levels

    def local_transitive_reduction(self) -> int:
        """Drop redundant dependencies; returns the number removed.

        Only an edge that is LOCAL-scoped *and* implied by a path of
        LOCAL-scoped edges may go: a LOCAL path orders every rank
        pairwise, so the shortcut is redundant (the paper's apxpy->dot
        removal in Fig 4c).  Edges involved in halo scopes synchronise
        *different* ranks per hop and are never redundant at rank
        granularity, so they are kept.

        An edge ``a -> b`` of the LOCAL data subgraph is redundant when
        some other child of ``a`` reaches ``b`` in that subgraph, i.e. when
        a LOCAL data path of two or more edges joins them.
        """
        local = {
            a: [b for b, (kinds, scopes) in nbrs.items() if scopes == {Scope.LOCAL} and kinds != {DepKind.SCHED}]
            for a, nbrs in self._succ.items()
        }
        # reverse topological order, so every child's reach is known first
        indegree = dict.fromkeys(local, 0)
        for children in local.values():
            for b in children:
                indegree[b] += 1
        order = [n for n, d in indegree.items() if d == 0]
        for n in order:
            for b in local[n]:
                indegree[b] -= 1
                if indegree[b] == 0:
                    order.append(b)
        if len(order) != len(local):
            raise RuntimeError("cycle in dependency graph")
        bit = {n: 1 << i for i, n in enumerate(order)}
        below: dict[GraphNode, int] = {}  # bitset of nodes reachable by >= 1 LOCAL data edge
        for n in reversed(order):
            below[n] = 0
            for b in local[n]:
                below[n] |= bit[b] | below[b]
        redundant = [
            (a, b) for a, children in local.items() for b in children if any(below[c] & bit[b] for c in children)
        ]
        for a, b in redundant:
            kinds, scopes = self._succ[a][b]
            if DepKind.SCHED in kinds:
                # keep the hint, drop the data-dependency role
                self._succ[a][b] = self._pred[b][a] = ({DepKind.SCHED}, scopes)
            else:
                self.remove_edge(a, b)
        return len(redundant)


def _scope_for(resource: Resource, a: GraphNode, b: GraphNode) -> Scope:
    if a.kind is NodeKind.COMPUTE and b.kind is NodeKind.COMPUTE:
        return Scope.LOCAL
    if isinstance(resource, tuple) and resource[0] == "halo":
        return Scope.HALO_DST  # ordering concerns the halo slots written on dst
    return Scope.HALO_SRC  # ordering concerns the boundary payload read on src


def build_dependency_graph(ops: list[GraphNode], reduce: bool = False) -> DepGraph:
    """Generic conflict analysis over an ordered op sequence.

    Works for plain Container sequences (paper Fig 4b) and for sequences
    already interleaved with halo nodes (Fig 4c) — halo nodes read the
    field payload and write its halo resource, so every ordering rule
    falls out of RaW/WaR/WaW on resources.

    Redundant-edge removal (``reduce``) is deferred by the Skeleton until
    after the OCC transform, because splitting relies on direct edges.
    """
    graph = DepGraph()
    last_writer: dict[Resource, GraphNode] = {}
    readers_since: dict[Resource, list[GraphNode]] = {}
    for seq, node in enumerate(ops):
        node.seq = seq
        graph.add_node(node)
        reads, writes = node.reads(), node.writes()
        for res in sorted(reads, key=repr):
            if res in last_writer:
                graph.add_edge(last_writer[res], node, DepKind.RAW, _scope_for(res, last_writer[res], node))
            readers_since.setdefault(res, []).append(node)
        for res in sorted(writes, key=repr):
            for reader in readers_since.get(res, []):
                graph.add_edge(reader, node, DepKind.WAR, _scope_for(res, reader, node))
            if res in last_writer:
                graph.add_edge(last_writer[res], node, DepKind.WAW, _scope_for(res, last_writer[res], node))
            last_writer[res] = node
            readers_since[res] = []
    if reduce:
        graph.local_transitive_reduction()
    return graph


def containers_to_nodes(containers: list[Container]) -> list[GraphNode]:
    """Wrap user Containers as COMPUTE graph nodes (STANDARD view)."""
    return [GraphNode(name=c.name, kind=NodeKind.COMPUTE, container=c) for c in containers]
