"""OCC (overlap of computation and communication) graph transforms (paper V-B).

All three optimisations are built from one primitive — splitting a node
into an INTERNAL-view launch and a BOUNDARY-view launch — applied to
progressively more of the graph:

* ``STANDARD``: split each stencil node; only its boundary half depends
  on the halo update, so internal cells compute while halos fly.
* ``EXTENDED``: additionally split the map nodes *feeding* each halo
  update; the halo only needs the map's boundary cells, so it can start
  right after the (small) boundary map, overlapping the internal map too.
* ``TWO_WAY``: additionally split map/reduce nodes *consuming* the
  stencil's output; their internal halves chain after the internal
  stencil, extending the overlap window past the stencil.  The halves of
  a split reduction deposit into disjoint slots of the partial (one per
  owned slice), so they need no dependency between them.

Scheduling hints (orange arrows in Fig 4d) are added as SCHED edges:
they do not synchronise anything, they bias the task-list order so the
launch sequence actually realises the overlap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.sets import DataView, Pattern

from .depgraph import DepGraph, DepKind, GraphNode, NodeKind


class Occ(enum.Enum):
    """Overlap-of-computation-and-communication level (paper V-B)."""

    NONE = "none"
    STANDARD = "standard"
    EXTENDED = "extended"
    TWO_WAY = "two-way-extended"

    @property
    def level(self) -> int:
        return [Occ.NONE, Occ.STANDARD, Occ.EXTENDED, Occ.TWO_WAY].index(self)

    @classmethod
    def parse(cls, text: str) -> "Occ":
        """Resolve a CLI spelling (value or member name) to a level."""
        needle = text.strip().lower()
        for occ in cls:
            if needle in (occ.value, occ.name.lower(), occ.name.lower().replace("_", "-")):
                return occ
        supported = ", ".join(o.value for o in cls)
        raise ValueError(f"unknown OCC level {text!r}; expected one of: {supported}")


@dataclass
class OccReport:
    """What the transform did — useful for tests and ablation output."""

    occ: Occ = Occ.NONE
    split_stencils: list[str] = field(default_factory=list)
    split_pre_maps: list[str] = field(default_factory=list)
    split_post_nodes: list[str] = field(default_factory=list)


def _clone(node: GraphNode, view: DataView) -> GraphNode:
    suffix = "internal" if view is DataView.INTERNAL else "boundary"
    return GraphNode(
        name=f"{node.name}.{suffix}",
        kind=node.kind,
        container=node.container,
        view=view,
        halo_field=node.halo_field,
        seq=node.seq,
    )


def _split(graph: DepGraph, node: GraphNode):
    """Remove ``node``; return its halves and its former edges for routing."""
    ins = [(p, *graph.edge_info(p, node)) for p in graph.parents(node, with_hints=True)]
    outs = [(c, *graph.edge_info(node, c)) for c in graph.children(node, with_hints=True)]
    graph.remove_node(node)
    n_int = graph.add_node(_clone(node, DataView.INTERNAL))
    n_bnd = graph.add_node(_clone(node, DataView.BOUNDARY))
    return n_int, n_bnd, ins, outs


def _add(graph: DepGraph, a: GraphNode, b: GraphNode, kinds, scopes) -> None:
    for kind in kinds:
        for scope in scopes:
            graph.add_edge(a, b, kind, scope)


def _splittable(node: GraphNode) -> bool:
    return node.kind is NodeKind.COMPUTE and node.view is DataView.STANDARD


def apply_occ(graph: DepGraph, occ: Occ) -> OccReport:
    """Rewrite ``graph`` in place according to the OCC level."""
    report = OccReport(occ=occ)
    if occ is Occ.NONE:
        return report

    # -- STANDARD: split stencil nodes fed by a halo update ---------------
    stencil_halves: dict[int, tuple[GraphNode, GraphNode]] = {}
    stencils = [
        n
        for n in graph.nodes
        if _splittable(n)
        and n.pattern is Pattern.STENCIL
        and any(p.kind is NodeKind.HALO for p in graph.parents(n))
    ]
    for s in stencils:
        halo_parents = {p for p in graph.parents(s) if p.kind is NodeKind.HALO}
        s_int, s_bnd, ins, outs = _split(graph, s)
        for p, kinds, scopes in ins:
            if p in halo_parents:
                _add(graph, p, s_bnd, kinds, scopes)  # only boundary cells read halos
            else:
                _add(graph, p, s_int, kinds, scopes)
                _add(graph, p, s_bnd, kinds, scopes)
        for c, kinds, scopes in outs:
            if c.kind is NodeKind.HALO:
                # a halo update only reads the writer's *boundary* cells,
                # so it waits on just the boundary half, and the internal
                # half overlaps the exchange
                _add(graph, s_bnd, c, kinds, scopes)
            else:
                _add(graph, s_int, c, kinds, scopes)
                _add(graph, s_bnd, c, kinds, scopes)
        graph.add_edge(s_int, s_bnd, DepKind.SCHED)
        stencil_halves[s.uid] = (s_int, s_bnd)
        report.split_stencils.append(s.name)

    if occ.level >= Occ.EXTENDED.level:
        # -- EXTENDED: split the map writers feeding each halo node --------
        for halo in [n for n in graph.nodes if n.kind is NodeKind.HALO]:
            writers = [
                p
                for p in graph.parents(halo)
                if _splittable(p)
                and p.pattern is Pattern.MAP
                and DepKind.RAW in graph.edge_info(p, halo)[0]
            ]
            for w in writers:
                w_int, w_bnd, ins, outs = _split(graph, w)
                for p, kinds, scopes in ins:
                    _add(graph, p, w_int, kinds, scopes)
                    _add(graph, p, w_bnd, kinds, scopes)
                for c, kinds, scopes in outs:
                    if c.kind is NodeKind.HALO:
                        _add(graph, w_bnd, c, kinds, scopes)  # halos only read boundary cells
                    else:
                        _add(graph, w_int, c, kinds, scopes)
                        _add(graph, w_bnd, c, kinds, scopes)
                graph.add_edge(w_bnd, w_int, DepKind.SCHED)  # launch boundary first
                report.split_pre_maps.append(w.name)

    if occ.level >= Occ.TWO_WAY.level:
        # -- TWO_WAY: split map/reduce consumers of each split stencil -----
        for s_int, s_bnd in stencil_halves.values():
            consumers = [
                c
                for c in graph.children(s_int)
                if _splittable(c)
                and c.pattern in (Pattern.MAP, Pattern.REDUCE)
                and graph.has_edge(s_bnd, c)
                and DepKind.RAW in graph.edge_info(s_int, c)[0]
            ]
            for node in consumers:
                c_int, c_bnd, ins, outs = _split(graph, node)
                for p, kinds, scopes in ins:
                    if p is s_int:
                        _add(graph, p, c_int, kinds, scopes)
                        if DepKind.WAR in kinds:
                            # a stencil half READS across the view line
                            # (neighbourhoods straddle internal/boundary),
                            # so a consumer half overwriting the stencil's
                            # input must also wait on the *other* half
                            _add(graph, p, c_bnd, (DepKind.WAR,), scopes)
                    elif p is s_bnd:
                        _add(graph, p, c_bnd, kinds, scopes)
                        if DepKind.WAR in kinds:
                            _add(graph, p, c_int, (DepKind.WAR,), scopes)
                    else:
                        _add(graph, p, c_int, kinds, scopes)
                        _add(graph, p, c_bnd, kinds, scopes)
                for c, kinds, scopes in outs:
                    if c.kind is NodeKind.HALO:
                        _add(graph, c_bnd, c, kinds, scopes)
                    else:
                        _add(graph, c_int, c, kinds, scopes)
                        _add(graph, c_bnd, c, kinds, scopes)
                graph.add_edge(c_int, c_bnd, DepKind.SCHED)
                report.split_post_nodes.append(node.name)

    return report
