"""Plane-pipelined op tables: a segment's kernels replayed plane by plane.

A bare serial replay runs every maximal run of table units as one table
(:func:`repro.skeleton.fusion.lower_serial`).  Walked op after op, each
kernel sweeps its whole slab, so CG's ``p`` leaves the cache between the
map that writes it, the stencil that reads it and the dot that reads it
again.  This pass keeps the ops and their kernels and changes only the
walk: every op of a pipelined rank runs once per axis-0 plane (its
:class:`~repro.codegen.table.Window` narrows the record), and the planes
are ordered so that a consumer runs as soon as its producers have
finished the planes it reads — ``lag`` planes behind, the stencil radius.

**Bitwise by construction.**  A narrowed op computes each of its cells
with the same operations as the whole op; a reduce deposits each slice's
sum on its own.  The new order keeps every hazard of the old one: an op
plane that reads bytes another op plane writes (or writes bytes it reads
or writes) keeps its side of that pair.  Footprints are byte ranges, from
the windows and the copy ops' chunk lists; an op without a footprint
orders against everything.  So a halo copy runs after the planes it
sends and before the planes that read the ghost slots it fills, which
puts OCC's boundary pieces, and the reduce slices that read them, after
the rank's pipelined range.  A Python unit ends a segment (the host may
change a scalar there) and nothing here sees past it.

**Pipeline only when it pays.**  A rank is pipelined when two of its ops
form a read-after-write chain and its INTERNAL view holds at least two
planes; everything else keeps its whole-op record.  A segment with no
such rank stays the plain concatenation, which leaves LBM's one
collide-stream per rank and the three-plane slabs of small many-device
solves as they were.

The DES, the sanitizer, resilience and every armed lowering still see the
per-container program; only the bare serial table changes.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .table import Table, Window, concat, scalar_reads, table

#: footprint of an op that says nothing about what it touches: all memory, written
_EVERYTHING = ((0, 1 << 64, True),)


def _ops(tables: list) -> list[tuple]:
    """``(record, footprint)`` of every op of ``tables``, in order."""
    return [(op, w) for t in tables for op, w in zip(t.ops, t.windows)]


def _overlap(writes: list, reads: list) -> bool:
    return any(a < d and c < b for a, b, _ in writes for c, d, _ in reads)


def chains(tables: list) -> list[tuple]:
    """The rank slabs whose ops this segment replays plane by plane, in
    order of first appearance: at least one op reads what an earlier op of
    the slab wrote, and the slab's INTERNAL view holds two planes or more."""
    slabs: dict[tuple, list[Window]] = {}
    for _, w in _ops(tables):
        if isinstance(w, Window):
            slabs.setdefault(w.slab, []).append(w)
    out = []
    for slab, members in slabs.items():
        if members[0].internal < 2:
            continue
        spans = [w.extents(w.lo, w.hi) for w in members]
        written = []
        for ext in spans:
            if written and _overlap(written, [e for e in ext if not e[2]]):
                out.append(slab)
                break
            written += [e for e in ext if e[2]]
    return out


class Pipeline(NamedTuple):
    """One segment's ops cut into plane items, with the hazards between them.

    ``items[k]`` is ``(op index, plane)``, plane None for an op that stays
    whole; items are listed in the unfused order, planes ascending.
    ``after[k]`` holds the items that must run before item ``k``.
    """

    tables: list
    ops: list
    items: list
    after: list
    chains: list
    priority: list

    def schedule(self) -> list[int]:
        """Items in pipelined order: by rank, plane and op for the pipelined
        ranks, then unfused order, each as soon as its hazards allow."""
        waiting = [len(a) for a in self.after]
        feeds: list[list[int]] = [[] for _ in self.items]
        for k, before in enumerate(self.after):
            for j in before:
                feeds[j].append(k)
        ready = [(self.priority[k], k) for k, n in enumerate(waiting) if n == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            _, k = heapq.heappop(ready)
            order.append(k)
            for j in feeds[k]:
                waiting[j] -= 1
                if waiting[j] == 0:
                    heapq.heappush(ready, (self.priority[j], j))
        return order

    def check(self, order: list[int]) -> None:
        """Raise ``ValueError`` unless ``order`` runs every item once and each
        after every item it has a hazard with."""
        if sorted(order) != list(range(len(self.items))):
            raise ValueError("the order must run every plane item exactly once")
        position = {k: i for i, k in enumerate(order)}
        for k, before in enumerate(self.after):
            for j in before:
                if position[j] > position[k]:
                    raise ValueError(f"op {self.items[k][0]} plane {self.items[k][1]} would run before "
                                     f"op {self.items[j][0]} plane {self.items[j][1]}, which it depends on")

    def table(self) -> Table:
        """The segment as one table walking :meth:`schedule`'s order."""
        order = self.schedule()
        self.check(order)
        records = []
        for k in order:
            i, z = self.items[k]
            op, w = self.ops[i]
            records.append(op if z is None else w.narrow(op, z))
        return table(records, scalar_reads(self.tables), self.tables)


def plan(tables: list) -> Pipeline | None:
    """The plane items of a segment of ``tables`` and their hazards, or None
    when no rank of it is worth pipelining (:func:`chains`)."""
    if not all(isinstance(t, Table) for t in tables):
        raise TypeError("a segment is a run of op tables: a Python unit ends it")
    slabs = chains(tables)
    if not slabs:
        return None
    rank_of = {slab: r for r, slab in enumerate(slabs)}
    ops = _ops(tables)
    items, footprints, priority = [], [], []
    for i, (_, w) in enumerate(ops):
        if isinstance(w, Window) and w.slab in rank_of:
            # a plane's ranges are plane 0's, shifted by z planes of each operand
            first = w.extents(0, 1)
            shift = [b[0] - a[0] for a, b in zip(first, w.extents(1, 2))]
            for z in range(w.lo, w.hi):
                items.append((i, z))
                footprints.append([(a + z * d, b + z * d, write) for (a, b, write), d in zip(first, shift)])
                priority.append((0, rank_of[w.slab], z, i))
            continue
        items.append((i, None))
        footprints.append(w.extents(w.lo, w.hi) if isinstance(w, Window) else w or _EVERYTHING)
        priority.append((1, i, 0, 0))
    return Pipeline(tables, ops, items, _hazards(footprints), slabs, priority)


def _hazards(footprints: list) -> list[set[int]]:
    """For each item, the earlier items it conflicts with: it reads what they
    write, or writes what they read or write (byte ranges cut at every
    boundary any footprint has, then tracked per piece)."""
    cuts = sorted({b for fp in footprints for start, end, _ in fp for b in (start, end)})
    at = {b: i for i, b in enumerate(cuts)}
    writer = [-1] * len(cuts)  # per piece: the last item that wrote it
    readers: list[list[int]] = [[] for _ in cuts]  # ... and the items that read it since
    after = []
    for k, fp in enumerate(footprints):
        before: set[int] = set()
        wrote, read = [], []
        for start, end, write in fp:
            pieces = range(at[start], at[end])
            (wrote if write else read).append(pieces)
            for piece in pieces:
                if writer[piece] >= 0:
                    before.add(writer[piece])
                if write:
                    before.update(readers[piece])
        for pieces in wrote:
            for piece in pieces:
                writer[piece], readers[piece] = k, []
        for pieces in read:
            for piece in pieces:
                if writer[piece] != k:
                    readers[piece].append(k)
        before.discard(k)
        after.append(before)
    return after


def lower(tables: list) -> Table:
    """One table for a segment of ``tables``: :meth:`Pipeline.table`, or the
    plain concatenation when no rank chains."""
    pipeline = plan(tables)
    return concat(tables) if pipeline is None else pipeline.table()
