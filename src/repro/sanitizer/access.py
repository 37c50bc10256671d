"""Per-command memory access sets at sanitizer granularity.

The scheduler reasons about whole fields; the sanitizer must be finer,
because the OCC transforms *deliberately* leave whole-field conflicts
unordered when the touched sub-slabs are disjoint (an INTERNAL-view
launch racing a halo copy is the whole point of OCC STANDARD).  The
granularity that makes every deliberate overlap race-free and every
missing event a race is the region atom:

* ``("owned", data_uid, rank, part)`` — a partition's payload cells, or
  a reduce partial's slots (one per owned slice), ``part`` in
  ``internal`` / ``boundary`` (a STANDARD launch touches both atoms);
* ``("halo", field_uid, rank, side)`` — the ghost slots of ``rank``,
  ``side`` in ``low`` / ``high``.

Atoms either coincide or are disjoint, so the race check reduces to
same-atom comparison.  Kernel footprints come from the Container's
declared access tokens via
:func:`repro.sets.launch.token_access_parts`; halo-copy footprints from
the frozen :class:`~repro.domain.halo.HaloMsg` (reads the source rank's
owned boundary, writes one side of the destination's halo).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.domain.halo import field_exchanges_halo, halo_sides
from repro.sets.launch import token_access_parts


@dataclass(frozen=True)
class MemAccess:
    """One (command, region-atom, direction) access of a program."""

    region: tuple
    write: bool
    label: str
    data_name: str
    nbytes: int = 0  # halo writes: payload size of the copy
    msg_name: str = ""  # halo writes: canonical message identity


def kernel_accesses(info) -> list[MemAccess]:
    """Region atoms one compiled kernel launch reads and writes."""
    out: list[MemAccess] = []
    seen: set[tuple] = set()

    def add(region: tuple, write: bool, name: str) -> None:
        key = (region, write)
        if key not in seen:
            seen.add(key)
            out.append(MemAccess(region, write, info.label, name))

    for tok in info.container.tokens():
        data = tok.data
        read_parts, write_parts, reads_halo = token_access_parts(tok, info.view)
        for part in read_parts:
            add(("owned", data.uid, info.rank, part), False, data.name)
        for part in write_parts:
            add(("owned", data.uid, info.rank, part), True, data.name)
        if reads_halo and field_exchanges_halo(data):
            for side in halo_sides(info.rank, data.num_devices):
                add(("halo", data.uid, info.rank, side), False, data.name)
    return out


def copy_accesses(info) -> list[MemAccess]:
    """Region atoms one halo message reads (source) and writes (dest)."""
    msg, fld = info.msg, info.halo_field
    return [
        MemAccess(("owned", fld.uid, msg.src_rank, "boundary"), False, info.label, fld.name),
        MemAccess(
            ("halo", fld.uid, msg.dst_rank, msg.side),
            True,
            info.label,
            fld.name,
            nbytes=msg.nbytes,
            msg_name=msg.name,
        ),
    ]


def step_accesses(info) -> list[MemAccess]:
    """Access set of any compiled step (kernels and halo copies).

    ``info`` is a scheduler step, read by attribute: ``kind``, ``label``,
    ``container`` / ``rank`` / ``view`` for a kernel, ``msg`` /
    ``halo_field`` for a copy.
    """
    if info.kind == "kernel":
        return kernel_accesses(info)
    if info.kind == "copy" and info.halo_field is not None:
        return copy_accesses(info)
    return []


def canonical_halo_messages(fld) -> dict[tuple[int, str], list]:
    """The full coherency requirement of a field, keyed by halo atom.

    Maps ``(dst_rank, side)`` to the list of
    :class:`~repro.domain.halo.HaloMsg` a complete update of that ghost
    slab comprises (SoA multi-component fields need one message per
    component).  The detector requires *every* listed message to have an
    ordered, full-size write before any read of the atom — a dropped or
    truncated component is exactly the stale-ghost-cells bug class.
    """
    msgs: dict[tuple[int, str], list] = {}
    for msg in fld.halo_messages():
        msgs.setdefault((msg.dst_rank, msg.side), []).append(msg)
    return msgs
