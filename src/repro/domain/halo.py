"""Halo coherency model: explicit memory transfers between partitions.

The paper's Fields follow an explicit halo-exchange strategy (chosen over
unified memory for full control, section IV-C2): each partition allocates
halo regions and ``haloUpdate`` issues explicit peer copies.  Because
both grids decompose on one axis and keep boundary metadata contiguous,
a scalar field needs exactly 2 messages per interior partition pair and
an n-component SoA field ``2n`` (one per component per direction); AoS
keeps components interleaved so 2 messages suffice.  No marshaling is
ever required.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class HaloMsg:
    """One peer-to-peer transfer of a contiguous boundary segment."""

    name: str
    src_rank: int
    dst_rank: int
    nbytes: int
    fn: Callable[[], None]

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("negative halo message size")
        if abs(self.src_rank - self.dst_rank) != 1:
            raise ValueError(
                f"halo messages only flow between slab neighbours, got {self.src_rank}->{self.dst_rank}"
            )

    @property
    def side(self) -> str:
        """Which halo slab of the *destination* this message fills.

        An upward message (src below dst) lands in the destination's low
        ghost slots; a downward one in its high slots.  The sanitizer
        keys halo regions on ``(field, dst_rank, side)``.
        """
        return "low" if self.src_rank < self.dst_rank else "high"


def halo_sides(rank: int, num_devices: int) -> tuple[str, ...]:
    """The halo slabs a partition actually owns on the 1-D decomposition."""
    sides = []
    if rank > 0:
        sides.append("low")
    if rank < num_devices - 1:
        sides.append("high")
    return tuple(sides)


def field_exchanges_halo(field) -> bool:
    """Whether a data set participates in halo exchange at all.

    True only for grid-backed fields with a positive stencil radius on a
    multi-device partition — reduce partials and single-device fields
    have no ghost cells to keep coherent.
    """
    grid = getattr(field, "grid", None)
    return grid is not None and getattr(grid, "radius", 0) > 0 and field.num_devices > 1


def exchange_pairs(num_devices: int) -> list[tuple[int, int]]:
    """All directed neighbour pairs of the 1-D slab decomposition."""
    pairs = []
    for r in range(num_devices - 1):
        pairs.append((r, r + 1))  # push up
        pairs.append((r + 1, r))  # push down
    return pairs
