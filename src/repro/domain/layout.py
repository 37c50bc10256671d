"""Memory layouts for vector fields: Structure-of-Arrays vs Array-of-Structures.

The paper exposes layout as a Field property switchable without touching
application code; it matters for halo traffic (an SoA field of
cardinality n needs 2n transfers per partition, an AoS field 2) and for
per-component access locality.

The layout also owns where an SoA field's components sit relative to each
other (:func:`component_pitch`), the role ``cudaMallocPitch`` plays for
CUDA rows: kernels read the resulting component stride from the array and
never derive it from the grid's extents.  The allocator starts every
payload on a :data:`repro.system.memory.ALIGNMENT` boundary (256 B, as
``cudaMalloc`` does), so a pitch of whole cache lines puts every component
on a fresh line, where a kernel's 64-byte vector loads do not split.
"""

from __future__ import annotations

import enum
import math

#: bytes per cache line; every component starts on a fresh one (the
#: payload itself starts on a 256-byte boundary)
CACHE_LINE = 64
#: a component stride that is a multiple of this maps every component's
#: i-th element to the same L1 / L2 sets
ALIAS_PERIOD = 4096


class Layout(enum.Enum):
    """Vector-field memory organisation: Structure-of-Arrays or Array-of-Structures."""

    SOA = "soa"
    AOS = "aos"


def component_pitch(cells: int, itemsize: int) -> int:
    """Elements from one SoA component to the next for ``cells`` cells.

    ``cells`` rounded up to whole cache lines, plus one more line when the
    result is a multiple of :data:`ALIAS_PERIOD` bytes: a D3Q19 cell's 19
    loads and 19 stores then spread over different cache sets instead of
    all landing in one (64^3 on 2 devices is 0x110000 B per component).
    """
    line = CACHE_LINE // math.gcd(CACHE_LINE, itemsize)  # elements per whole-line step
    pitch = -(-cells // line) * line
    if pitch * itemsize % ALIAS_PERIOD == 0:
        pitch += line
    return pitch
