"""The component pitch of dense SoA fields: a layout property every kernel reads.

A multi-component SoA field stores each component as one C-contiguous
block, :func:`~repro.domain.layout.component_pitch` elements after the
previous one.  The rule keeps every component stride off a multiple of
4 KiB, where the i-th elements of all components would share cache sets
(64^3 on 2 devices packs them exactly 0x110000 B apart).  Pinned here for
every partitioning the framework produces: the invariant, that the field
API does not see the pitch, and that the slack is booked as padding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.domain import STENCIL_7PT, DenseGrid, Layout, box, star
from repro.domain.layout import component_pitch
from repro.system import AllocationError, Backend
from repro.system.memory import ALIGNMENT

#: (shape, stencil): cubes whose packed component strides hit 4 KiB
#: multiples at some device count (64^3 and 16^3 at 2 devices), odd and
#: 2-D extents, and a radius-2 halo
SHAPES = [
    ((64, 64, 64), STENCIL_7PT),
    ((16, 16, 16), STENCIL_7PT),
    ((16, 8, 8), STENCIL_7PT),
    ((24, 32, 16), STENCIL_7PT),
    ((17, 9, 7), STENCIL_7PT),
    ((48, 128), star(1, ndim=2)),
    ((32, 16, 16), box(2)),
]
DEVICES = [1, 2, 3, 8]
WEIGHTS = {"uniform": None, "weighted": (3.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 3.0)}


def test_pitch_rounds_to_a_cache_line_and_steps_off_4k():
    assert component_pitch(1, 8) == 8
    assert component_pitch(9, 8) == 16
    assert component_pitch(34 * 64 * 64, 8) == 34 * 64 * 64 + 8  # 0x110000 B -> + one line
    assert component_pitch(10 * 16 * 16, 8) == 10 * 16 * 16 + 8  # 20 480 B = 5 x 4 KiB
    assert component_pitch(1000, 4) == 1008
    assert component_pitch(1024, 4) == 1040
    for cells in range(1, 3000, 37):
        for itemsize in (1, 2, 4, 8, 16):
            pitch = component_pitch(cells, itemsize)
            assert cells <= pitch and pitch * itemsize % 64 == 0 and pitch * itemsize % 4096


@pytest.mark.parametrize("weighting", sorted(WEIGHTS))
@pytest.mark.parametrize("devices", DEVICES)
@pytest.mark.parametrize("shape,stencil", SHAPES, ids=[f"{'x'.join(map(str, s))}-r{st.radius}" for s, st in SHAPES])
def test_no_soa_component_stride_is_a_4k_multiple(shape, stencil, devices, weighting):
    weights = WEIGHTS[weighting] and WEIGHTS[weighting][:devices]
    grid = DenseGrid(Backend.sim_gpus(devices), shape, stencils=[stencil], partition_weights=weights)
    rng = np.random.default_rng(devices)
    for card, dtype in ((2, np.float64), (3, np.float32)):
        field = grid.new_field(f"f{card}", cardinality=card, dtype=dtype, outside_value=-1.0)
        for rank in range(devices):
            storage = field.partition(rank).storage
            assert storage.shape[0] == card and storage.strides[0] % 4096 != 0, (rank, storage.strides)
            assert storage.strides[0] % 64 == 0 and storage.strides[0] >= storage[0].nbytes
            assert all(storage[c].flags.c_contiguous for c in range(card))
        # the field API does not see the pitch
        values = rng.standard_normal((card, *shape)).astype(dtype)
        field.load_numpy(values)
        assert np.array_equal(field.to_numpy(), values)
        field.fill(2.5, comp=1)
        values[1] = 2.5
        assert np.array_equal(field.to_numpy(), values)
        field.init(lambda *coords: sum(c * 10.0**k for k, c in enumerate(coords)))
        expected = sum(c * 10.0**k for k, c in enumerate(np.indices(shape))).astype(dtype)
        assert np.array_equal(field.to_numpy(), np.broadcast_to(expected, values.shape))
        field.fill(0.5)
        assert np.all(field.to_numpy() == 0.5)


@pytest.mark.parametrize("layout,card", [(Layout.SOA, 1), (Layout.AOS, 3)])
def test_scalar_and_aos_fields_stay_packed(layout, card):
    grid = DenseGrid(Backend.sim_gpus(2), (64, 64, 64), stencils=[STENCIL_7PT])
    field = grid.new_field("u", cardinality=card, layout=layout)
    for buf in field.buffers:
        assert buf.array.flags.c_contiguous and buf.padding_bytes == 0


@pytest.mark.parametrize("virtual", [False, True])
def test_pitch_slack_is_padding_not_payload(virtual):
    grid = DenseGrid(Backend.sim_gpus(2), (16, 16, 16), stencils=[STENCIL_7PT], virtual=virtual)
    field = grid.new_field("f", cardinality=19)
    buf = field.buffers[0]
    slack = 19 * 8 * 8  # one 64 B line per population: 20 480 B -> 20 544 B apart
    assert buf.nbytes == 19 * 10 * 16 * 16 * 8  # the logical payload, a multiple of the alignment
    assert buf.padding_bytes == slack
    assert buf.allocated_bytes - buf.nbytes == -(-slack // ALIGNMENT) * ALIGNMENT
    assert grid.backend.memory_report()[0] == buf.allocated_bytes
    if not virtual:
        assert field.partition(0).storage.strides[0] == 20_480 + 64


def test_out_of_memory_report_names_the_slack():
    backend = Backend.sim_gpus(1, memory_capacity=300_000)
    grid = DenseGrid(backend, (16, 16, 16), stencils=[STENCIL_7PT], virtual=True)
    grid.new_field("f", cardinality=2)  # 2 x 18 x 256 cells + 2 x 8 slack, aligned up to 73 984 B
    with pytest.raises(AllocationError, match=r"73984 B \(128 B padding\)"):
        grid.new_field("g", cardinality=19)
