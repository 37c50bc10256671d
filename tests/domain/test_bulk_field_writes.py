"""The serving path's field writes: one halo sync, one fill, one gather.

``sync_halo_now`` runs its copies directly when nothing is armed (a
per-component family as one copy) and otherwise puts every message on one
``halo:<name>`` queue per source rank; ``fill`` takes one constant per
component; ``DenseField.to_numpy`` writes every cell from the slabs, and
``to_numpy(out=)`` writes the same bytes into the caller's array.  Each
must leave the bytes it left before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import observability as obs
from repro.domain import D3Q19_STENCIL, DataView, DenseGrid, Layout, SparseGrid
from repro.solvers.lbm import KarmanVortexStreet, LidDrivenCavity
from repro.system import Backend

DEVICES = [1, 2, 3, 8]


def _storage(field) -> list[bytes]:
    return [buf.array.tobytes() for buf in field.buffers]


def _scrambled_d3q19(devices: int, layout: Layout = Layout.SOA):
    """A 19-component field with seeded owned cells and poisoned ghost slots."""
    grid = DenseGrid(Backend.sim_gpus(devices), (2 * devices + 4, 5, 6), stencils=[D3Q19_STENCIL])
    field = grid.new_field("f", cardinality=19, layout=layout)
    rng = np.random.default_rng(devices)
    for buf in field.buffers:
        buf.array[...] = np.nan
    field.init(lambda z, y, x: rng.standard_normal(np.broadcast_shapes(z.shape, y.shape, x.shape)))
    for buf in field.buffers:  # ghosts stale again: init synced them
        h = grid.radius
        (buf.array[:, :h] if layout is Layout.SOA else buf.array[:h])[...] = -1.0
        (buf.array[:, -h:] if layout is Layout.SOA else buf.array[-h:])[...] = -1.0
    return field


@pytest.mark.parametrize("layout", [Layout.SOA, Layout.AOS])
@pytest.mark.parametrize("devices", [2, 4])
def test_bare_halo_sync_equals_the_queued_one_with_one_queue_per_source_rank(devices, layout):
    queued = _scrambled_d3q19(devices, layout)
    messages = len(queued.halo_messages())
    obs.enable(reset=True)  # a layer is armed: every message is a command
    queued.sync_halo_now()
    assert messages == (19 if layout is Layout.SOA else 1) * 2 * (devices - 1)
    assert obs.metrics().total("queues_created") == devices, "one queue per source rank, not per message"
    assert sum(h.count for h in obs.metrics().series("copy_seconds")) == messages, "every message ran as a copy"
    assert obs.metrics().total("halo_messages") == messages, "and counted as a halo message"

    obs.disable()
    bare = _scrambled_d3q19(devices, layout)
    bare.sync_halo_now()
    assert _storage(bare) == _storage(queued)
    assert len(bare._bare_halo_runs()) == 2 * (devices - 1), "one copy per (src, dst) family"


def test_sparse_field_bare_halo_sync_equals_the_queued_one():
    mask = np.ones((12, 6, 5), dtype=bool)
    mask[:, 0, 0] = False

    def synced(armed: bool):
        grid = SparseGrid(Backend.sim_gpus(3), mask=mask, stencils=[D3Q19_STENCIL])
        field = grid.new_field("f", cardinality=3)
        for rank in range(3):
            part = field.partition(rank)
            part.view_all(grid.span_for(rank, DataView.STANDARD))[...] = rank + np.arange(3.0)[:, None]
        (obs.enable if armed else obs.disable)()
        field.sync_halo_now()
        return _storage(field)

    assert synced(False) == synced(True)


def _per_component_reset(app):
    """What ``reset()`` writes, one fill per component: the rest state in
    the live population, halos synced, parity zero."""
    lattice = app.lattice
    values = (
        [1.0 * lattice.weights[q] for q in range(lattice.q)]
        if isinstance(app, LidDrivenCavity)
        else lattice.equilibrium(np.float64(1.0), np.array([0.0, app.inflow_velocity]))
    )
    app._parity = 0
    for q in range(lattice.q):
        app.current.fill(float(values[q]), comp=q)
    app.current.sync_halo_now()


@pytest.mark.parametrize("devices", DEVICES)
@pytest.mark.parametrize("experiment", ["lbm", "karman"])
def test_one_fill_per_field_resets_to_the_same_bytes(experiment, devices):
    """One fill of the live population is the per-component reset: the
    same bytes (ghost slots included) and the same parity.  The other
    population is dead, so neither writes it."""
    obs.disable()
    if experiment == "lbm":
        app = LidDrivenCavity(Backend.sim_gpus(devices), (2 * devices + 2, 6, 5), omega=1.1, lid_velocity=0.08)
    else:
        app = KarmanVortexStreet(Backend.sim_gpus(devices), (2 * devices + 2, 24))
    app.step(2)
    app.reset()
    got = (app.current.name, _storage(app.current), app.checkpoint_scalars())
    app.step(3)
    _per_component_reset(app)
    assert (app.current.name, _storage(app.current), app.checkpoint_scalars()) == got


@pytest.mark.parametrize("devices", DEVICES)
def test_to_numpy_writes_every_cell_from_the_slabs(devices):
    grid = DenseGrid(Backend.sim_gpus(devices), (2 * devices + 3, 4, 5), stencils=[D3Q19_STENCIL])
    field = grid.new_field("v", cardinality=2, outside_value=-3.0)
    rng = np.random.default_rng(7)
    field.init(lambda z, y, x: rng.standard_normal(np.broadcast_shapes(z.shape, y.shape, x.shape)))
    expected = np.full((2, *grid.shape), field.outside_value)
    for rank, (a, b) in enumerate(grid.bounds):
        expected[:, a:b] = field.partition(rank).view_all(grid.span_for(rank, DataView.STANDARD))
    assert field.to_numpy().tobytes() == expected.tobytes()


def _seeded_field(kind: str, devices: int):
    """A 2-component field with seeded owned cells; the sparse one has
    inactive cells, which read as ``outside_value``."""
    shape = (2 * devices + 3, 4, 5)
    if kind == "dense":
        grid = DenseGrid(Backend.sim_gpus(devices), shape, stencils=[D3Q19_STENCIL])
    else:
        mask = np.ones(shape, dtype=bool)
        mask[:, 0, :2] = mask[1, 2, 3] = False
        grid = SparseGrid(Backend.sim_gpus(devices), mask=mask, stencils=[D3Q19_STENCIL])
    field = grid.new_field("v", cardinality=2, outside_value=-3.0)
    rng = np.random.default_rng(devices)
    field.init(lambda *c: rng.standard_normal(np.broadcast_shapes(*(a.shape for a in c))))
    return field


@pytest.mark.parametrize("devices", DEVICES)
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_to_numpy_into_out_writes_the_same_bytes_and_returns_out(kind, devices):
    field = _seeded_field(kind, devices)
    expected = field.to_numpy()
    out = np.full(expected.shape, np.nan)
    assert field.to_numpy(out=out) is out
    assert out.tobytes() == expected.tobytes()
    if kind == "sparse":
        assert (out == field.outside_value).any(), "the inactive cells were written too"


@pytest.mark.parametrize(
    "bad",
    [
        lambda shape: np.empty((shape[0], shape[1] + 1, *shape[2:])),
        lambda shape: np.empty(shape, dtype=np.float32),
        lambda shape: np.empty((*shape[:-1], 2 * shape[-1]))[..., ::2],
    ],
    ids=["shape", "dtype", "non-contiguous"],
)
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_to_numpy_rejects_an_out_it_cannot_fill(kind, bad):
    field = _seeded_field(kind, 2)
    with pytest.raises(ValueError):
        field.to_numpy(out=bad((field.cardinality, *field.grid.shape)))
