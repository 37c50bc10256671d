"""Checkpoint/restore: bit-exact round trips, also across decompositions.

The core property — checkpoint, corrupt the live state arbitrarily,
restore, and read back *exactly* the checkpointed values — is what makes
rollback-and-replay sound, so it is exercised property-based.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.chaos import chaos_spec
from repro.domain import STENCIL_7PT, DenseGrid
from repro.domain.field import Field
from repro.resilience import Checkpoint, degraded_backend, restore_targets
from repro.system import Backend
from repro.system.queue import CommandQueue
from repro.workloads import build, resilient_factory


def make_fields(devices=3, shape=(6, 5, 4), cardinality=1):
    grid = DenseGrid(Backend.sim_gpus(devices), shape, stencils=[STENCIL_7PT], name="ck")
    u = grid.new_field("u", cardinality=cardinality)
    v = grid.new_field("v", cardinality=cardinality)
    return grid, u, v


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    pokes=st.lists(st.integers(min_value=0, max_value=6 * 5 * 4 - 1), min_size=1, max_size=8),
    poison=st.sampled_from([np.nan, np.inf, -np.inf, 1e300]),
)
def test_capture_corrupt_restore_round_trips_bit_exact(seed, pokes, poison):
    grid, u, v = make_fields()
    rng = np.random.default_rng(seed)
    u.init(lambda i, j, k: rng.standard_normal((6, 5, 4))[i, j, k])
    v.init(lambda i, j, k: (i * 31 + j * 7 + k).astype(float))
    before_u, before_v = u.to_numpy().copy(), v.to_numpy().copy()

    ckpt = Checkpoint.capture([u, v], {"step_size": 0.5}, step=3)
    # corrupt the live state at arbitrary owned positions
    flat_u, flat_v = u.to_numpy(), v.to_numpy()
    for p in pokes:
        flat_u.flat[p] = poison
    u.load_numpy(flat_u)
    v.load_numpy(flat_v * -2.0 + 1.0)

    scalars = ckpt.restore([u, v])
    assert scalars == {"step_size": 0.5}
    np.testing.assert_array_equal(u.to_numpy(), before_u)
    np.testing.assert_array_equal(v.to_numpy(), before_v)
    assert ckpt.step == 3


def test_checkpoint_is_isolated_from_later_mutation():
    _, u, v = make_fields()
    u.fill(1.0)
    ckpt = Checkpoint.capture([u], step=0)
    u.fill(9.0)
    ckpt.restore([u])
    assert np.all(u.to_numpy() == 1.0)


def test_restore_migrates_across_decompositions():
    # capture on 3 devices, restore onto a field partitioned over 2
    _, u3, _ = make_fields(devices=3)
    u3.init(lambda i, j, k: (i * 100 + j * 10 + k).astype(float))
    ckpt = Checkpoint.capture([u3], step=7)

    _, u2, _ = make_fields(devices=2)
    assert ckpt.restore([u2]) == {}
    np.testing.assert_array_equal(u2.to_numpy(), u3.to_numpy())


def test_restore_validates_field_names_and_count():
    _, u, v = make_fields()
    ckpt = Checkpoint.capture([u], step=0)
    with pytest.raises(ValueError, match="1 fields but 2"):
        ckpt.restore([u, v])
    with pytest.raises(ValueError, match="'u' does not match target 'v'"):
        ckpt.restore([v])


def test_scalars_are_deep_copied_both_ways():
    _, u, _ = make_fields()
    state = {"history": [1, 2]}
    ckpt = Checkpoint.capture([u], state, step=0)
    state["history"].append(3)  # caller mutates after capture
    restored = ckpt.restore([u])
    assert restored == {"history": [1, 2]}
    restored["history"].append(4)  # and after restore
    assert ckpt.restore([u]) == {"history": [1, 2]}


def test_nbytes_counts_payload():
    _, u, v = make_fields()
    ckpt = Checkpoint.capture([u, v], step=0)
    assert ckpt.nbytes == 2 * 6 * 5 * 4 * 8


def test_load_numpy_validates_shape():
    _, u, _ = make_fields()
    with pytest.raises(ValueError, match="expects shape"):
        u.load_numpy(np.zeros((1, 2, 2, 2)))


# -- integrity: checksums, schema header, tiered store -----------------------
def test_header_carries_schema_layout_and_checksums():
    from repro.resilience import CHECKPOINT_SCHEMA

    _, u, v = make_fields()
    u.fill(1.0)
    v.fill(2.0)
    ckpt = Checkpoint.capture([u, v], {"beta": 0.5}, step=3)
    h = ckpt.header()
    assert h["schema"] == CHECKPOINT_SCHEMA == "repro-checkpoint/2"
    assert h["step"] == 3
    assert [f["name"] for f in h["fields"]] == ["u", "v"]
    for f in h["fields"]:
        assert f["crc32"] == ckpt.checksums[f["name"]]
        assert f["dtype"] == "float64" and f["nbytes"] == 6 * 5 * 4 * 8
    assert h["scalars"] == ["beta"]


def test_tampered_checkpoint_raises_without_touching_live_fields():
    from repro.resilience import CheckpointCorrupt

    _, u, v = make_fields()
    u.fill(1.0)
    v.fill(2.0)
    ckpt = Checkpoint.capture([u, v], step=1)
    assert ckpt.verify() == []
    u.fill(9.0)
    v.fill(9.0)
    ckpt.arrays[1][1].reshape(-1).view(np.uint8)[5] ^= 0xFF  # one flipped bit in v
    assert ckpt.verify() == ["v"]
    with pytest.raises(CheckpointCorrupt, match="generation 2"):
        ckpt.restore([u, v], generation=2)
    exc = pytest.raises(CheckpointCorrupt, ckpt.restore, [u, v]).value
    assert exc.field_names == ["v"] and exc.step == 1 and exc.generation == 0
    # the refused restore wrote nothing into the live fields
    assert np.all(u.to_numpy() == 9.0) and np.all(v.to_numpy() == 9.0)


def test_store_keeps_last_k_generations_newest_first():
    from repro.resilience import CheckpointStore

    _, u, _ = make_fields()
    store = CheckpointStore(keep=3)
    for step in range(5):
        u.fill(float(step))
        store.push(Checkpoint.capture([u], step=step))
    assert len(store) == 3
    assert [c.step for c in store.generations()] == [4, 3, 2]
    assert store.latest.step == 4
    with pytest.raises(ValueError, match="at least one"):
        CheckpointStore(keep=0)


def test_store_falls_back_past_tampered_newest_generation():
    from repro.resilience import CheckpointStore

    _, u, _ = make_fields()
    store = CheckpointStore(keep=3)
    for step in (0, 2):
        u.fill(float(step))
        store.push(Checkpoint.capture([u], {"step": step}, step=step))
    store.latest.arrays[0][1].reshape(-1).view(np.uint8)[0] ^= 0xFF
    ckpt, scalars, generation = store.restore_latest_valid([u])
    assert (ckpt.step, generation) == (0, 1)
    assert scalars == {"step": 0}
    assert np.all(u.to_numpy() == 0.0)
    assert store.fallbacks == 1 and store.corrupt_dropped == 1
    assert store.max_restore_depth == 1
    assert len(store) == 1  # the corrupt generation can never restore: dropped


def test_store_raises_newest_error_when_every_generation_corrupt():
    from repro.resilience import CheckpointCorrupt, CheckpointStore

    _, u, _ = make_fields()
    store = CheckpointStore(keep=2)
    for step in (0, 2):
        u.fill(float(step))
        store.push(Checkpoint.capture([u], step=step))
    for ckpt in store.generations():
        ckpt.arrays[0][1].reshape(-1).view(np.uint8)[0] ^= 0xFF
    with pytest.raises(CheckpointCorrupt) as ei:
        store.restore_latest_valid([u])
    assert ei.value.step == 2 and ei.value.generation == 0
    with pytest.raises(ValueError, match="empty"):
        store.restore_latest_valid([u])


def test_store_describe_is_json_able():
    import json

    from repro.resilience import CheckpointStore

    _, u, _ = make_fields()
    store = CheckpointStore(keep=2)
    store.push(Checkpoint.capture([u], step=4))
    doc = store.describe()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["generations"] == 1 and doc["steps"] == [4] and doc["keep"] == 2


def test_d3q19_restore_syncs_each_fields_halo_once(monkeypatch):
    """A restore scatters every component, then runs ONE halo update per
    field — a 19-population field costs one sync, not nineteen — and a
    restore onto a degraded rebuild still ends on the reference bits."""
    spec = chaos_spec("lbm", 4, steps=6)
    reference = build(spec, backend=Backend.sim_gpus(4))
    reference.run()
    factory = resilient_factory(spec)
    app = factory(Backend.sim_gpus(4))
    for i in range(3):
        app.step(i)
    ckpt = Checkpoint.capture(app.fields(), app.scalars(), step=3)
    survivor = factory(degraded_backend(app.backend, 3))

    syncs, copies = [], []
    sync, enqueue_copy = Field.sync_halo_now, CommandQueue.enqueue_copy

    def counting_sync(self):
        syncs.append(self.name)
        sync(self)

    def counting_copy(self, name, *args, **kwargs):
        copies.append(name)
        return enqueue_copy(self, name, *args, **kwargs)

    monkeypatch.setattr(Field, "sync_halo_now", counting_sync)
    monkeypatch.setattr(CommandQueue, "enqueue_copy", counting_copy)
    ckpt.restore(restore_targets(survivor))
    monkeypatch.undo()

    fields = survivor.fields()
    assert max(f.cardinality for f in fields) == 19
    assert syncs == [f.name for f in fields]
    assert len(copies) == sum(len(f.halo_messages()) for f in fields) > 0
    for i in range(3, 6):
        survivor.step(i)
    assert np.array_equal(survivor.result_array(), reference.result_array())
