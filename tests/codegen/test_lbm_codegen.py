"""One D3Q19 object per lattice, and the population stride it walks.

The lid speed is an argument, not source text.  The populations sit one
layout-chosen component pitch apart (:func:`repro.domain.layout.component_pitch`),
which the kernel reads from its op record; the pitched cavity below is
pinned bitwise to the native one and to the interpreted closures, with
the pitch slack poisoned so that a kernel or copy touching it shows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import codegen
from repro import observability as obs
from repro.baselines import NativeCavity
from repro.codegen.table import Table
from repro.resilience import Checkpoint, restore_targets
from repro.skeleton import fusion
from repro.skeleton.executor import scan_non_finite
from repro.codegen.lattice_kernels import (
    collide_stream_source,
    compile_twopop,
    generate_twopop_source,
    karman_rule,
    lid_corrections,
)
from repro.solvers.lbm import LidDrivenCavity
from repro.solvers.lbm.d3q19 import RHO0, SOLID_SENTINEL
from repro.solvers.lbm.lattice import D2Q9, D3Q19
from repro.system import Backend
from repro.workloads import JobSpec, build

pytestmark = pytest.mark.skipif(not codegen.available(), reason="no C compiler in this environment")


def cavity(lid: float) -> LidDrivenCavity:
    return LidDrivenCavity(Backend.sim_gpus(2), (8, 6, 6), omega=1.1, lid_velocity=lid)


@pytest.mark.parametrize("lid", [0.0, 0.05, 0.0875])
def test_compiled_cavity_equals_interpreted_at_any_lid_speed(lid):
    compiled = cavity(lid)
    compiled.step(4)
    units = [u for sk in compiled.skeletons for u in sk.plan._ensure_program().dispatch if u.steps[0].kind == "kernel"]
    assert units and all(u.specialized for u in units)
    with fusion.disabled():
        interpreted = cavity(lid)
        interpreted.step(4)
    # bytes, not values: a still lid must not turn a -0.0 into +0.0
    assert compiled.current.to_numpy().tobytes() == interpreted.current.to_numpy().tobytes()


def test_lid_speed_is_not_part_of_the_translation_unit():
    moving, still = (generate_twopop_source(D3Q19, lid, SOLID_SENTINEL) for lid in (True, False))
    assert moving.count("from_lid ? corr[") == len(lid_corrections(D3Q19, 0.05, RHO0)) == 5
    assert "from_lid ?" not in still, "a still lid adds nothing: + 0.0 would flip a -0.0"
    one, other = (compile_twopop(D3Q19, lid, SOLID_SENTINEL) for lid in (True, False))
    assert one is compile_twopop(D3Q19, True, SOLID_SENTINEL) is not other


def test_collide_stream_x_loop_has_no_control_flow():
    """Selects, not branches, so the compiler can vectorise the x loop
    (CI asserts that GCC's report says it did)."""
    units = [generate_twopop_source(D3Q19, lid, SOLID_SENTINEL) for lid in (True, False)]
    units.append(collide_stream_source(D2Q9, karman_rule(D2Q9, 0.0, 0.0, RHO0)))
    for source in units:
        pragma, loop = source.split("for (long x = 0; x < nx; ++x)")
        assert pragma.rstrip().endswith("#endif") and "#pragma GCC ivdep" in pragma
        # no branch, and run-time constants are read outside the loop
        assert "if (" not in loop and "else" not in loop and "corr[" not in loop and "feq_in[" not in loop


#: 16^3 on 2 devices: 10 storage slices of 16 x 16 cells, a natural
#: population stride of 20 480 B = 5 x 4 KiB, so the layout pitches it
PITCHED = JobSpec.make("lbm", (16, 16, 16), 3, devices=2, omega=1.1, lid_velocity=0.08)


def pitch_slack(field, rank: int) -> np.ndarray:
    """Writable view of the elements between one population and the next."""
    storage = field.partition(rank).storage
    pitch = storage.strides[0] // storage.itemsize
    backing = np.lib.stride_tricks.as_strided(
        storage, shape=(storage.shape[0], pitch), strides=(storage.strides[0], storage.itemsize)
    )
    return backing[:, storage[0].size :]


def poisoned_cavity():
    """The pitched cavity, every population's slack filled with NaN."""
    app = build(PITCHED)
    for field in app.solver.f:
        for rank in range(field.num_devices):
            assert field.partition(rank).storage.strides[0] == 20_480 + 64
            pitch_slack(field, rank)[...] = np.nan
    return app


def slack_is_nan(app) -> bool:
    return all(np.isnan(pitch_slack(f, r)).all() for f in app.solver.f for r in range(f.num_devices))


def test_pitched_cavity_is_bitwise_native_and_interpreted(monkeypatch):
    obs.disable()  # the bare lowering: one concatenated table per replay
    native = NativeCavity(PITCHED.shape, omega=1.1, lid_velocity=0.08)
    native.step(PITCHED.steps)
    legs = {}
    for leg in ("compiled", "interpreted"):
        if leg == "interpreted":
            monkeypatch.setenv("REPRO_DISABLE_CC", "1")
        app = poisoned_cavity()
        if leg == "compiled":
            assert {sk.name: sk.record().stats.host_calls for sk in app.skeletons} == {"lbm_0": 1, "lbm_1": 1}
        legs[leg] = app.run()["f"]
        assert slack_is_nan(app), leg
        app.close()
    assert legs["compiled"].tobytes() == native.f.tobytes() == legs["interpreted"].tobytes()


def test_pitch_slack_is_never_read_or_written():
    """Steps, halo updates (per component and batched) and a checkpoint
    restore all leave the NaN slack alone, and the divergence guardrail,
    which scans what kernels write, does not see it."""
    app = poisoned_cavity()
    app.run()
    for field in app.solver.f:
        field.sync_halo_now()
        pair = [m for m in field.halo_messages() if (m.src_rank, m.dst_rank) == (0, 1)]
        batched = field.batched_halo_fn(pair)
        assert isinstance(batched, Table)  # cardinality strided chunks, one memcpy each
        batched()
    snapshot = Checkpoint.capture(app.fields(), app.scalars())
    app.run()
    snapshot.restore(restore_targets(app))
    ((_, live),) = snapshot.arrays
    assert np.array_equal(app.solver.current.to_numpy(), live)
    assert slack_is_nan(app)
    assert scan_non_finite([c for sk in app.skeletons for c in sk.containers]) == []
    app.close()
