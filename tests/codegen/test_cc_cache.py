"""The on-disk object cache of :mod:`repro.codegen.cc` and its failure boundaries.

Every case runs fresh interpreters under its own ``TMPDIR``, so the real
per-user cache is never touched: what a process leaves behind, what a
warm process skips, and what happens when the cache is truncated,
untrusted, or raced for.
"""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys

import pytest

from repro import codegen

pytestmark = pytest.mark.skipif(not codegen.available(), reason="no C compiler in this environment")

#: a fresh interpreter that specialises Poisson (and LBM with ``lbm`` in
#: argv), counts compiler runs, and refuses to compile with ``no-cc``
CHILD = r"""
import hashlib, json, subprocess, sys
import numpy as np

compiles, real_run = [], subprocess.run
def run(cmd, *args, **kwargs):
    if "no-cc" in sys.argv:
        raise AssertionError(f"the compiler ran on a warm cache: {cmd}")
    compiles.append(cmd[0])
    return real_run(cmd, *args, **kwargs)
subprocess.run = run  # the name repro.codegen.cc calls

from repro.solvers import PoissonSolver, manufactured_problem
from repro.solvers.lbm import LidDrivenCavity
from repro.system import Backend

shape = (8, 6, 5)
poisson = PoissonSolver(Backend.sim_gpus(2), shape)
rhs = manufactured_problem(shape)[1]
poisson.set_rhs(lambda z, y, x: rhs[z, y, x])
poisson.solve(max_iterations=6, tolerance=1e-30)
results, skeletons = [poisson.solution()], [poisson.cg.sk_init, poisson.cg.sk_a, poisson.cg.sk_b]
if "lbm" in sys.argv:
    cavity = LidDrivenCavity(Backend.sim_gpus(2), (8, 6, 6), omega=1.1, lid_velocity=0.08)
    cavity.step(2)
    results.append(cavity.current.to_numpy())
    skeletons += cavity.skeletons
units = [u for sk in skeletons for u in sk.plan._ensure_program().dispatch if u.steps[0].kind == "kernel"]
print(json.dumps({
    "digest": hashlib.sha256(b"".join(r.tobytes() for r in results)).hexdigest(),
    "specialized": sum(u.specialized for u in units),
    "kernel_units": len(units),
    "compiles": len(compiles),
}))
"""


def spawn(tmpdir, *argv) -> subprocess.Popen:
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH="src")
    env.pop("REPRO_DISABLE_CC", None)
    return subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env, stdout=subprocess.PIPE, text=True)


def finish(child: subprocess.Popen) -> dict:
    out, _ = child.communicate(timeout=300)
    assert child.returncode == 0
    return json.loads(out)


def cache_dir(tmpdir):
    return tmpdir / f"repro-cc-{os.getuid()}"


def objects(tmpdir) -> list:
    """The cache's entries, asserting nothing but finished objects is there."""
    entries = sorted(cache_dir(tmpdir).iterdir())
    assert all(e.suffix == ".so" and e.is_file() for e in entries), entries
    return entries


def test_first_process_compiles_later_ones_only_load(tmp_path):
    cold = finish(spawn(tmp_path, "lbm"))
    assert cold["compiles"] == 3, "one translation unit per solver (D3Q19, the Poisson grid's) + the op walker"
    assert cold["specialized"] == cold["kernel_units"] > 0
    # the build-directory leak: a process leaves the per-user cache and nothing else
    assert [p.name for p in tmp_path.iterdir()] == [cache_dir(tmp_path).name]
    assert stat.S_IMODE(cache_dir(tmp_path).stat().st_mode) == 0o700
    assert len(objects(tmp_path)) == 3

    warm = finish(spawn(tmp_path, "lbm", "no-cc"))  # subprocess.run raises in this child
    assert warm == {**cold, "compiles": 0}
    assert len(objects(tmp_path)) == 3


@pytest.fixture(scope="module")
def poisson_cold(tmp_path_factory):
    """``(tmpdir, result)`` of one cold Poisson process: the reference run."""
    tmpdir = tmp_path_factory.mktemp("cold")
    return tmpdir, finish(spawn(tmpdir))


def test_truncated_object_is_rebuilt_and_replaced(poisson_cold):
    tmpdir, cold = poisson_cold
    assert cold["compiles"] == 2 and cold["specialized"] == cold["kernel_units"] > 0  # the grid's unit + the op walker
    cached = objects(tmpdir)
    sizes = [obj.stat().st_size for obj in cached]
    for obj, whole in zip(cached, sizes):
        with open(obj, "r+b") as fh:
            fh.truncate(whole // 2)
    again = finish(spawn(tmpdir))
    assert again == cold, "rebuilt (one compile each) and bitwise the same run"
    assert objects(tmpdir) == cached and [obj.stat().st_size for obj in cached] == sizes


@pytest.mark.parametrize("obstacle", ["world-writable directory", "plain file"])
def test_untrusted_cache_location_means_a_private_build(tmp_path, poisson_cold, obstacle):
    reference, untrusted = poisson_cold[1], tmp_path
    spot = cache_dir(untrusted)
    if obstacle == "plain file":
        spot.write_text("not a directory")
    else:
        spot.mkdir()
        spot.chmod(0o777)
    got = finish(spawn(untrusted))
    assert got == reference, "built privately: the same compiles, same kernels, same bytes"
    # nothing was published into it or loaded from it, and the private build dir is gone
    assert [p.name for p in untrusted.iterdir()] == [spot.name]
    if obstacle == "plain file":
        assert spot.read_text() == "not a directory"
    else:
        assert list(spot.iterdir()) == [] and stat.S_IMODE(spot.stat().st_mode) == 0o777


def test_two_cold_processes_publish_one_object(tmp_path, poisson_cold):
    racers = [spawn(tmp_path), spawn(tmp_path)]
    for got in [finish(child) for child in racers]:
        assert {**got, "compiles": 2} == poisson_cold[1]  # the loser of a race may have loaded instead
    assert len(objects(tmp_path)) == 2, "one content address per unit, no partial file, no build directory left"
