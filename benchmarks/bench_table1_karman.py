"""Table I: Neon vs the compiler-based comparator on the 2-D Kármán
vortex street, in lattice updates per second (LUPS), one device.

The paper compares Neon against Taichi on domains 4096x1024 ..
32768x8192 and finds the two within a few percent of each other.  Here
the Taichi role is played by the hand-written NumPy implementation
(:class:`repro.baselines.NativeKarman`) running the *identical*
algorithm, and domains are scaled down (same 4:1 aspect ratio) to what
wall-clock NumPy can sweep.  Where a C compiler exists the framework side
runs its generated-C step (:mod:`repro.codegen.lattice_kernels`).  Reported per domain: framework LUPS,
native LUPS, and their ratio (the paper's "speedup" column).
"""

import pytest

from repro import codegen
from repro.baselines import NativeKarman
from repro.bench import format_table, lups, save_result, wall_time
from repro.skeleton import Occ
from repro.solvers.lbm import KarmanVortexStreet
from repro.system import Backend

DOMAINS = [(64, 256), (128, 512), (192, 768), (256, 1024)]
ITERS = 5


def measure(shape) -> dict:
    fw = KarmanVortexStreet(Backend.sim_gpus(1), shape, reynolds=150.0)
    nat = NativeKarman(shape, reynolds=150.0)
    t_fw = wall_time(lambda: fw.step(ITERS), repeats=2, warmup=1)
    t_nat = wall_time(lambda: nat.step(ITERS), repeats=2, warmup=1)
    cells = shape[0] * shape[1]
    return {
        "neon_lups": lups(cells, ITERS, t_fw),
        "native_lups": lups(cells, ITERS, t_nat),
        "speedup": t_nat / t_fw,
        "model_lups": fw.lups(),
    }


def test_table1_karman_lups(benchmark, show):
    results = benchmark.pedantic(lambda: {s: measure(s) for s in DOMAINS}, rounds=1, iterations=1)
    rows = [
        [
            f"{s[1]}x{s[0]}",
            r["neon_lups"] / 1e6,
            r["native_lups"] / 1e6,
            r["speedup"],
            r["model_lups"] / 1e6,
        ]
        for s, r in results.items()
    ]
    show(
        format_table(
            ["domain", "Neon MLUPS (wall)", "native MLUPS (wall)", "speedup", "Neon MLUPS (model)"],
            rows,
            title="Table I: 2-D Karman vortex street, 1 device",
        )
    )
    save_result("table1_karman", {f"{s[1]}x{s[0]}": r for s, r in results.items()})
    for r in results.values():
        # the paper's direction, Neon >= Taichi (0.98..1.14 on GPUs): with
        # its generated-C step the framework must beat the NumPy comparator;
        # without a compiler both sides are NumPy and stay on the same order
        assert r["speedup"] > (1.0 if codegen.available() else 0.3)
