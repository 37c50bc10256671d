"""Table II: single-device D3Q19 LBM throughput (MLUPS) across variants.

Roles (see DESIGN.md): the fused native twoPop plays cuboltz (the CUDA
benchmark), the two-pass native variant plays stlbm's CPA twoPop, the
A-A native variant plays stlbm AA, and the framework solver is Neon's
twoPop.

GPU LBM is memory-bandwidth bound, so the paper's ordering is a memory
traffic statement: the fused kernel touches each population twice per
cell per step (304 B), the two-pass variant four times (608 B), and the
A-A pattern twice but with a less regular access pattern.  Those traffic
figures drive the cost-model MLUPS, where the paper's claims are
asserted: Neon within ~1% of cuboltz, both ahead of the stlbm variants.
Wall-clock numbers are reported alongside.  The native variants are
NumPy; where a C compiler exists Neon runs its generated, vectorised
collide-stream kernel (:mod:`repro.codegen.lattice_kernels`), so the
wall column measures kernel technology and only the paper's direction
is asserted on it (Neon >= cuboltz).  Without a compiler every side is
NumPy, interpreter overhead dominates, and the walls are only held to
one order of magnitude.
"""

import pytest

from repro import codegen
from repro.baselines import NativeCavity, NativeLBM
from repro.bench import format_table, mlups, save_result, wall_time
from repro.sim import dgx_a100, kernel_duration
from repro.solvers.lbm import LidDrivenCavity
from repro.system import Backend, KernelCost

SHAPE = (48, 48, 48)
ITERS = 3
CELLS = SHAPE[0] * SHAPE[1] * SHAPE[2]

# per-cell DRAM traffic of each variant (19 populations x 8 B, counted
# once per read and once per write per pass) and access-pattern penalty
VARIANT_MODEL = {
    "cuboltz (fused twoPop)": ("twopop", KernelCost(bytes_moved=304.0 * CELLS, flops=350.0 * CELLS)),
    "stlbm twoPop (two-pass)": ("swap", KernelCost(bytes_moved=608.0 * CELLS, flops=350.0 * CELLS)),
    "stlbm AA": ("aa", KernelCost(bytes_moved=304.0 * CELLS, flops=350.0 * CELLS, indirection=1.08)),
}


def test_table2_lbm_variants(benchmark, show):
    def run():
        spec = dgx_a100(1).device
        out = {}
        for label, (variant, cost) in VARIANT_MODEL.items():
            model = CELLS / kernel_duration(cost, spec) / 1e6
            if variant == "twopop":
                # the cuboltz role runs the *same* cavity workload as Neon
                sim = NativeCavity(SHAPE, omega=1.0)
            else:
                sim = NativeLBM(SHAPE, omega=1.0, variant=variant)
            t_wall = wall_time(lambda: sim.step(ITERS), repeats=2, warmup=1)
            out[label] = {"wall_mlups": mlups(CELLS, ITERS, t_wall), "model_mlups": model}
        fw = LidDrivenCavity(Backend.sim_gpus(1), SHAPE, omega=1.0)
        t_wall = wall_time(lambda: fw.step(ITERS), repeats=2, warmup=1)
        out["Neon twoPop"] = {"wall_mlups": mlups(CELLS, ITERS, t_wall), "model_mlups": fw.mlups()}
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[k, v["model_mlups"], v["wall_mlups"]] for k, v in results.items()]
    show(
        format_table(
            ["variant", "MLUPS (model)", "MLUPS (wall)"],
            rows,
            title=f"Table II: D3Q19 cavity {SHAPE}, 1 device",
        )
    )
    save_result("table2_lbm_variants", results)

    model = {k: v["model_mlups"] for k, v in results.items()}
    # Neon twoPop within ~1% of the native CUDA-role benchmark
    assert model["Neon twoPop"] / model["cuboltz (fused twoPop)"] > 0.99
    # both fused implementations beat the stlbm variants
    for slow in ("stlbm twoPop (two-pass)", "stlbm AA"):
        assert model["Neon twoPop"] > model[slow]
        assert model["cuboltz (fused twoPop)"] > model[slow]
    walls = {k: v["wall_mlups"] for k, v in results.items()}
    if codegen.available():
        # the paper's direction: Neon's generated C at least matches the
        # NumPy cuboltz role (a ratio bound would trip on the C side's lead)
        assert walls["Neon twoPop"] >= walls["cuboltz (fused twoPop)"]
    else:
        # all NumPy: everything on the same order of magnitude
        assert max(walls.values()) / min(walls.values()) < 20.0
