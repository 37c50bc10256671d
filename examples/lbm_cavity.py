"""Lid-driven cavity flow with the D3Q19 twoPop LBM solver (paper VI-A).

Runs the physics on a small grid, prints the centreline velocity profile
(the classic validation curve for cavity flow), then sweeps simulated
GPU counts to show the strong-scaling behaviour of Fig 7.

Run:  python examples/lbm_cavity.py
"""

import numpy as np

from repro.bench import format_table, parallel_efficiency
from repro.core import Backend, Occ
from repro.sim import dgx_a100
from repro.solvers.lbm import LidDrivenCavity


def main():
    # -- physics on one device ------------------------------------------------
    cav = LidDrivenCavity(Backend.sim_gpus(2), (24, 24, 24), omega=1.2, lid_velocity=0.1)
    print("running 200 lid-driven cavity steps on 2 simulated GPUs ...")
    cav.step(200)
    rho, u = cav.macroscopic()
    print(f"mass drift: {abs(cav.total_mass() / (1.0 * cav.grid.num_cells) - 1.0):.2e}")

    print("\ncentreline x-velocity profile u_x(z) / U_lid (cavity mid-plane):")
    mid = 12
    profile = u[2][:, mid, mid] / 0.1
    for z in range(0, 24, 3):
        bar = "#" * int(40 * max(0.0, profile[z] + 0.25))
        print(f"  z={z:2d}  {profile[z]:+.3f}  {bar}")
    assert profile[-1] > 0.1, "flow near the lid should follow the lid"

    # -- strong scaling under the machine model -------------------------------
    print("\nstrong scaling of a 256^3 cavity (DGX-A100 model, standard OCC):")
    size = 256
    t1 = LidDrivenCavity(
        Backend.sim_gpus(1, machine=dgx_a100(1)), (size,) * 3, occ=Occ.NONE, virtual=True
    ).iteration_makespan()
    rows = []
    for n in (1, 2, 4, 8):
        cavn = LidDrivenCavity(
            Backend.sim_gpus(n, machine=dgx_a100(n)), (size,) * 3, occ=Occ.STANDARD, virtual=True
        )
        tn = cavn.iteration_makespan()
        rows.append([n, tn * 1e3, cavn.lups() / 1e6, parallel_efficiency(t1, tn, n)])
    print(format_table(["GPUs", "ms/iter", "MLUPS", "efficiency"], rows))


if __name__ == "__main__":
    main()
