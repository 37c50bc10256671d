"""Raw-NumPy D2Q9 Kármán vortex street: the Table I comparator.

Plays the role of the Taichi implementation in the paper's single-GPU
LUPS comparison.  Algorithmically identical to
:class:`repro.solvers.lbm.d2q9.KarmanVortexStreet` (same pull scheme,
bounce-back, inflow/outflow treatment) but written directly against
padded NumPy arrays with no framework in the loop — so the two must
produce bitwise-comparable physics while differing only in overhead.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.lbm.d2q9 import cylinder_mask
from repro.solvers.lbm.lattice import D2Q9, LatticeSpec, omega_from_reynolds
from repro.solvers.lbm.twopop import RHO0


def _shift(a: np.ndarray, off: tuple[int, int], fill: float) -> np.ndarray:
    """Value at x + off, non-periodic, ``fill`` outside the domain."""
    out = np.full_like(a, fill)
    src = []
    dst = []
    for d, size in zip(off, a.shape):
        src.append(slice(max(d, 0), size + min(d, 0)))
        dst.append(slice(max(-d, 0), size + min(-d, 0)))
    out[tuple(dst)] = a[tuple(src)]
    return out


class NativeKarman:
    """2-D channel flow past a cylinder, hand-written kernel."""

    def __init__(
        self,
        shape: tuple[int, int],
        reynolds: float = 220.0,
        inflow_velocity: float = 0.04,
        lattice: LatticeSpec = D2Q9,
    ):
        ny, nx = shape
        self.shape = shape
        self.lattice = lattice
        self.inflow_velocity = inflow_velocity
        self.cyl_center = (ny / 2.0 + 0.5, nx / 4.0)
        self.cyl_radius = max(2.0, ny / 9.0)
        self.omega = omega_from_reynolds(reynolds, inflow_velocity, 2.0 * self.cyl_radius)
        self.mask = cylinder_mask(shape, self.cyl_center, self.cyl_radius).astype(np.float64)
        u0 = np.zeros((2, *shape))
        u0[1] = inflow_velocity
        self.f = lattice.equilibrium(np.ones(shape), u0)
        self.feq_in = lattice.equilibrium(np.float64(RHO0), np.array([0.0, inflow_velocity]))

    def step(self, iterations: int = 1) -> None:
        lat = self.lattice
        ny, nx = self.shape
        x = np.arange(nx)[None, :]
        for _ in range(iterations):
            f_prev = self.f
            fin = np.empty_like(f_prev)
            for q in range(lat.q):
                e = lat.velocities[q]
                if not e.any():
                    fin[q] = f_prev[q]
                    continue
                off = (int(-e[0]), int(-e[1]))
                g = _shift(f_prev[q], off, 0.0)
                m = _shift(self.mask, off, 0.0)
                fin[q] = np.where(m > 0.5, g, f_prev[lat.opposite[q]])
            rho, u = lat.moments(fin)
            feq = lat.equilibrium(rho, u)
            out = fin + self.omega * (feq - fin)

            fluid = self.mask > 0.5
            inflow = x == 0
            outflow = x == nx - 1
            for q in range(lat.q):
                col = np.where(inflow, self.feq_in[q], out[q])
                col = np.where(outflow, _shift(f_prev[q], (0, -1), 0.0), col)
                out[q] = np.where(fluid, col, lat.weights[q] * RHO0)
            self.f = out

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lattice.moments(self.f)

    @property
    def num_cells(self) -> int:
        return self.shape[0] * self.shape[1]
