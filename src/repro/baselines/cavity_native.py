"""Raw-NumPy D3Q19 lid-driven cavity: the cuboltz-role baseline on the
*same workload* the framework solver runs.

Algorithm-identical to :class:`repro.solvers.lbm.d3q19.LidDrivenCavity`
(pull scheme, sentinel halfway bounce-back, moving-lid correction) but
written directly against padded arrays — the two must agree to machine
precision, so wall-clock differences isolate framework overhead, exactly
the comparison the paper's Table II makes against cuboltz.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.lbm.d3q19 import RHO0
from repro.solvers.lbm.lattice import D3Q19, LatticeSpec


#: cells per slab: the ~10 live temporaries of one slab's step then fit in L2
SLAB_CELLS = 1 << 14


def _shift(a: np.ndarray, off: tuple[int, int, int], fill: float, z0: int, z1: int) -> np.ndarray:
    """Value at x + off for the planes ``z0 <= z < z1``, non-periodic, ``fill`` outside the box."""
    out = np.full((z1 - z0, *a.shape[1:]), fill, dtype=a.dtype)
    lo, hi = max(z0, -off[0]), min(z1, a.shape[0] - off[0])
    if hi <= lo:
        return out
    src, dst = [slice(lo + off[0], hi + off[0])], [slice(lo - z0, hi - z0)]
    for d, size in zip(off[1:], a.shape[1:]):
        src.append(slice(max(d, 0), size + min(d, 0)))
        dst.append(slice(max(-d, 0), size + min(-d, 0)))
    out[tuple(dst)] = a[tuple(src)]
    return out


class NativeCavity:
    """Hand-written fused twoPop lid-driven cavity (one device)."""

    SENTINEL = -1.0

    def __init__(
        self,
        shape: tuple[int, int, int],
        omega: float = 1.0,
        lid_velocity: float = 0.05,
        lattice: LatticeSpec = D3Q19,
    ):
        self.shape = shape
        self.omega = omega
        self.lid_velocity = lid_velocity
        self.lattice = lattice
        rho = np.ones(shape)
        self.f = lattice.equilibrium(rho, np.zeros((3, *shape)))
        self._pulled = np.empty_like(self.f)

    def step(self, iterations: int = 1) -> None:
        """``iterations`` twoPop steps between two fixed buffers.

        ``f`` stays the same array: each step pulls it into a second one
        and collides back into it, one z-slab of about :data:`SLAB_CELLS`
        cells at a time, so no step allocates a ``(Q, *shape)`` temporary
        (a fresh mapping above the allocator's mmap threshold, page-faulted
        on every step) and a slab's temporaries stay in cache.  The pull
        runs one slab ahead of the collision: slab ``k + 1`` reads the last
        plane of slab ``k`` before the collision overwrites it.  Every
        operation is per cell, so the bits do not depend on the slab.
        """
        nz = self.shape[0]
        slab = max(1, SLAB_CELLS // (self.shape[1] * self.shape[2]))
        slabs = [(z0, min(z0 + slab, nz)) for z0 in range(0, nz, slab)]
        for _ in range(iterations):
            self._pull(*slabs[0])
            for k, (z0, z1) in enumerate(slabs):
                if k + 1 < len(slabs):
                    self._pull(*slabs[k + 1])
                self._collide(z0, z1)

    def _pull(self, z0: int, z1: int) -> None:
        """Streamed populations of planes ``[z0, z1)`` into the second buffer."""
        lat, f, nz = self.lattice, self.f, self.shape[0]
        fin = self._pulled[:, z0:z1]
        z = np.arange(z0, z1)[:, None, None]
        for q in range(lat.q):
            e = lat.velocities[q]
            if not e.any():
                fin[q] = f[q, z0:z1]
                continue
            off = (int(-e[0]), int(-e[1]), int(-e[2]))
            g = _shift(f[q], off, self.SENTINEL, z0, z1)
            bb = f[lat.opposite[q], z0:z1]
            if e[0] < 0 and self.lid_velocity != 0.0:
                corr = 6.0 * lat.weights[q] * RHO0 * (e[2] * self.lid_velocity)
                from_lid = np.broadcast_to(z + off[0] >= nz, g.shape)
                bb = bb + np.where(from_lid, corr, 0.0)
            fin[q] = np.where(g <= self.SENTINEL + 0.5, bb, g)

    def _collide(self, z0: int, z1: int) -> None:
        """``f = fin + omega * (feq - fin)`` on planes ``[z0, z1)``."""
        fin, f = self._pulled[:, z0:z1], self.f[:, z0:z1]
        rho, u = self.lattice.moments(fin)
        for q, feq in self.lattice.equilibrium_directions(rho, u):
            np.subtract(feq, fin[q], out=feq)
            np.multiply(self.omega, feq, out=feq)
            np.add(fin[q], feq, out=f[q])

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lattice.moments(self.f)

    def total_mass(self) -> float:
        return float(self.f.sum())

    @property
    def num_cells(self) -> int:
        return self.shape[0] * self.shape[1] * self.shape[2]
