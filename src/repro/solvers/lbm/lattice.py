"""Lattice-Boltzmann velocity sets and kinetic helpers.

Defines the D3Q19 and D2Q9 lattices (velocities, quadrature weights,
opposite directions) and the BGK machinery shared by the grid-based
solvers and the native baselines: second-order equilibrium distribution,
macroscopic moments and the BGK collision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: the squared lattice speed of sound of both velocity sets; the
#: equilibrium's 3, 4.5 and 1.5 are 1 / cs2, 1 / (2 cs2^2) and 1 / (2 cs2)
CS2 = 1.0 / 3.0


@dataclass(frozen=True)
class LatticeSpec:
    """One discrete velocity set with its quadrature weights."""

    name: str
    velocities: np.ndarray  # (Q, ndim) int
    weights: np.ndarray  # (Q,)
    opposite: np.ndarray = field(init=False)  # (Q,) index of -e_q

    def __post_init__(self) -> None:
        v, w = self.velocities, self.weights
        if v.shape[0] != w.shape[0]:
            raise ValueError("velocity/weight count mismatch")
        if not np.isclose(w.sum(), 1.0):
            raise ValueError(f"weights of {self.name} must sum to 1, got {w.sum()}")
        opp = np.full(len(v), -1, dtype=np.int64)
        for q, e in enumerate(v):
            matches = np.where((v == -e).all(axis=1))[0]
            if len(matches) != 1:
                raise ValueError(f"{self.name}: velocity {e} has no unique opposite")
            opp[q] = matches[0]
        object.__setattr__(self, "opposite", opp)

    @property
    def q(self) -> int:
        return len(self.velocities)

    @property
    def ndim(self) -> int:
        return self.velocities.shape[1]

    def equilibrium(self, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Second-order BGK equilibrium.

        ``rho`` has any shape S, ``u`` has shape (ndim, *S); the result
        has shape (Q, *S).
        """
        out = np.empty((self.q, *np.shape(rho)), dtype=np.float64)
        for qi, feq in self.equilibrium_directions(rho, u):
            out[qi] = feq
        return out

    def equilibrium_directions(self, rho: np.ndarray, u: np.ndarray):
        """Yield ``(q, feq_q)`` in direction order: :meth:`equilibrium`
        one direction at a time, without the ``(Q, *S)`` result array.
        Each ``feq_q`` is a fresh array the caller may overwrite."""
        usq = np.zeros_like(rho, dtype=np.float64)
        for d in range(self.ndim):
            usq = usq + u[d] * u[d]
        for qi in range(self.q):
            eu = np.zeros_like(rho, dtype=np.float64)
            for d in range(self.ndim):
                if self.velocities[qi, d]:
                    eu = eu + self.velocities[qi, d] * u[d]
            yield qi, self.weights[qi] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq)

    def collide(self, f: np.ndarray, omega: float) -> np.ndarray:
        """BGK relaxation of distributions of shape (Q, *S) towards their equilibrium."""
        rho, u = self.moments(f)
        return f + omega * (self.equilibrium(rho, u) - f)

    def moments(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Density and velocity from distributions of shape (Q, *S)."""
        rho = f.sum(axis=0)
        u = np.zeros((self.ndim, *f.shape[1:]), dtype=np.float64)
        for qi in range(self.q):
            for d in range(self.ndim):
                if self.velocities[qi, d]:
                    u[d] += self.velocities[qi, d] * f[qi]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(rho > 0, u / rho, 0.0)
        return rho, u


def _d3q19() -> LatticeSpec:
    vels = [(0, 0, 0)]
    weights = [1.0 / 3.0]
    for axis in range(3):
        for s in (-1, 1):
            e = [0, 0, 0]
            e[axis] = s
            vels.append(tuple(e))
            weights.append(1.0 / 18.0)
    for a in range(3):
        for b in range(a + 1, 3):
            for sa in (-1, 1):
                for sb in (-1, 1):
                    e = [0, 0, 0]
                    e[a], e[b] = sa, sb
                    vels.append(tuple(e))
                    weights.append(1.0 / 36.0)
    return LatticeSpec("D3Q19", np.array(vels, dtype=np.int64), np.array(weights))


def _d2q9() -> LatticeSpec:
    vels = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
    weights = [4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 36, 1 / 36, 1 / 36, 1 / 36]
    return LatticeSpec("D2Q9", np.array(vels, dtype=np.int64), np.array(weights))


D3Q19 = _d3q19()
D2Q9 = _d2q9()


def omega_from_reynolds(reynolds: float, char_velocity: float, char_length: float) -> float:
    """BGK relaxation rate for a target Reynolds number (lattice units)."""
    nu = char_velocity * char_length / reynolds
    tau = 3.0 * nu + 0.5
    return 1.0 / tau
