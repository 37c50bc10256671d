"""Lattice-Boltzmann solvers: one twoPop application shell
(:class:`~.twopop.TwoPop`) and its two flows, the D3Q19 lid-driven
cavity and the D2Q9 Kármán street, each supplying only its geometry,
rest state and step container."""

from .d2q9 import KarmanVortexStreet, cylinder_mask, make_karman_container
from .d3q19 import LidDrivenCavity, make_twopop_container
from .lattice import D2Q9, D3Q19, LatticeSpec, omega_from_reynolds
from .unfused import make_collide_container, make_stream_container, make_unfused_step

__all__ = [
    "D2Q9",
    "D3Q19",
    "KarmanVortexStreet",
    "LatticeSpec",
    "LidDrivenCavity",
    "cylinder_mask",
    "make_collide_container",
    "make_karman_container",
    "make_stream_container",
    "make_twopop_container",
    "make_unfused_step",
    "omega_from_reynolds",
]
