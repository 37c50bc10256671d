"""Free-form domain builders: boolean mask geometry for sparse grids.

The paper motivates Neon with free-form engineering domains ("as in most
engineering problems, the domain is free-form, i.e. not a cubic") and
its Listing 1 builds a circular 2-D domain.  These helpers construct the
boolean activity masks such domains are made of, with a tiny composable
CSG algebra (union / intersection / difference) over numpy arrays.

All shapes take the grid ``shape`` and return a boolean array of that
shape, True = active cell.  Coordinates are cell indices; axis 0 is the
partitioned axis.
"""

from __future__ import annotations

import numpy as np


def _grids(shape: tuple[int, ...]) -> list[np.ndarray]:
    return np.meshgrid(*[np.arange(s, dtype=np.float64) for s in shape], indexing="ij")


def full(shape: tuple[int, ...]) -> np.ndarray:
    """Every cell active (a dense box)."""
    return np.ones(shape, dtype=bool)


def ball(shape: tuple[int, ...], center: tuple[float, ...] | None = None, radius: float | None = None) -> np.ndarray:
    """An n-sphere; defaults to the largest ball centred in the box."""
    if center is None:
        center = tuple((s - 1) / 2.0 for s in shape)
    if radius is None:
        radius = 0.45 * min(shape)
    if len(center) != len(shape):
        raise ValueError(f"center {center} does not match shape {shape}")
    grids = _grids(shape)
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return r2 <= radius**2


def box(shape: tuple[int, ...], lo: tuple[int, ...], hi: tuple[int, ...]) -> np.ndarray:
    """An axis-aligned box with cells in ``[lo, hi)`` per axis."""
    if not (len(lo) == len(hi) == len(shape)):
        raise ValueError("lo/hi must match the grid dimensionality")
    out = np.zeros(shape, dtype=bool)
    out[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    return out


def cylinder(
    shape: tuple[int, int, int],
    axis: int = 0,
    center: tuple[float, float] | None = None,
    radius: float | None = None,
) -> np.ndarray:
    """A circular cylinder along one axis of a 3-D box."""
    if len(shape) != 3:
        raise ValueError("cylinder needs a 3-D grid")
    lateral = [a for a in range(3) if a != axis]
    if center is None:
        center = tuple((shape[a] - 1) / 2.0 for a in lateral)
    if radius is None:
        radius = 0.45 * min(shape[a] for a in lateral)
    grids = _grids(shape)
    r2 = (grids[lateral[0]] - center[0]) ** 2 + (grids[lateral[1]] - center[1]) ** 2
    return r2 <= radius**2


def shell(shape: tuple[int, ...], inner: float, outer: float, center: tuple[float, ...] | None = None) -> np.ndarray:
    """A hollow spherical shell: inner < r <= outer."""
    if inner >= outer:
        raise ValueError("inner radius must be smaller than outer")
    return ball(shape, center, outer) & ~ball(shape, center, inner)


def union(*masks: np.ndarray) -> np.ndarray:
    out = masks[0].copy()
    for m in masks[1:]:
        out |= m
    return out


def intersection(*masks: np.ndarray) -> np.ndarray:
    out = masks[0].copy()
    for m in masks[1:]:
        out &= m
    return out


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a & ~b
