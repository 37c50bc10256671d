"""Canonical reductions shared by the native baselines.

The framework's partition-invariant reductions (``Grid.new_reduce_partial``
/ ``SliceReduceAccessor``) sum each axis-0 slice into its own slot and
combine the slots in global slice order.  The native comparators must
reduce with the *same* summation tree to stay bitwise comparable, so the
helpers here mirror that scheme exactly: one contiguous per-slice sum
(component axis first), then one ``np.sum`` over the slice vector.
"""

from __future__ import annotations

import numpy as np


def slice_sums(values: np.ndarray) -> np.ndarray:
    """Per-slice sums of a component-first array ``(card, n0, *lateral)``.

    Each slice is copied contiguous before summing, matching
    ``SliceReduceAccessor.deposit_sums`` bit for bit.
    """
    values = np.asarray(values)
    return np.array(
        [float(np.sum(np.ascontiguousarray(values[:, i]))) for i in range(values.shape[1])]
    )


def slice_dot(x: np.ndarray, y: np.ndarray) -> float:
    """<x, y> with the framework's canonical per-slice summation tree.

    ``x`` and ``y`` are component-first ``(card, n0, *lateral)`` arrays;
    pass ``arr[None]`` for scalar fields.
    """
    return float(np.sum(slice_sums(x * y)))
