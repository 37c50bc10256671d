"""Benchmark metrics used throughout the paper's evaluation section."""

from __future__ import annotations


def parallel_efficiency(t_baseline: float, t_n: float, n: int) -> float:
    """Strong-scaling efficiency: Efficiency(n) = t_baseline / (n * t_n).

    Exactly the paper's definition — ``t_baseline`` is the single-GPU
    baseline time, ``t_n`` the time on n GPUs; 1.0 is ideal.
    """
    if t_baseline <= 0 or t_n <= 0 or n < 1:
        raise ValueError("times must be positive and n >= 1")
    return t_baseline / (n * t_n)


def mlups(num_cells: int, iterations: int, seconds: float) -> float:
    """Million lattice-cell updates per second (Table II metric)."""
    if seconds <= 0 or num_cells < 0 or iterations < 0:
        raise ValueError("invalid MLUPS inputs")
    return num_cells * iterations / seconds / 1e6


def lups(num_cells: int, iterations: int, seconds: float) -> float:
    """Lattice updates per second (Table I metric)."""
    return mlups(num_cells, iterations, seconds) * 1e6
