"""Closing the loop: recalibrate the machine model from observed timings.

A tuning decision is only as good as the :class:`MachineSpec` behind it.
This module watches measured kernel timings (wall-clock spans from the
observability tracer, or samples the caller collected any other way),
fits per-device :class:`~repro.sim.machine.DeviceSpec`s with
:mod:`repro.sim.calibrate`, and — when the current model's relative RMS
error on the observations exceeds a threshold — produces a corrected
machine and re-runs the tuner search against it.

The flow mirrors production autotuners: tune, run, observe, refit,
re-tune only when the model demonstrably drifted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.calibrate import KernelSample, fit_device, fit_quality
from repro.sim.machine import MachineSpec

from .search import TunePlan, tune_workload


def _program_costs(result) -> dict[str, tuple[int, object]]:
    """Map each compiled kernel step's label to (rank, KernelCost)."""
    costs: dict[str, tuple[int, object]] = {}
    for step in result.plan._ensure_program().steps:
        if step.kind == "kernel" and step.command is not None:
            costs[step.label] = (step.rank, step.command.cost)
    return costs


def kernel_samples_from_trace(spans, result, metrics=None) -> dict[int, list[KernelSample]]:
    """Join observability kernel spans with the recorded kernel costs.

    ``spans`` are :class:`~repro.observability.tracer.TraceSpan`s (the
    executor records one per kernel launch, ``cat="kernel"``,
    ``pid="device<rank>"``); ``result`` is the skeleton's
    :class:`ExecutionResult`, whose compiled program knows each label's
    :class:`KernelCost`.  The join key is the launch label, which the
    executor and the scheduler derive from the same step metadata.

    When ``spans`` yields no kernel samples (tracer disabled or dropped)
    and ``metrics`` is given, falls back to
    :func:`samples_from_metrics` — histogram summaries carry less
    information than individual spans (one mean-weighted sample per
    site instead of one per launch) but keep the recalibration loop
    alive on metrics-only deployments.
    """
    costs = _program_costs(result)
    samples: dict[int, list[KernelSample]] = {}
    for span in spans:
        if getattr(span, "cat", None) != "kernel":
            continue
        hit = costs.get(span.name)
        if hit is None:
            continue
        rank, cost = hit
        samples.setdefault(rank, []).append(
            KernelSample(
                bytes_moved=cost.bytes_moved * cost.indirection,
                launches=cost.launches,
                seconds=span.duration,
            )
        )
    if not samples and metrics is not None:
        return samples_from_metrics(metrics, result)
    return samples


def samples_from_metrics(metrics, result) -> dict[int, list[KernelSample]]:
    """Build calibration samples from ``kernel_seconds`` histograms.

    ``metrics`` is a :class:`~repro.observability.metrics.MetricsRegistry`
    whose ``kernel_seconds{device,kernel}`` series were populated by the
    instrumented launch path.  Each series contributes one
    :class:`KernelSample` with ``seconds`` = the series mean (the
    distribution is collapsed — that is the price of the aggregated
    representation), joined to the program's :class:`KernelCost` by the
    kernel label exactly like the span-based path.
    """
    costs = _program_costs(result)
    samples: dict[int, list[KernelSample]] = {}
    for summary in metrics.histogram_summaries("kernel_seconds"):
        if not summary.get("count"):
            continue
        hit = costs.get(summary.get("labels", {}).get("kernel"))
        if hit is None:
            continue
        rank, cost = hit
        samples.setdefault(rank, []).append(
            KernelSample(
                bytes_moved=cost.bytes_moved * cost.indirection,
                launches=cost.launches,
                seconds=summary["mean"],
            )
        )
    return samples


@dataclass
class CalibrationReport:
    """How well the current machine model explains the observations."""

    quality: dict[int, float]  # per-rank relative RMS error of the current spec
    fitted: dict[int, object]  # per-rank freshly fitted DeviceSpec

    @property
    def worst_quality(self) -> float:
        return max(self.quality.values()) if self.quality else 0.0


class Recalibrator:
    """Observe, refit, and re-tune when the machine model drifts.

    ``quality_threshold`` is the relative RMS error above which the
    current model is declared stale (0.25 = predictions off by ~25%).
    """

    def __init__(self, machine: MachineSpec, quality_threshold: float = 0.25):
        self.machine = machine
        self.quality_threshold = quality_threshold
        self._samples: dict[int, list[KernelSample]] = {}
        self.last_report: CalibrationReport | None = None

    # -- sample intake -----------------------------------------------------
    def observe(self, rank: int, bytes_moved: float, launches: int, seconds: float) -> None:
        """Record one measured kernel on one device."""
        self._samples.setdefault(rank, []).append(
            KernelSample(bytes_moved=bytes_moved, launches=launches, seconds=seconds)
        )

    def ingest(self, samples: dict[int, list[KernelSample]]) -> None:
        """Merge a batch of samples (e.g. from kernel_samples_from_trace)."""
        for rank, batch in samples.items():
            self._samples.setdefault(rank, []).extend(batch)

    def ingest_metrics(self, metrics, result) -> None:
        """Merge samples distilled from ``kernel_seconds`` histograms."""
        self.ingest(samples_from_metrics(metrics, result))

    # -- model assessment --------------------------------------------------
    def check(self) -> CalibrationReport:
        """Fit each observed device and score the *current* model on the
        same samples; ranks with fewer than two samples are skipped."""
        quality: dict[int, float] = {}
        fitted: dict[int, object] = {}
        for rank, batch in self._samples.items():
            if len(batch) < 2:
                continue
            quality[rank] = fit_quality(batch, self.machine.device_spec(rank))
            try:
                fitted[rank] = fit_device(batch, flops=self.machine.device_spec(rank).flops)
            except ValueError:
                # degenerate sample set (no bandwidth signal): keep old spec
                fitted[rank] = self.machine.device_spec(rank)
        self.last_report = CalibrationReport(quality=quality, fitted=fitted)
        return self.last_report

    @property
    def stale(self) -> bool:
        report = self.last_report or self.check()
        return report.worst_quality > self.quality_threshold

    def refit(self) -> MachineSpec:
        """Corrected machine: stale ranks get their fitted DeviceSpec."""
        report = self.last_report or self.check()
        overrides = {
            rank: report.fitted[rank]
            for rank, q in report.quality.items()
            if q > self.quality_threshold and rank in report.fitted
        }
        if not overrides:
            return self.machine
        return self.machine.with_device_overrides(overrides)

    def maybe_retune(self, experiment: str, devices: int = 4, **tune_kwargs) -> TunePlan | None:
        """Re-run the tuner search iff the model drifted past threshold.

        On drift the corrected machine replaces :attr:`machine` (so the
        next drift check compares against the *new* model) and the fresh
        :class:`TunePlan` — carrying the measured ``fit_quality`` that
        triggered it — is returned; otherwise ``None``.
        """
        report = self.check()
        if report.worst_quality <= self.quality_threshold:
            return None
        self.machine = self.refit()
        plan = tune_workload(experiment, self.machine, devices=devices, **tune_kwargs)
        plan.fit_quality = report.worst_quality
        self._samples = {}
        self.last_report = None
        return plan


__all__ = [
    "CalibrationReport",
    "Recalibrator",
    "kernel_samples_from_trace",
    "samples_from_metrics",
]
