"""Bench regression checking: did this change make the numbers worse?

Compares two ``BENCH_<exp>.json`` documents (see
:func:`repro.bench.harness.read_bench_json`) result-by-result, joined
on each entry's ``label``.  A finding is flagged when a metric moved
past ``threshold`` in the *bad* direction — wall-clock or simulated
makespan up, MLUPS down — plus tail-latency regressions in the
``percentiles`` annotation (p99 up) and fusion regressions in the
``fusion`` annotation (static ``fusion_ratio`` down — chains broke — or
a per-mode measured ``fusion_speedup`` down).  Improvements are
reported as notes, never as failures.

The checker is deliberately a *soft* gate by default: miniature wall
clocks on shared CI hosts are noisy, so CI runs it warn-only
(``python -m repro report --compare old new``), and ``--strict`` exists
for local use and for metrics that are deterministic (simulated
makespans do not jitter).
"""

from __future__ import annotations

from dataclasses import dataclass

#: metric key -> direction ("up" is bad / "down" is bad)
_RESULT_METRICS = {
    "wall_clock_s": "up",
    "sim_makespan_s": "up",
    "mlups": "down",
    "fusion_ratio": "down",
}

#: sim-derived metrics don't jitter: regressions there are real at any size
_DETERMINISTIC = ("sim_makespan_s",)


class BenchLabelMismatch(ValueError):
    """Two bench files disagree on which result labels exist.

    A label present in only one file means the comparison would silently
    ignore that configuration — in a gate, that's a hole, not a skip.
    Raised by :func:`check_regression` (``report --compare``) so callers
    get a typed, explainable failure instead of a partial verdict.
    """

    def __init__(self, only_old: set, only_new: set):
        self.only_old = frozenset(only_old)
        self.only_new = frozenset(only_new)
        parts = []
        if only_old:
            parts.append("only in the old file: " + ", ".join(sorted(only_old)))
        if only_new:
            parts.append("only in the new file: " + ", ".join(sorted(only_new)))
        super().__init__("bench result labels do not match; " + "; ".join(parts))


@dataclass(frozen=True)
class Finding:
    """One metric delta between the two documents."""

    label: str  # result label (or "percentiles:<metric>{labels}")
    metric: str
    old: float
    new: float
    delta: float  # relative change, signed ((new-old)/old)
    regression: bool  # moved past threshold in the bad direction

    def __str__(self) -> str:
        arrow = "REGRESSION" if self.regression else "ok"
        return (
            f"[{arrow}] {self.label} {self.metric}: "
            f"{self.old:.4g} -> {self.new:.4g} ({100 * self.delta:+.1f}%)"
        )


def _rel(old: float, new: float) -> float:
    return (new - old) / old if old else 0.0


def _is_bad(delta: float, direction: str, threshold: float) -> bool:
    return delta > threshold if direction == "up" else delta < -threshold


def compare_docs(old: dict, new: dict, threshold: float = 0.25) -> list[Finding]:
    """All metric deltas between two bench documents, regressions flagged.

    ``threshold`` is the relative change past which a bad-direction move
    counts as a regression (0.25 = 25%).
    """
    findings: list[Finding] = []
    old_results = {r.get("label"): r for r in old.get("results", [])}
    for new_r in new.get("results", []):
        label = new_r.get("label")
        old_r = old_results.get(label)
        if old_r is None:
            continue  # new configuration: nothing to compare against
        for metric, direction in _RESULT_METRICS.items():
            if metric not in old_r or metric not in new_r:
                continue
            ov, nv = float(old_r[metric]), float(new_r[metric])
            delta = _rel(ov, nv)
            findings.append(
                Finding(
                    label=label,
                    metric=metric,
                    old=ov,
                    new=nv,
                    delta=delta,
                    regression=_is_bad(delta, direction, threshold),
                )
            )

    # tail-latency percentiles, joined on metric + labels
    old_pct = _flatten_percentiles(old.get("percentiles", {}))
    for key, new_summary in _flatten_percentiles(new.get("percentiles", {})).items():
        old_summary = old_pct.get(key)
        if old_summary is None:
            continue
        for q in ("p50", "p99"):
            if q not in old_summary or q not in new_summary:
                continue
            ov, nv = float(old_summary[q]), float(new_summary[q])
            delta = _rel(ov, nv)
            findings.append(
                Finding(
                    label=f"percentiles:{key}",
                    metric=q,
                    old=ov,
                    new=nv,
                    delta=delta,
                    regression=_is_bad(delta, "up", threshold),
                )
            )

    # measured fused-vs-unfused speedup per mode
    old_speedup = old.get("fusion", {}).get("speedup", {})
    for mode, nv in new.get("fusion", {}).get("speedup", {}).items():
        if mode not in old_speedup:
            continue
        ov, nv = float(old_speedup[mode]), float(nv)
        delta = _rel(ov, nv)
        findings.append(
            Finding(
                label=f"fusion:{mode}",
                metric="fusion_speedup",
                old=ov,
                new=nv,
                delta=delta,
                regression=_is_bad(delta, "down", threshold),
            )
        )
    return findings


def _flatten_percentiles(percentiles: dict) -> dict[str, dict]:
    """``{metric: [{labels, ...summary}]}`` -> ``{"metric{a=1}": summary}``."""
    flat: dict[str, dict] = {}
    for metric, series in percentiles.items():
        for s in series:
            labels = ",".join(f"{k}={v}" for k, v in sorted(s.get("labels", {}).items()))
            flat[f"{metric}{{{labels}}}"] = s
    return flat


def check_regression(old_path, new_path, threshold: float = 0.25) -> tuple[list[Finding], bool]:
    """Load, compare, and judge two bench files.

    Returns ``(findings, ok)``; ``ok`` is False iff any regression was
    flagged.  Callers decide whether that fails the build (CI runs
    warn-only by default).  Raises :class:`BenchLabelMismatch` when the
    two files disagree on which result labels exist.
    """
    from .harness import read_bench_json  # noqa: PLC0415 - avoid cycle at import

    old, new = read_bench_json(old_path), read_bench_json(new_path)
    old_labels = {r.get("label") for r in old.get("results", [])}
    new_labels = {r.get("label") for r in new.get("results", [])}
    if old_labels != new_labels:
        raise BenchLabelMismatch(old_labels - new_labels, new_labels - old_labels)
    findings = compare_docs(old, new, threshold)
    return findings, not any(f.regression for f in findings)


def render(findings: list[Finding], threshold: float) -> str:
    """Human-readable comparison summary (regressions first)."""
    if not findings:
        return "no comparable metrics between the two documents"
    ordered = sorted(findings, key=lambda f: (not f.regression, f.label, f.metric))
    lines = [f"bench comparison (threshold {100 * threshold:.0f}%):"]
    lines += [f"  {f}" for f in ordered]
    n = sum(1 for f in findings if f.regression)
    lines.append(f"  => {n} regression(s), {len(findings) - n} within bounds")
    return "\n".join(lines)


__all__ = ["BenchLabelMismatch", "Finding", "check_regression", "compare_docs", "render"]
