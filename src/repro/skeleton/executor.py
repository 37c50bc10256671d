"""Execution helpers and the schedule validity checker.

The paper's correctness claim for its scheduler is that the generated
stream/event structure *alone* enforces every data dependency — the
host-side task-list order only influences performance.  The checker
below verifies exactly that on a simulated trace: for every dependency
pair of pieces, the producer's span must finish before the consumer's
span starts.  Because the DES honours only stream FIFO order and event
waits, a passing check proves the synchronisation is sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observability as _obs
from repro import resilience as _res
from repro.sim import Trace

from .scheduler import ExecutionResult, Plan


@dataclass(frozen=True)
class DependencyViolation:
    producer: str
    consumer: str
    producer_end: float
    consumer_start: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.consumer} started at {self.consumer_start:.3e}s before "
            f"{self.producer} finished at {self.producer_end:.3e}s"
        )


def _piece_label(plan: Plan, piece) -> str:
    kind, uid, idx = piece
    node = plan._node_by_uid(uid)
    if kind == "c":
        return f"{node.name}[{idx}]"
    return f"{plan._halo_msgs[uid][idx].name}#{uid}"


def check_trace_dependencies(result: ExecutionResult, trace: Trace) -> list[DependencyViolation]:
    """All dependency orderings the trace violates (empty = valid schedule).

    Span names may legitimately repeat when one plan's queues are traced
    over several executions; occurrences of a repeated name are paired up
    in start-time order (run *i* of the producer against run *i* of the
    consumer).  Any other duplication is ambiguous — silently checking
    one arbitrary occurrence could mask a real violation — so it raises.
    """
    spans: dict[str, list] = {}
    for s in trace.spans:
        spans.setdefault(s.name, []).append(s)
    for occurrences in spans.values():
        occurrences.sort(key=lambda s: (s.start, s.end))
    plan = result.plan
    violations = []
    for node in plan.order:
        for piece in plan._pieces[node.uid]:
            if piece in plan._empty:
                continue
            cons = _piece_label(plan, piece)
            if cons not in spans:
                continue
            for dep in plan.dependencies(piece):
                prod = _piece_label(plan, dep)
                if prod not in spans:
                    continue
                prods, conss = spans[prod], spans[cons]
                if len(prods) == len(conss):
                    pairs = list(zip(prods, conss))
                elif len(prods) == 1:
                    # one producer run, consumer repeated: all must follow it
                    pairs = [(prods[0], c) for c in conss]
                else:
                    raise ValueError(
                        f"ambiguous duplicate spans: '{prod}' occurs {len(prods)}x but "
                        f"'{cons}' occurs {len(conss)}x; cannot pair producer and consumer "
                        f"occurrences — trace one execution at a time or use unique names"
                    )
                for p, c in pairs:
                    if p.end > c.start + 1e-15:
                        violations.append(DependencyViolation(prod, cons, p.end, c.start))
    return violations


_SCAN_CHUNK_ELEMS = 1 << 18  # ~2 MiB of float64 per isfinite temporary


def _chunked_all_finite(arr: np.ndarray) -> bool:
    """Whether every element of ``arr`` is finite, scanned chunk-wise.

    Slices along the leading axis in ~:data:`_SCAN_CHUNK_ELEMS`-element
    blocks so the ``isfinite`` temporary stays small and the scan bails
    out at the first corrupt block, instead of materialising (and fully
    reducing) a whole-field copy.
    """
    if arr.size == 0:
        return True
    if arr.ndim == 0:
        return bool(np.isfinite(arr))
    step = max(1, _SCAN_CHUNK_ELEMS * arr.shape[0] // max(arr.size, 1))
    for i in range(0, arr.shape[0], step):
        if not np.isfinite(arr[i : i + step]).all():
            return False
    return True


def _owned_views(data):
    """Per-device owned views of a Field-like object, without copies.

    Falls back to ``to_numpy()`` (one global copy) for written data that
    exposes a global view but no per-rank partitions.
    """
    partition = getattr(data, "partition", None)
    grid = getattr(data, "grid", None)
    span_for = getattr(grid, "span_for", None)
    if callable(partition) and callable(span_for):
        from repro.sets import DataView  # noqa: PLC0415 - avoid import cycle at module load

        for rank in range(data.num_devices):
            part = partition(rank)
            view_all = getattr(part, "view_all", None)
            if not callable(view_all):
                break
            yield view_all(span_for(rank, DataView.STANDARD))
        else:
            return
        yield data.to_numpy()
    else:
        yield data.to_numpy()


def scan_non_finite(containers) -> list[str]:
    """Names of written fields holding NaN/Inf after an execution.

    Only data the containers declare as written is scanned — read-only
    inputs with legitimate sentinel values never trip the guardrail, and
    the scan cost stays proportional to the state the step could have
    corrupted.  Fields are scanned per-device over their owned views,
    chunk-wise with early exit, so the guardrail never materialises a
    field-sized host copy (the old ``to_numpy()`` path) and stops at the
    first corrupt chunk.
    """
    bad: list[str] = []
    seen: set[int] = set()
    for c in containers:
        for tok in c.tokens():
            data = tok.data
            if not tok.access.writes or id(data) in seen:
                continue
            seen.add(id(data))
            # Owned cells are exactly what a checkpoint restore rewrites,
            # so every NaN this scan can see is one a rollback can clear.
            # Raw-buffer slack (halo slots, alignment padding) is excluded
            # — kernels never read padding, and halos are refreshed on
            # restore.
            to_numpy = getattr(data, "to_numpy", None)
            if callable(to_numpy) and not getattr(data, "virtual", False):
                if not all(_chunked_all_finite(view) for view in _owned_views(data)):
                    bad.append(data.name)
                continue
            for buf in getattr(data, "buffers", None) or []:
                arr = buf.array
                if arr is not None and arr.size and not _chunked_all_finite(arr):
                    bad.append(data.name)
                    break
    return bad


def enforce_divergence_guardrail(containers, skeleton_name: str = "") -> None:
    """The Skeleton-level NaN/Inf guardrail (resilience injection site).

    Called after every ``Skeleton.run()`` on a backend with an armed
    fault session: non-finite written state surfaces as
    :class:`~repro.resilience.CorruptionDetected`, which the resilient
    driver answers with rollback-and-replay.
    """
    with _obs.span("resilience.divergence_scan", cat="resilience", skeleton=skeleton_name):
        bad = scan_non_finite(containers)
    if not bad:
        return
    if _obs.OBS.active:
        _obs.OBS.metrics.counter("divergence_detected").inc()
    raise _res.CorruptionDetected(bad)
