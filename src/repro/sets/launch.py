"""Launch helpers: cost estimation and fault wrapping for Container launches.

The DES needs a :class:`~repro.system.queue.KernelCost` per launch.  We
derive it from the Container's access tokens, the launch view's cell
count, and the data's per-cell byte density — the same roofline inputs a
performance engineer would read off the kernel.

This is also the resilience layer's launch-level injection site:
:func:`wrap_kernel_faults` decorates a compute kernel with seeded
NaN/Inf corruption of one written field buffer, modelling silent data
corruption (a bit flip, a racy write) that only the divergence guardrail
can catch.  Only :func:`repro.system.layers.lower` applies it, and only
when resilience is armed, so the disabled path never sees the wrapper.
"""

from __future__ import annotations

from collections.abc import Callable

from repro import observability as _obs
from repro.system import KernelCost

from .dataset import MultiDeviceData
from .loader import Access, AccessToken, Pattern
from .views import DataView


_VIEW_PARTS: dict[DataView, tuple[str, ...]] = {
    DataView.STANDARD: ("internal", "boundary"),
    DataView.INTERNAL: ("internal",),
    DataView.BOUNDARY: ("boundary",),
}


def token_access_parts(token: AccessToken, view: DataView) -> tuple[tuple[str, ...], tuple[str, ...], bool]:
    """Owned-slab footprint of one declared access at one launch view.

    Returns ``(read_parts, write_parts, reads_halo)``: which owned
    sub-slabs (``"internal"`` / ``"boundary"``) the access reads and
    writes, and whether it additionally gathers from the data's halo
    slots.  This is the Sets-level ground truth the race sanitizer's
    region model is built on, so the rules deserve spelling out:

    * a MAP access touches exactly the cells of its view;
    * a STENCIL read gathers from the whole owned slab regardless of
      view (an INTERNAL launch still reads boundary-owned neighbours at
      the internal/boundary seam) and from the halo slots whenever the
      view covers boundary cells — an INTERNAL view stays ``radius``
      away from the partition edge, so it alone never needs the halo;
    * a REDUCE partial is owned data like any other: it holds one slot
      per owned slice, and a launch piece covers whole slices, so a
      deposit at a view reads and writes exactly that view's slots.  The
      two halves of an OCC-split reduction therefore touch disjoint
      slots and need no dependency between them.
    """
    read_parts: tuple[str, ...] = ()
    write_parts: tuple[str, ...] = ()
    reads_halo = False
    if token.access.reads:
        if token.pattern is Pattern.STENCIL:
            read_parts = _VIEW_PARTS[DataView.STANDARD]
            reads_halo = view in (DataView.STANDARD, DataView.BOUNDARY)
        else:
            read_parts = _VIEW_PARTS[view]
    if token.access.writes:
        write_parts = _VIEW_PARTS[view]
    return read_parts, write_parts, reads_halo


def estimate_cost(
    index_data: MultiDeviceData,
    tokens: list[AccessToken],
    rank: int,
    view: DataView,
    flops_per_cell: float = 0.0,
) -> KernelCost:
    """Roofline inputs for one Container launch on one device.

    Per active cell we count one read of every read-loaded field (a
    stencil read too: neighbour loads are assumed to hit cache) and one
    write of every written field.  Reduce partials are per-launch, not
    per-cell, and are negligible, so they are skipped.
    """
    span = index_data.span_for(rank, view)
    ncells = span.count
    bytes_per_cell = 0.0
    for tok in tokens:
        if tok.pattern is Pattern.REDUCE:
            continue
        density = tok.data.bytes_per_cell
        if tok.access.reads:
            bytes_per_cell += density
        if tok.access.writes:
            bytes_per_cell += density
    return KernelCost(
        bytes_moved=ncells * bytes_per_cell,
        flops=ncells * flops_per_cell,
        indirection=getattr(index_data, "indirection", 1.0),
        launches=max(1, len(span.pieces())),
    )


def wrap_kernel_faults(
    kernel: Callable[[], None],
    plan,
    container_name: str,
    tokens: list[AccessToken],
    rank: int,
) -> Callable[[], None]:
    """Wrap a compute kernel with seeded post-launch buffer corruption.

    When ``plan`` — the :class:`~repro.resilience.FaultPlan` armed on the
    launch's backend — decides to corrupt this launch, one written field
    buffer of the container is picked (seeded) and a single element is
    poisoned with NaN or Inf at a seeded position.  The corruption is silent by construction — only
    the Skeleton's divergence guardrail or the solver's residual check
    can surface it, which is exactly the failure mode under test.
    """
    if plan is None or plan.rates.get("corrupt", 0.0) <= 0.0:
        return kernel
    # only checkpoint-restorable fields (load_numpy marks the Field API):
    # corruption targets the cells a kernel writes (its owned view), never
    # reduce partials or buffer slack like the global-border ghost slices —
    # a NaN in never-rewritten slack would survive every checkpoint restore
    # and livelock rollback-and-replay
    written = [
        t.data
        for t in tokens
        if t.access.writes
        and getattr(t.data, "buffers", None)
        and callable(getattr(t.data, "load_numpy", None))
    ]
    if not written:
        return kernel

    def kernel_with_corruption():
        kernel()
        site = f"corrupt:{container_name}@{rank}"
        if plan.decide("corrupt", site):
            data = written[plan.pick(site, len(written))]
            owned = data.partition(rank).view_all(data.span_for(rank, DataView.STANDARD))
            if owned.size:
                pos, value = plan.corruption(site, owned.size)
                owned.flat[pos] = value
                if _obs.OBS.active:
                    _obs.OBS.metrics.counter("faults_injected", kind="corrupt").inc()

    return kernel_with_corruption


__all__ = [
    "estimate_cost",
    "token_access_parts",
    "wrap_kernel_faults",
    "Access",
    "Pattern",
]
