"""Container: the multi-GPU kernel concept (paper IV-B2, Listing 4).

A Container wraps a *loading lambda*: a function that receives a
:class:`~repro.sets.loader.Loader` and returns the *compute lambda*.  At
launch time the framework runs the loading lambda once per device to
generate the device-specific compute closure (with partitions captured),
then enqueues it on that device's stream over the index space of the
data object the Container was created from, restricted to the requested
data view.

Deviation from the C++ original: the compute lambda's single parameter is
the *span* of cells to process rather than a per-cell index — partitions
expose vectorised NumPy views over a span, which is the idiomatic (and
only performant) way to express per-cell work in Python.
"""

from __future__ import annotations

from collections.abc import Callable

from .dataset import MultiDeviceData
from .launch import estimate_cost
from .loader import AccessToken, Loader, Pattern
from .mstream import MultiStream
from .views import DataView

LoadingLambda = Callable[[Loader], Callable]


class Container:
    """A named, launchable multi-device computation step."""

    def __init__(
        self,
        name: str,
        index_data: MultiDeviceData,
        loading: LoadingLambda,
        flops_per_cell: float = 0.0,
    ):
        self.name = name
        self.index_data = index_data
        self.loading = loading
        self.flops_per_cell = flops_per_cell
        self._tokens: list[AccessToken] | None = None
        #: optional fused-replay specialization hook: ``(rank, view, span)
        #: -> callable | None``.  The fusion pass calls it at program-freeze
        #: time; a returned closure replaces the interpreted per-launch
        #: kernel in every replay of that program, instrumented or not,
        #: and MUST be bitwise equivalent to it.  The loading lambda runs
        #: per launch, so whatever it reads from mutable host cells at load
        #: time (e.g. CG's alpha/beta) the specialised closure must read
        #: *when it runs*: pointers and shapes may be pre-bound, values
        #: may not — a value captured at freeze time would pin iteration-0
        #: scalars into every later replay.
        self.specialize = None

    def tokens(self) -> list[AccessToken]:
        """Data-use declaration, extracted by a parse-only loading pass."""
        if self._tokens is None:
            probe = Loader(rank=0, parse_only=True)
            compute = self.loading(probe)
            if not callable(compute):
                raise TypeError(f"container '{self.name}': loading lambda must return the compute lambda")
            if not probe.tokens:
                raise ValueError(f"container '{self.name}': loading lambda declared no data accesses")
            for t in probe.tokens:
                if t.pattern is Pattern.REDUCE:
                    self._check_partial(t.data)
            self._tokens = probe.tokens
        return self._tokens

    def _check_partial(self, partial) -> None:
        """A reduce target is a grid's per-slice partial (``Grid.new_reduce_partial``)."""
        bounds = getattr(self.index_data, "bounds", None)
        if bounds is None:
            kind = type(self.index_data).__name__
            raise ValueError(f"container '{self.name}': reductions iterate a grid, not a {kind}")
        if not hasattr(partial, "slice_starts") or partial.counts != [e - s for s, e in bounds]:
            raise ValueError(
                f"{partial.name}: reduce partials need one slot per owned slice of grid "
                f"'{self.index_data.name}' (grid.new_reduce_partial)"
            )

    @property
    def pattern(self) -> Pattern:
        """The container's operation type (paper: MapOp/StencilOp/ReduceOp).

        A stencil load makes it a StencilOp (it needs halo coherency); a
        reduce target makes it a ReduceOp; otherwise it is a MapOp.
        """
        toks = self.tokens()
        if any(t.pattern is Pattern.STENCIL for t in toks):
            return Pattern.STENCIL
        if any(t.pattern is Pattern.REDUCE for t in toks):
            return Pattern.REDUCE
        return Pattern.MAP

    def cost_for(self, rank: int, view: DataView):
        return estimate_cost(self.index_data, self.tokens(), rank, view, flops_per_cell=self.flops_per_cell)

    def run(
        self,
        streams: MultiStream,
        view: DataView = DataView.STANDARD,
        ranks: list[int] | None = None,
    ) -> None:
        """Launch the container on every device (or a subset of ranks).

        When the index data is *virtual* (planned but not allocated) the
        kernels are recorded with their costs but perform no work — the
        mode the benchmark harness uses for paper-scale domains.
        """
        self.tokens()  # validate the loading lambda before any launch
        virtual = getattr(self.index_data, "virtual", False)
        for rank in ranks if ranks is not None else range(len(streams)):
            span = self.index_data.span_for(rank, view)
            if span.is_empty:
                continue
            cost = self.cost_for(rank, view)
            if virtual:
                kernel = lambda: None  # noqa: E731 - recorded for timing only
            else:
                loader = Loader(rank=rank, view=view)
                compute = self.loading(loader)

                def kernel(compute=compute, span=span):
                    for piece in span.pieces():
                        compute(piece)

            streams[rank].enqueue_kernel(
                f"{self.name}@{view}[{rank}]", kernel, cost, container=None if virtual else self
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Container({self.name}, {self.pattern.value})"
