"""How one kernel or copy command runs under the armed cross-cutting layers.

Observability (``"obs"``), resilience (``"res"``) and the race sanitizer
(``"san"``) each wrap a command; :func:`lower` composes the wrappers for
a layer set once and returns a plain callable — for the empty set, the
command's own closure.  A compiled program lowers every step once per
armed-layer set (:mod:`repro.skeleton.fusion`), an eager queue lowers a
command as it enqueues it, the parallel engine lowers a recorded
Set-level stream once per replay: a command is instrumented for the
layers armed when it *runs*, never for those armed when it was recorded.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from contextlib import contextmanager
from functools import partial
from types import MappingProxyType

from repro import observability as _obs
from repro import resilience as _res

_BARE: Mapping[str, object] = MappingProxyType({})


class Session:
    """What is armed on one :class:`~repro.system.Backend` and nowhere else.

    ``faults`` is the fault session :func:`repro.resilience.session` arms
    (plan + recovery policy), ``log`` the execution log of
    :func:`repro.sanitizer.state.recording`; both ``None`` by default.
    The backend, its allocator and every queue it creates share one
    instance, so arming the backend reaches all of them; a queue built by
    hand gets a session of its own that nothing arms.
    """

    __slots__ = ("faults", "log")

    def __init__(self) -> None:
        self.faults = None
        self.log = None

    @contextmanager
    def arm(self, slot: str, value):
        """Put ``value`` in ``slot`` for the block, then what was there before
        (so scopes nest); yields ``value``."""
        prev = getattr(self, slot)
        setattr(self, slot, value)
        try:
            yield value
        finally:
            setattr(self, slot, prev)

    def layers(self) -> Mapping[str, object]:
        """The layer set armed at this instant: each armed layer's name ->
        what its wrappers close over (the process tracer + registry, the
        fault session, the log).  Empty is bare; two sets are equal exactly
        when a lowering made for one serves the other."""
        obs, faults, log = _obs.OBS.active, self.faults, self.log
        if not obs and faults is None and log is None:
            return _BARE  # eager queues ask per command: keep the common answer allocation-free
        on = {"obs": (_obs.OBS.tracer, _obs.OBS.metrics) if obs else None, "res": faults, "san": log}
        return {name: what for name, what in on.items() if what is not None}


def describe(cmd, queue) -> tuple[str, str, tuple[int, ...]]:
    """``(pid, site, ranks)`` of a kernel or copy: trace / flight track,
    resilience injection-site key, loss-checked devices (both copy ends).

    Command names may carry a ``#<uid>`` disambiguator (repeated halo
    updates of one field); uids are process-global counters, so the site
    key drops them to keep fault decisions reproducible across runs.
    """
    base, sep, tail = cmd.name.rpartition("#")
    name, rank = base if sep and tail.isdigit() else cmd.name, queue.device.index
    if cmd.kind == "kernel":
        return f"device{rank}", f"{name}@{rank}", (rank,)
    src, dst = cmd.src.index, cmd.dst.index
    return f"device{rank}", f"{name}@{src}->{dst}", (src, dst)


def lower(cmd, queue, layers, fn=None, *, halo: bool = False) -> Callable[[], None]:
    """The callable that runs ``cmd`` (its own closure, or ``fn``) under ``layers``.

    Bare, it *is* the closure.  Otherwise it is wrapped, innermost first,
    by seeded corruption + loss check / injection / retry under the site
    key (``res``); a span plus series whose handles are resolved here,
    not per run — a ``halo`` copy also feeds ``halo_bytes_sent`` /
    ``halo_messages`` — (``obs``); one execution-log record (``san``).
    """
    run = cmd.fn if fn is None else fn
    if not layers:
        return run
    kernel = cmd.kind == "kernel"
    pid, site, ranks = describe(cmd, queue)
    faults = layers.get("res")
    if faults is not None:
        if kernel and cmd.container is not None:
            from repro.sets.launch import wrap_kernel_faults  # noqa: PLC0415 - repro.sets imports this package

            run = wrap_kernel_faults(run, faults.plan, cmd.container.name, cmd.container.tokens(), ranks[0])
        run = partial(_res.execute_command, faults, "launch" if kernel else "copy", site, ranks, run)
    if "obs" in layers:
        run = _observed(cmd, queue.name, pid, run, halo)
    log = layers.get("san")
    if log is None:
        return run

    def logged(body=run, record=log.record) -> None:
        body()
        record(cmd)

    return logged


def _observed(cmd, tid: str, pid: str, body: Callable[[], None], halo: bool) -> Callable[[], None]:
    span, m, name = _obs.tracer().span, _obs.metrics(), cmd.name
    if cmd.kind == "kernel":
        seconds = m.histogram("kernel_seconds", device=pid, kernel=name)

        def observed_kernel() -> None:
            with span(name, cat="kernel", pid=pid, tid=tid) as sp:
                body()
            seconds.observe(sp.duration)

        return observed_kernel
    nbytes, ends = cmd.nbytes, {"src": str(cmd.src.index), "dst": str(cmd.dst.index)}
    seconds, sizes = m.histogram("copy_seconds", **ends), m.histogram("copy_size_bytes", **ends)
    sent = m.counter("halo_bytes_sent", **ends) if halo else None
    messages = m.counter("halo_messages", **ends) if halo else None

    def observed_copy() -> None:
        with span(name, cat="copy", pid=pid, tid=tid, nbytes=nbytes) as sp:
            body()  # observed latency includes any retries — that IS the cost
        if halo:
            sent.inc(nbytes)
            messages.inc()
        seconds.observe(sp.duration)
        sizes.observe(nbytes)

    return observed_copy
