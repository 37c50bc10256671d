"""Typed failure vocabulary of the resilience layer.

Every fault the injector can raise — and every terminal condition the
recovery machinery can surface — has a dedicated exception type, so
drivers and tests can write precise handlers instead of matching on
message strings.  The hierarchy mirrors the recovery semantics:

* :class:`TransientFault` (and its launch/copy refinements) is retryable
  at the command-queue layer;
* :class:`FaultExhausted` means the retry budget ran out — the step must
  be rolled back and replayed from a checkpoint;
* :class:`CorruptionDetected` is raised by the NaN/Inf guardrail and is
  also answered by rollback-and-replay;
* :class:`DeviceLost` is permanent — the only recovery is degradation
  onto the surviving devices;
* :class:`SolverDiverged` is the solver-level guardrail (a non-finite
  residual), surfaced instead of silently looping to ``max_iterations``.
"""

from __future__ import annotations


class ResilienceError(RuntimeError):
    """Base class of every fault or recovery failure this layer raises."""


class TransientFault(ResilienceError):
    """A retryable failure of one command (injected or real).

    ``site`` is the stable injection-site key, ``attempt`` the 1-based
    attempt number that failed.
    """

    kind = "transient"

    def __init__(self, site: str, attempt: int = 1):
        super().__init__(f"transient {self.kind} fault at {site} (attempt {attempt})")
        self.site = site
        self.attempt = attempt


class LaunchFault(TransientFault):
    """A kernel launch failed transiently."""

    kind = "launch"


class CopyFault(TransientFault):
    """A DMA / halo-exchange transfer failed transiently."""

    kind = "copy"


class FaultExhausted(ResilienceError):
    """Retries of a transient fault ran out; the step needs a rollback."""

    def __init__(self, kind: str, site: str, attempts: int):
        super().__init__(f"{kind} fault at {site} persisted through {attempts} attempts")
        self.kind = kind
        self.site = site
        self.attempts = attempts


class DeviceLost(ResilienceError):
    """A device failed permanently; commands on it can never succeed."""

    def __init__(self, rank: int, message: str | None = None):
        super().__init__(message or f"device {rank} was lost permanently")
        self.rank = rank


class DegradeOverCapacity(DeviceLost):
    """Degradation is impossible: survivors cannot hold the migrated state.

    Raised *before* the rebuild starts, instead of letting a mid-rebuild
    ``AllocationError`` leave the driver with a half-constructed
    application.  ``shortfall_bytes`` is how many bytes the worst-loaded
    survivor is over its capacity under the planned partition.
    """

    def __init__(self, rank: int, shortfall_bytes: int, demand_bytes: int, capacity_bytes: int):
        super().__init__(
            rank,
            f"device {rank} lost, but the migrated fields need {demand_bytes} B on the "
            f"worst-loaded survivor against a {capacity_bytes} B capacity "
            f"({shortfall_bytes} B short); cannot degrade",
        )
        self.shortfall_bytes = shortfall_bytes
        self.demand_bytes = demand_bytes
        self.capacity_bytes = capacity_bytes


class CheckpointCorrupt(ResilienceError):
    """A checkpoint failed its integrity check at restore time.

    ``generation`` is the checkpoint's position in the store history at
    the time of detection (0 = newest); ``field_names`` are the arrays
    whose stored checksum no longer matches their bytes.
    """

    def __init__(self, field_names: list[str], step: int, generation: int = 0):
        super().__init__(
            f"checkpoint at step {step} (generation {generation}) is corrupt: "
            f"checksum mismatch in field(s) {', '.join(field_names)}"
        )
        self.field_names = list(field_names)
        self.step = step
        self.generation = generation


class CorruptionDetected(ResilienceError):
    """The NaN/Inf guardrail found non-finite values in field state."""

    def __init__(self, field_names: list[str]):
        super().__init__(f"non-finite values detected in field(s): {', '.join(field_names)}")
        self.field_names = list(field_names)


class SolverDiverged(ResilienceError):
    """An iterative solver produced a non-finite residual.

    Carries the iteration at which divergence was detected and the tail
    of the residual history leading up to it.
    """

    def __init__(self, iteration: int, residual_tail: list[float]):
        tail = ", ".join(f"{r:.3e}" for r in residual_tail)
        super().__init__(f"solver diverged at iteration {iteration}; residual tail: [{tail}]")
        self.iteration = iteration
        self.residual_tail = list(residual_tail)
