"""Matrix-free conjugate gradient over Neon skeletons (paper Listing 3).

The iteration body is phrased as two skeletons separated by the two host
scalar reads CG fundamentally needs (alpha and beta depend on global
reductions).  Following the paper's Two-way-Extended-OCC preparation,
the p-update map is moved to the *start* of the first skeleton so the
sequence becomes map -> stencil -> reduce — the exact Fig 4 pattern every
OCC level knows how to split.  By the same reasoning the x-update moves
*ahead* of it (UpdateX-first): ``x += alpha*p`` needs the previous
iteration's alpha and p, which are both still there when the next
iteration starts, and there it shares the pass that reads p:

    skeleton A: x += alpha_prev*p;  p = r + beta*p;  q = A p;  pq = <p, q>
    host:       alpha = delta / pq
    skeleton B: r -= alpha*q;  delta' = <r, r>
    host:       beta = delta' / delta, convergence check

So the last alpha of a solve is *pending*: ``alpha`` holds the step whose
``alpha*p`` has not reached x yet (0.0 when none has).  A one-container
flush skeleton applies it exactly once — at the end of :meth:`solve`, in
:meth:`begin`, and in :meth:`flush`, which every reader of x calls first —
and the x-update form leaves x untouched when alpha is 0.0, so a stale or
NaN p cannot leak into it after a (re)start.  Checkpoints carry the
pending alpha with ``x`` and ``p``.  x, r and p therefore go through the
same operations in the same order as with the x-update in skeleton B:
every result is bitwise what it was.

Scalars are passed into containers through mutable cells read at launch
time (the loading lambda runs per launch, and the generated-C kernels of
:mod:`repro.codegen.grid_kernels` read the same cells on every call), so
the compiled skeletons are reused across iterations unchanged.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
import math

import numpy as np

from repro.codegen import grid_kernels
from repro.core import ops
from repro.domain.grid import Grid
from repro.resilience import SolverDiverged
from repro.sim.topology import HOST_RANK
from repro.skeleton import Occ, Skeleton

ApplyFactory = Callable[[Grid, object, object, str], object]
"""Builds the operator: (grid, in_field, out_field, name) -> Container or [Containers]."""


def _as_list(containers) -> list:
    return list(containers) if isinstance(containers, (list, tuple)) else [containers]


@dataclass
class CGResult:
    converged: bool
    iterations: int
    residual_norms: list[float] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        """True when any recorded residual is non-finite (NaN/Inf)."""
        return any(not np.isfinite(r) for r in self.residual_norms)


def _axpby_cell(grid, a_cell: dict, x, b_cell: dict, y, name: str, form: str = "axpby_or_ax"):
    """y <- a*x + b*y with host-updated coefficients (read at launch).

    ``form`` says which zero coefficient skips its operand
    (:data:`~repro.codegen.grid_kernels.MAP_FORMS`): ``axpby_or_ax``
    assigns ``a*x`` outright when ``b == 0`` instead of multiplying into
    the old ``y`` — on a (re)started iteration ``p`` may hold stale, even
    non-finite, data, and ``0 * NaN`` would smuggle it into the fresh
    Krylov basis; ``axpby_or_y`` leaves ``y`` as it is when ``a == 0``,
    so no stale ``x`` reaches it.
    """

    def loading(loader):
        xp = loader.read(x)
        yp = loader.read_write(y)
        a, b = a_cell["v"], b_cell["v"]

        def compute(span):
            if form == "axpby_or_y" and a == 0.0:
                return  # y stays as it is
            yv = yp.view_all(span)
            if form == "axpby_or_ax" and b == 0.0:
                yv[...] = a * xp.view_all(span)
            else:
                yv[...] = a * xp.view_all(span) + b * yv

        return compute

    container = grid.new_container(name, loading, flops_per_cell=3.0 * x.cardinality)
    container.specialize = grid_kernels.elementwise(form, y, x, y, scalars=lambda: (a_cell["v"], b_cell["v"]))
    return container


class ConjugateGradient:
    """Reusable CG solver bound to one grid, operator, and OCC level."""

    def __init__(
        self,
        grid: Grid,
        apply_op: ApplyFactory,
        b,
        x,
        occ: Occ = Occ.STANDARD,
        name: str = "cg",
        mode: str = "serial",
    ):
        self.grid = grid
        self.b = b
        self.x = x
        # execution mode for every skeleton run (host scalar updates
        # between skeletons stay sequential either way)
        self.mode = mode
        backend = grid.backend
        card = x.cardinality
        self.r = grid.new_field(f"{name}_r", cardinality=card)
        self.p = grid.new_field(f"{name}_p", cardinality=card)
        self.q = grid.new_field(f"{name}_q", cardinality=card)
        # per-slice partials make both CG scalars (hence the whole
        # trajectory) bitwise partition-invariant
        self.pq_partial = grid.new_reduce_partial(f"{name}_pq")
        self.rr_partial = grid.new_reduce_partial(f"{name}_rr")
        # the two host reads, each gathering into its partial's host mirror
        self._pq_read = ops.ScalarResult(self.pq_partial)
        self._rr_read = ops.ScalarResult(self.rr_partial)
        #: the step whose alpha*p has not reached x yet (0.0: none pending)
        self.alpha = {"v": 0.0}
        self.beta = {"v": 0.0}
        self.neg_alpha = {"v": 0.0}
        one = {"v": 1.0}
        #: the running solve's record; None until :meth:`begin`
        self.result: CGResult | None = None

        def update_x():  # x <- alpha*p + x, or x as it is when alpha is 0.0
            return _axpby_cell(grid, self.alpha, self.p, one, self.x, "update_x", "axpby_or_y")

        # r = b - A x ; p handled by the first iteration's p-update (beta=0)
        self.sk_init = Skeleton(
            backend,
            [
                *_as_list(apply_op(grid, x, self.q, "A_x0")),
                _init_residual(grid, b, self.q, self.r),
                ops.norm2_squared(grid, self.r, self.rr_partial, name="rr0"),
            ],
            occ=occ,
            name=f"{name}_init",
        )
        # map -> stencil -> reduce: the paper's UpdateP-first arrangement,
        # the pending x-update ahead of it in the pass that reads p
        self.sk_a = Skeleton(
            backend,
            [
                update_x(),
                _axpby_cell(grid, one, self.r, self.beta, self.p, "update_p"),
                *_as_list(apply_op(grid, self.p, self.q, "A_p")),
                ops.dot(grid, self.p, self.q, self.pq_partial, name="dot_pq"),
            ],
            occ=occ,
            name=f"{name}_a",
        )
        self.sk_b = Skeleton(
            backend,
            [
                _axpby_cell(grid, self.neg_alpha, self.q, one, self.r, "update_r"),
                ops.norm2_squared(grid, self.r, self.rr_partial, name="dot_rr"),
            ],
            occ=occ,
            name=f"{name}_b",
        )
        # applies the pending alpha; see flush()
        self.sk_flush = Skeleton(backend, [update_x()], occ=occ, name=f"{name}_flush")

    def reset(self) -> None:
        """Back to the cold state: a zero iterate, halos included.

        :meth:`begin` rebuilds r/p/q and every host scalar from ``x`` and
        ``b``, so nothing else carries over into the next solve; a pending
        alpha belongs to the old iterate and is dropped.
        """
        self.x.fill(0.0)
        self.x.sync_halo_now()
        self.alpha["v"] = 0.0
        self.result = None

    def flush(self) -> None:
        """Bring ``x`` up to date: apply the pending ``alpha*p``, once.

        Call it before reading ``x``; the solver's own readers do.  A
        no-op when nothing is pending.  One map per rank: it replays
        serially in every mode, so it never starts an engine.
        """
        if self.alpha["v"] != 0.0:
            self.sk_flush.run()
            self.alpha["v"] = 0.0

    def begin(self, tolerance: float = 1e-8) -> CGResult:
        """(Re)start the iteration from the current iterate ``x``.

        Applies a pending alpha (:meth:`flush`), runs the init skeleton
        (``r = b - A x``), seeds the scalars, and
        returns the fresh :class:`CGResult`.  Because CG restarted from
        any iterate still converges to the same SPD solution, this is
        also the *recovery* entry point: after a checkpoint restore or a
        device-loss migration, calling ``begin()`` resumes the solve
        from the restored ``x``.
        """
        self.flush()
        self.sk_init.run(mode=self.mode)
        delta = self._rr_read.value()
        # a negative (corrupted) sum reads NaN, as np.sqrt has it, not math's ValueError
        norm0 = math.sqrt(delta) if delta >= 0.0 else math.nan
        self.result = CGResult(converged=False, iterations=0, residual_norms=[norm0])
        if not math.isfinite(norm0):
            raise SolverDiverged(0, self.result.residual_norms[-8:])
        if norm0 <= tolerance:
            self.result.converged = True
        self._delta = delta
        self._tolerance = tolerance
        self.beta["v"] = 0.0
        return self.result

    def iterate(self) -> bool:
        """Run one CG iteration; return True once converged.

        Raises :class:`~repro.resilience.SolverDiverged` the moment the
        residual (or the curvature ``<p, Ap>``) turns non-finite instead
        of silently looping to ``max_iterations`` on NaNs.
        """
        result = self.result
        if result.converged:
            return True
        self.sk_a.run(mode=self.mode)
        self.alpha["v"] = 0.0  # x has taken the previous step
        pq = self._pq_read.value()
        if not math.isfinite(pq):
            result.residual_norms.append(float("nan"))
            raise SolverDiverged(result.iterations + 1, result.residual_norms[-8:])
        if pq <= 0.0:
            raise RuntimeError(f"operator is not positive definite: <p, Ap> = {pq}")
        self.alpha["v"] = self._delta / pq
        self.neg_alpha["v"] = -self.alpha["v"]
        self.sk_b.run(mode=self.mode)
        delta_new = self._rr_read.value()
        norm = math.sqrt(delta_new) if delta_new >= 0.0 else math.nan
        result.residual_norms.append(norm)
        result.iterations += 1
        if not math.isfinite(norm):
            raise SolverDiverged(result.iterations, result.residual_norms[-8:])
        if norm <= self._tolerance:
            result.converged = True
            return True
        self.beta["v"] = delta_new / self._delta
        self._delta = delta_new
        return False

    def solve(self, max_iterations: int = 200, tolerance: float = 1e-8) -> CGResult:
        """Run CG until the residual 2-norm drops below tolerance."""
        result = self.begin(tolerance)
        if result.converged:
            return result
        for _ in range(max_iterations):
            if self.iterate():
                break
        self.flush()
        return result

    # -- resilience hooks ---------------------------------------------------
    def checkpoint_fields(self) -> list:
        """The complete iteration state: ``x``, ``r`` and ``p``.

        Checkpointing all three (plus :meth:`checkpoint_scalars`, which
        carries the pending alpha ``x`` has not taken yet) makes a
        rollback **bitwise-exact**: :meth:`restore_scalars` continues the
        very same Krylov trajectory instead of restarting it, so a
        recovered run finishes identical to a fault-free one — the
        property the chaos soak harness asserts.  (``q`` is recomputed
        from ``p`` at the top of every iteration and needs no snapshot.)
        """
        return [self.x, self.r, self.p]

    def checkpoint_scalars(self) -> dict:
        """Host-side loop state paired with :meth:`checkpoint_fields`."""
        if self.result is None:
            return {"begun": False}
        return {
            "begun": True,
            "delta": self._delta,
            "beta": self.beta["v"],
            "alpha": self.alpha["v"],
            "tolerance": self._tolerance,
            "iterations": self.result.iterations,
            "converged": self.result.converged,
            "residual_norms": list(self.result.residual_norms),
        }

    def restore_scalars(self, scalars: dict) -> None:
        """Continue the checkpointed trajectory after a restore.

        A checkpoint that predates :meth:`begin` leaves ``result`` unset
        so the solve starts fresh.  Works across decompositions: the
        per-slice dot partials keep both CG scalars bitwise
        partition-invariant, so a device-loss migration resumes the
        identical trajectory on the survivors.
        """
        if not scalars.get("begun"):
            self.alpha["v"] = 0.0
            self.result = None
            return
        self._delta = scalars["delta"]
        self._tolerance = scalars["tolerance"]
        self.beta["v"] = scalars["beta"]
        self.alpha["v"] = scalars["alpha"]
        self.neg_alpha["v"] = 0.0
        self.result = CGResult(
            converged=scalars["converged"],
            iterations=scalars["iterations"],
            residual_norms=list(scalars["residual_norms"]),
        )

    def iteration_makespan(self, machine=None) -> float:
        """Simulated time of one CG iteration (both skeletons).

        CG fundamentally syncs on two scalars per iteration (alpha and
        the convergence check), so the time includes the two
        device->host reads of the partials.  Each device sends its row of
        slice sums (one float64 per owned slice) in parallel over the host
        links, so a read is priced as the largest row — latency dominated,
        like a cuBLAS dot result read.
        """
        machine = machine or self.grid.backend.machine
        t = 0.0
        for sk in (self.sk_a, self.sk_b):
            t += sk.trace(machine=machine, result=sk.record()).makespan
        row = max(self.pq_partial.counts) * self.pq_partial.dtype.itemsize
        t += 2.0 * machine.topology.link(0, HOST_RANK).transfer_time(row)
        return t


def _init_residual(grid, b, q, r):
    """r <- b - q."""

    def loading(loader):
        bp = loader.read(b)
        qp = loader.read(q)
        rp = loader.write(r)

        def compute(span):
            rp.view_all(span)[...] = bp.view_all(span) - qp.view_all(span)

        return compute

    container = grid.new_container("init_residual", loading)
    container.specialize = grid_kernels.elementwise("sub", r, b, q)
    return container
