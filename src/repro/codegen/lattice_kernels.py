"""Generated-C collide+stream kernels for every lattice, from one emitter.

A lattice-Boltzmann step is a *pull* (gather each population from the
neighbour it streams from, applying the boundary rule), a BGK *collide*
and a *store*.  The collide is the same for every lattice and application;
the pull and the store are where the D3Q19 lid-driven cavity
(:func:`repro.solvers.lbm.d3q19.make_twopop_container`) and the D2Q9
Kármán street (:func:`repro.solvers.lbm.d2q9.make_karman_container`)
differ, so each is a :class:`PullRule` handed to one emitter
(:func:`collide_stream_source`).  The interpreted kernels walk the
lattice directions with whole-array NumPy expressions — ~14 passes over
the ``(q, cells)`` working set per launch; the generated one is a single
pass, registered as the container's ``specialize`` hook.

A 2-D lattice is walked as a 3-D one whose middle extent is 1: for
addressing its velocities get a zero middle component, while its moments
keep their own dimension.  Axis 0 is the partitioned one in both.

**Bitwise contract.**  The generated code replicates the interpreted
per-element IEEE-754 operation sequence exactly:

* ``rho``: sequential ``fq[0] + fq[1] + ...`` — NumPy's ``sum(axis=0)``
  over the outer axis reduces sequentially.  Over a single cell it sums
  pairwise instead, so the hooks decline a one-cell span piece;
* ``u``: zero-initialised, then ``+=``/``-=`` of the nonzero-velocity
  populations in the qi-major order of :meth:`LatticeSpec.moments`;
* equilibrium: parenthesised exactly as the Python source associates —
  ``(w * rho) * (((1 + 3 eu) + (4.5 eu) eu) - 1.5 usq)``;
* ``u / rho``: ``u_d = (rho > 0.0) ? u_d / rho : 0.0`` — the closure's
  ``np.where(rho > 0, u / rho, 0.0)``, zero for ``rho`` zero, negative or NaN;
* the rule's pull and store, selecting exactly where the closure's
  ``np.where`` chain selects;
* all lattice constants embedded as C hex-float literals, and the
  translation unit built with ``-ffp-contract=off`` (:mod:`repro.codegen.cc`).

**The select-form rule.**  The x loop (one row of cells) holds no branch
and no conditional read of a run-time constant, so the compiler
vectorises it (GCC 12 with AVX-512: 8 cells per vector, ~3x faster on
the D3Q19 cavity).  Every choice is a C conditional expression that
evaluates both sides and picks one, exactly like ``np.where``; run-time
constants are read once, outside the loop (the lid corrections per z
row, ``feq_in`` at the top of the body) — a per-cell
``from_lid ? corr[k] : 0.0`` alone keeps the loop scalar (``no vectype
for stmt``).  Guarded neighbour reads stay ``inside ? fin[...] : outside``
— masked vector loads where the CPU has them (AVX-512; with AVX2 alone
they remain ``control flow in loop``).  ``#pragma GCC ivdep``
(``clang loop vectorize(assume_safety)`` under clang) marks the loop's
stores as aliasing none of its loads: ``fin`` and ``fout`` are distinct
buffers, populations sit at least one component pitch apart.  Without
it GCC gives up: the 19 stores one ``qstride`` apart need more run-time
alias checks than its limit of 10 (``vect-max-version-for-alias-checks``).

**The two rules.**

* *cavity*: bounce-back where the pulled value is the solid sentinel (the
  field's ``outside_value``), plus the moving-lid correction
  ``bb + (from_lid ? corr[k] : 0.0)`` on the directions pulled from above
  the top plane — selected once per z row into ``lid<k>``, then
  ``bb = bb + lid<k>`` per cell.  The lid speed is not source text:
  :func:`lid_corrections` computes the few constants exactly as the
  closure does and they arrive as a run-time array, so every lid speed
  shares one object;
  ``lid_velocity == 0.0`` keeps its own unit with no correction lines
  (adding ``+ 0.0`` would flip a ``-0.0``).
* *Kármán*: bounce-back where the pulled cell's mask is not fluid, then
  inflow ``feq_in[q]`` on ``x == 0``, outflow ``f_in(x - 1)`` on
  ``x == nx - 1`` and solid cells parked at ``w[q] * rho0``.  ``feq_in``
  arrives at run time (in ``s[1]``), like ``lid_corrections``, and is
  read into ``feq_in<q>`` locals at the top of the body.

Every extent and stride (the population stride is the layout's component
pitch, read from the storage) arrives in the op record
(:data:`repro.codegen.table.OP_H`), so one compiled unit serves every
rank, partition weighting and pitch.  A hook declines (returns ``None``,
the interpreted closure runs) for anything but dense SoA float64 fields
whose populations are C-contiguous blocks one shared stride apart
(:func:`repro.codegen.grid_kernels.dense_slabs`) — sparse grids, AoS
layouts, virtual planning-only fields — and on any host without a C
compiler.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import codegen as _cc

from . import table as _table
from .grid_kernels import component_stride, dense_slabs, indicator_slab, launcher, operand, scalar_slot, windows


@dataclass(frozen=True)
class PullRule:
    """How one collide-stream kernel gathers its populations and stores them.

    ``head`` is the body's signature and constants, ``row`` the lines per
    axis-0 row, ``temps`` the per-cell declarations; ``pull(q, at, inside)``
    gives the lines setting ``fq[q]`` from the cell offset ``at`` it pulls
    from (``inside``: C condition for a lateral offset in range, or
    ``""``), and ``store(q)`` the lines writing the post-collision
    ``fq[q] + omega * t``.  ``entry`` is the exported symbol's definition.
    """

    head: tuple
    row: tuple
    temps: tuple
    pull: Callable[[int, str, str], list]
    store: Callable[[int], list]
    entry: str


#: the x loop's promise that its stores alias none of its loads: ``fin`` and
#: ``fout`` are distinct buffers and populations sit a pitch apart
_IVDEP = ("#ifdef __clang__", "#pragma clang loop vectorize(assume_safety)", "#else", "#pragma GCC ivdep", "#endif")


def _guarded(inside: str, value: str, outside: str) -> str:
    return f"({inside}) ? {value} : {outside}" if inside else value


def _padded(lattice) -> list[tuple[int, int, int]]:
    """Each velocity as a 3-D (axis 0, y, x) vector: 2-D gets a zero y."""
    return [(int(e[0]), 0, int(e[1])) if lattice.ndim == 2 else tuple(int(c) for c in e) for e in lattice.velocities]


def _at(offset) -> tuple[str, str]:
    """``(cell index, lateral in-range condition)`` of ``cell + offset``."""
    dz, dy, dx = offset
    conds = [f"({v} + ({d}) >= 0 && {v} + ({d}) < {n})" for v, d, n in (("y", dy, "ny"), ("x", dx, "nx")) if d]
    return f"(zz + ({dz})) * plane + (y + ({dy})) * nx + (x + ({dx}))", " && ".join(conds)


def lid_corrections(lattice, lid_velocity: float, rho0: float) -> np.ndarray:
    """Moving-wall terms of the directions pulled from above the top plane,
    in direction order — the values the interpreted cavity kernel adds."""
    vel, w = lattice.velocities, lattice.weights
    return np.array([6.0 * w[q] * rho0 * (vel[q][2] * lid_velocity) for q in range(1, lattice.q) if vel[q][0] < 0])


def cavity_rule(lattice, moving_lid: bool, sentinel: float) -> PullRule:
    """Sentinel bounce-back plus the moving lid: ``twopop_span``.

    The body is ``twopop_body(fin, fout, qstride, ny, nx, h, lo, hi,
    gstart, nztot, omega, corr)``: ``[lo, hi)`` the local owned z-range,
    ``gstart`` the rank's global z offset, ``nztot`` the global depth (for
    the lid test) and ``corr`` the :func:`lid_corrections` (unread without
    ``moving_lid``).
    """
    hexf = _cc.hexf
    lid = [q for q in range(1, lattice.q) if lattice.velocities[q][0] < 0] if moving_lid else []

    def pull(q, at, inside):
        lines = [
            f"        g = {_guarded(inside, f'fin[{q} * qstride + {at}]', 'sentinel')};",
            f"        bb = fin[{int(lattice.opposite[q])} * qstride + c];",
        ]
        if q in lid:
            lines.append(f"        bb = bb + lid{lid.index(q)};")
        return lines + [f"        fq[{q}] = (g <= thr) ? bb : g;"]

    longs = ", ".join(f"op->n[{k}]" for k in range(8))
    return PullRule(
        head=(
            "static void twopop_body(const double* restrict fin, double* restrict fout,",
            "    long qstride, long ny, long nx, long h, long lo, long hi, long gstart,",
            "    long nztot, double omega, const double* restrict corr) {",
            f"  const double thr = {hexf(sentinel + 0.5)};",
            f"  const double sentinel = {hexf(sentinel)};",
        ),
        row=(
            "    int from_lid = (gstart + z + 1 >= nztot);",
            *(f"    double lid{k} = from_lid ? corr[{k}] : 0.0;" for k in range(len(lid))),
        ),
        temps=("        double g, bb;",),
        pull=pull,
        store=lambda q: [f"        fout[{q} * qstride + c] = fq[{q}] + omega * t;"],
        entry=f"void twopop_span(const op_t* op) {{ twopop_body(op->p[0], op->p[1], {longs}, *op->s[0], op->p[2]); }}",
    )


def karman_rule(lattice, f_outside: float, mask_outside: float, rho0: float) -> PullRule:
    """Mask bounce-back, inflow, outflow, parked solids: ``karman_span``.

    The body is ``karman_body(fin, fout, mask, qstride, ny, nx, h, lo, hi,
    omega, feq_in)``; ``mask`` is the card-1 fluid indicator laid out like
    one population, ``f_outside`` / ``mask_outside`` the two fields'
    ``outside_value``.
    """
    hexf = _cc.hexf
    outflow_at, outflow_inside = _at((0, 0, -1))

    def pull(q, at, inside):
        return [
            f"        g = {_guarded(inside, f'fin[{q} * qstride + {at}]', 'f_outside')};",
            f"        m = {_guarded(inside, f'mask[{at}]', 'mask_outside')};",
            f"        fq[{q}] = (m > 0.5) ? g : fin[{int(lattice.opposite[q])} * qstride + c];",
        ]

    def store(q):
        outflow = _guarded(outflow_inside, f"fin[{q} * qstride + {outflow_at}]", "f_outside")
        return [
            f"        o = fq[{q}] + omega * t;",
            f"        o = (x == 0) ? feq_in{q} : o;",
            f"        o = (x == nx - 1) ? ({outflow}) : o;",
            f"        fout[{q} * qstride + c] = fluid ? o : {hexf(float(lattice.weights[q] * rho0))};",
        ]

    longs = ", ".join(f"op->n[{k}]" for k in range(6))
    return PullRule(
        head=(
            "static void karman_body(const double* restrict fin, double* restrict fout,",
            "    const double* restrict mask, long qstride, long ny, long nx, long h, long lo, long hi,",
            "    double omega, const double* restrict feq_in) {",
            f"  const double f_outside = {hexf(f_outside)};",
            f"  const double mask_outside = {hexf(mask_outside)};",
            *(f"  const double feq_in{q} = feq_in[{q}];" for q in range(lattice.q)),
        ),
        row=(),
        temps=("        double g, m, o;", "        int fluid = mask[c] > 0.5;"),
        pull=pull,
        store=store,
        entry=(
            "void karman_span(const op_t* op) "
            f"{{ karman_body(op->p[0], op->p[1], op->p[2], {longs}, *op->s[0], op->s[1]); }}"
        ),
    )


def collide_stream_source(lattice, rule: PullRule) -> str:
    """C source for one axis-0 strip of a pull-scheme collide+stream kernel."""
    hexf = _cc.hexf
    q_count, vel, w = lattice.q, lattice.velocities, lattice.weights
    padded = _padded(lattice)  # direction 0 is the rest population
    lines: list[str] = [_table.OP_H, *rule.head]
    emit = lines.append
    emit("  long plane = ny * nx;")
    emit("  for (long z = lo; z < hi; ++z) {")
    emit("    long zz = z + h;")
    lines += rule.row
    emit("    for (long y = 0; y < ny; ++y) {")
    lines += _IVDEP
    emit("      for (long x = 0; x < nx; ++x) {")
    emit("        long c = zz * plane + y * nx + x;")
    emit(f"        double fq[{q_count}];")
    lines += rule.temps
    emit("        fq[0] = fin[c];")
    for q in range(1, q_count):
        # lateral out-of-range reads see the field's outside value; axis-0
        # reads go through the ghost slices, always in range for h >= 1
        lines += rule.pull(q, *_at(tuple(-c for c in padded[q])))
    emit("        double rho = fq[0] + fq[1];")
    for q in range(2, q_count):
        emit(f"        rho = rho + fq[{q}];")
    for d in range(lattice.ndim):
        emit(f"        double u{d} = 0.0;")
    for q in range(q_count):
        for d in range(lattice.ndim):
            v = int(vel[q, d])
            if v == 0:
                continue
            if v == 1:
                emit(f"        u{d} = u{d} + fq[{q}];")
            elif v == -1:
                emit(f"        u{d} = u{d} - fq[{q}];")
            else:
                emit(f"        u{d} = u{d} + {hexf(float(v))} * fq[{q}];")
    for d in range(lattice.ndim):
        emit(f"        u{d} = (rho > 0.0) ? u{d} / rho : 0.0;")
    emit("        double usq = 0.0;")
    for d in range(lattice.ndim):
        emit(f"        usq = usq + u{d} * u{d};")
    emit("        double eu, feq, t;")
    for q in range(q_count):
        emit("        eu = 0.0;")
        for d in range(lattice.ndim):
            v = int(vel[q, d])
            if v == 0:
                continue
            if v == 1:
                emit(f"        eu = eu + u{d};")
            elif v == -1:
                emit(f"        eu = eu - u{d};")
            else:
                emit(f"        eu = eu + {hexf(float(v))} * u{d};")
        emit(
            f"        feq = ({hexf(float(w[q]))} * rho) * "
            "(((1.0 + 3.0 * eu) + (4.5 * eu) * eu) - 1.5 * usq);"
        )
        emit(f"        t = feq - fq[{q}];")
        lines += rule.store(q)
    emit("      }")
    emit("    }")
    emit("  }")
    emit("}")
    emit(rule.entry)
    return "\n".join(lines) + "\n"


def generate_twopop_source(lattice, moving_lid: bool, sentinel: float) -> str:
    """The cavity's ``twopop_span`` unit (:func:`cavity_rule`)."""
    return collide_stream_source(lattice, cavity_rule(lattice, moving_lid, sentinel))


def compile_twopop(lattice, moving_lid: bool, sentinel: float):
    """Compiled ``twopop_span`` of one lattice, with or without a moving lid, or None."""
    key = ("lbm.twopop", lattice.name, moving_lid, sentinel)
    return _table.bind(key, generate_twopop_source(lattice, moving_lid, sentinel), "twopop_span")


def _strips(rank, span, grid, f_in, f_out, lattice):
    """``(f_in storage, f_out storage, strips)`` a collide-stream kernel can
    walk, or None."""
    slabs = dense_slabs(rank, span, (f_in, f_out))
    if slabs is None or grid.radius < 1 or lattice.ndim != grid.ndim:
        return None
    (si, so), strips = slabs
    if si.shape[0] != lattice.q or any(s.count == 1 for s in strips):
        return None
    return si, so, strips


def _spans(grid, rank, strips, si, so, near, constants):
    """The windows of a collide-stream op: it pulls ``si`` and the slabs
    ``near`` from anywhere within the halo depth of its plane, writes
    ``so``'s plane, and reads the arrays ``constants`` whole."""
    h = int(grid.radius)
    operands = [operand(a, 0, 2 * h) for a in (si, *near)] + [operand(so, h, h, write=True)]
    fixed = tuple((a.ctypes.data, a.ctypes.data + a.nbytes) for a in constants)
    return windows(grid, rank, strips, (4, 5), operands, constants=fixed)


def twopop(grid, f_in, f_out, omega: float, lid_velocity: float, lattice, sentinel: float, rho0: float):
    """``specialize`` hook of the cavity's twoPop collide+stream container."""

    def specialize(rank, view, span):
        slabs = _strips(rank, span, grid, f_in, f_out, lattice)
        kfn = slabs and lattice.ndim == 3 and compile_twopop(lattice, lid_velocity != 0.0, sentinel)
        if not kfn:
            return None
        si, so, strips = slabs
        corr = lid_corrections(lattice, lid_velocity, rho0)
        (_, _, ny, nx), nztot, h = si.shape, int(grid.shape[0]), int(grid.radius)
        gstart, qstride = int(grid.bounds[rank][0]), component_stride(si)
        pointers = [a.ctypes.data for a in (si, so, corr)]
        calls = [(pointers, (qstride, ny, nx, h, s.lo, s.hi, gstart, nztot)) for s in strips]
        spans = _spans(grid, rank, strips, si, so, (), (corr,))
        return launcher(kfn, calls, (si, so, corr), scalar_slot(float(omega)), windows=spans)

    return specialize


def compile_karman(lattice, f_outside: float, mask_outside: float, rho0: float):
    """Compiled ``karman_span`` of one lattice, or None."""
    key = ("lbm.karman", lattice.name, f_outside, mask_outside, rho0)
    source = collide_stream_source(lattice, karman_rule(lattice, f_outside, mask_outside, rho0))
    return _table.bind(key, source, "karman_span")


def karman(grid, f_in, f_out, mask, omega: float, feq_in, lattice, rho0: float):
    """``specialize`` hook of the Kármán step container."""
    feq_in = np.ascontiguousarray(feq_in, dtype=np.float64)

    def specialize(rank, view, span):
        slabs = _strips(rank, span, grid, f_in, f_out, lattice)
        m = slabs and indicator_slab(rank, span, mask, slabs[0])
        kfn = m is not None and compile_karman(lattice, float(f_in.outside_value), float(mask.outside_value), rho0)
        if not kfn:
            return None
        si, so, strips = slabs
        ny, nx = (1, *si.shape[2:])[-2:]
        pointers = [a.ctypes.data for a in (si, so, m)]
        calls = [(pointers, (component_stride(si), ny, nx, int(grid.radius), s.lo, s.hi)) for s in strips]
        spans = _spans(grid, rank, strips, si, so, (m,), (feq_in,))
        slot = scalar_slot(float(omega))
        return launcher(kfn, calls, (si, so, m, feq_in), slot, extra=feq_in.ctypes.data, windows=spans)

    return specialize
