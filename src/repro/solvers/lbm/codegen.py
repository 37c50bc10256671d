"""Generated-C specialization of the twoPop collide+stream kernel.

The interpreted kernel in :func:`repro.solvers.lbm.d3q19.make_twopop_container`
walks the lattice directions with whole-array NumPy expressions; bitwise
fidelity pins their operation order, which in turn forces ~14 full
passes over the ``(q, cells)`` working set per launch — memory-bound in
NumPy no matter how it is vectorised.  This module emits a single-pass C
translation of the same kernel and registers it as the container's
``specialize`` hook, which the fusion pass (:mod:`repro.skeleton.fusion`)
installs into fused dispatch units.

**Bitwise contract.**  The generated code replicates the interpreted
per-element IEEE-754 operation sequence exactly:

* ``rho``: sequential ``fq[0] + fq[1] + ...`` — NumPy's ``sum(axis=0)``
  over the outer axis reduces sequentially;
* ``u``: zero-initialised, then ``+=``/``-=`` of the nonzero-velocity
  populations in the qi-major order of :meth:`LatticeSpec.moments`;
* equilibrium: parenthesised exactly as the Python source associates —
  ``(w * rho) * (((1 + 3 eu) + (4.5 eu) eu) - 1.5 usq)``;
* bounce-back / moving-lid / sentinel selection per direction, with the
  lid correction added as ``bb + (from_lid ? corr[k] : 0.0)`` (matching
  the ``np.where`` add in the interpreted kernel);
* all lattice constants embedded as C hex-float literals, and the
  translation unit built with ``-ffp-contract=off`` (:mod:`repro.codegen.cc`).

**One object per lattice, compiled once per machine.**  The lid speed is
not baked into the source: the few lid-correction constants are computed
in Python exactly as the interpreted kernel computes them
(:func:`lid_corrections`) and passed as a run-time ``double`` array, so
every seed and every tenant-chosen lid velocity shares one cached object
(:mod:`repro.codegen.cc`).  ``lid_velocity == 0.0`` keeps its own unit
with no correction lines — adding ``+ 0.0`` would flip a ``-0.0``.

The specializer declines (returns ``None``) for anything but a dense
SoA float64 3-D layout whose populations are C-contiguous blocks one
shared stride apart (:func:`repro.codegen.grid_kernels.dense_slabs`) —
sparse grids, AoS layouts, virtual planning-only fields and 2-D lattices
keep the interpreted path, as does any host without a C compiler.
"""

from __future__ import annotations

import numpy as np

from repro import codegen as _cc
from repro.codegen import table as _table
from repro.codegen.grid_kernels import component_stride, dense_slabs, launcher, scalar_slot

#: keep in sync with d3q19 (imported lazily there to avoid a cycle)
SOLID_SENTINEL = -1.0
RHO0 = 1.0


def lid_corrections(lattice, lid_velocity: float) -> np.ndarray:
    """Moving-wall terms of the directions pulled from above the top plane,
    in direction order — the values the interpreted kernel adds."""
    vel, w = lattice.velocities, lattice.weights
    return np.array(
        [6.0 * w[q] * RHO0 * (vel[q][2] * lid_velocity) for q in range(1, lattice.q) if vel[q][0] < 0]
    )


def generate_twopop_source(lattice, moving_lid: bool) -> str:
    """C source for one z-strip of the pull-scheme collide+stream kernel.

    The exported ``twopop_span(op)`` unpacks an op record
    (:data:`repro.codegen.table.OP_H`) into ``twopop_body(fin, fout,
    qstride, ny, nx, h, lo, hi, gstart, nztot, omega, corr)`` —
    ``qstride`` is the elements from one population to the next, read
    from the storage (the layout's component pitch), ``[lo, hi)`` the
    local owned z-range to process, ``gstart`` the rank's global z
    offset, ``nztot`` the global domain depth (for the moving-lid test)
    and ``corr`` the :func:`lid_corrections` array (unread without
    ``moving_lid``).  Every extent and stride arrives in the record, so
    one compiled unit serves every rank, partition weighting, pitch and
    lid speed.
    """
    hexf = _cc.hexf
    q_count = lattice.q
    vel, w, opp = lattice.velocities, lattice.weights, lattice.opposite
    lines: list[str] = []
    emit = lines.append
    emit(_table.OP_H)
    emit("static void twopop_body(const double* restrict fin, double* restrict fout,")
    emit("    long qstride, long ny, long nx, long h, long lo, long hi, long gstart,")
    emit("    long nztot, double omega, const double* restrict corr) {")
    emit(f"  const double thr = {hexf(SOLID_SENTINEL + 0.5)};")
    emit(f"  const double sentinel = {hexf(SOLID_SENTINEL)};")
    emit("  long plane = ny * nx;")
    emit("  for (long z = lo; z < hi; ++z) {")
    emit("    long zz = z + h;")
    emit("    int from_lid = (gstart + z + 1 >= nztot);")
    emit("    for (long y = 0; y < ny; ++y) {")
    emit("      for (long x = 0; x < nx; ++x) {")
    emit("        long c = zz * plane + y * nx + x;")
    emit(f"        double fq[{q_count}];")
    emit("        double g, bb;")
    emit("        fq[0] = fin[c];")
    lid_terms = 0
    for q in range(1, q_count):
        e = vel[q]
        offz, offy, offx = (int(-comp) for comp in e)
        # lateral out-of-range reads see the sentinel (the field border is
        # initialised to it and never overwritten); z reads go through the
        # ghost slices, always in range for h >= 1 stencils
        conds = []
        if offy:
            conds.append(f"(y + ({offy}) >= 0 && y + ({offy}) < ny)")
        if offx:
            conds.append(f"(x + ({offx}) >= 0 && x + ({offx}) < nx)")
        idx = f"{q} * qstride + (zz + ({offz})) * plane + (y + ({offy})) * nx + (x + ({offx}))"
        if conds:
            emit(f"        g = ({' && '.join(conds)}) ? fin[{idx}] : sentinel;")
        else:
            emit(f"        g = fin[{idx}];")
        emit(f"        bb = fin[{int(opp[q])} * qstride + c];")
        if e[0] < 0 and moving_lid:
            emit(f"        bb = bb + (from_lid ? corr[{lid_terms}] : 0.0);")
            lid_terms += 1
        emit(f"        fq[{q}] = (g <= thr) ? bb : g;")
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
    emit("        if (rho > 0.0) {")
    for d in range(lattice.ndim):
        emit(f"          u{d} = u{d} / rho;")
    emit("        } else {")
    for d in range(lattice.ndim):
        emit(f"          u{d} = 0.0;")
    emit("        }")
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
        emit(f"        fout[{q} * qstride + c] = fq[{q}] + omega * t;")
    emit("      }")
    emit("    }")
    emit("  }")
    emit("}")
    longs = ", ".join(f"op->n[{k}]" for k in range(8))
    emit(f"void twopop_span(const op_t* op) {{ twopop_body(op->p[0], op->p[1], {longs}, *op->s[0], op->p[2]); }}")
    return "\n".join(lines) + "\n"


def compile_twopop(lattice, moving_lid: bool):
    """Compiled ``twopop_span`` of one lattice, with or without a moving lid, or None."""
    key = ("lbm.twopop", lattice.name, moving_lid)
    return _table.bind(key, generate_twopop_source(lattice, moving_lid), "twopop_span")


def make_twopop_specializer(grid, f_in, f_out, omega: float, lid_velocity: float, lattice):
    """The container ``specialize`` hook for one twoPop launch direction.

    Returns a ``(rank, view, span) -> callable | None`` hook; the fusion
    pass calls it once per fused kernel unit at program-freeze time.  A
    ``None`` result (unsupported layout, no compiler, odd storage) keeps
    the interpreted closure.
    """

    def specialize(rank, view, span):
        slabs = dense_slabs(rank, span, (f_in, f_out))
        if lattice.ndim != 3 or grid.radius < 1 or slabs is None:
            return None
        (si, so), strips = slabs
        if si.shape[0] != lattice.q:
            return None
        kfn = compile_twopop(lattice, lid_velocity != 0.0)
        if kfn is None:
            return None
        corr = lid_corrections(lattice, lid_velocity)
        (_, _, ny, nx), nztot, h = si.shape, int(grid.shape[0]), int(grid.radius)
        gstart, qstride = int(grid.bounds[rank][0]), component_stride(si)
        pointers = [a.ctypes.data for a in (si, so, corr)]
        calls = [(pointers, (qstride, ny, nx, h, s.lo, s.hi, gstart, nztot)) for s in strips]
        return launcher(kfn, calls, (si, so, corr), scalar_slot(float(omega)))

    return specialize
