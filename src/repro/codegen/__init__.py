"""Ahead-of-time C codegen for fused/specialized replay kernels.

The fusion pass (:mod:`repro.skeleton.fusion`) batches *dispatch*; this
package removes the per-element interpretation cost underneath it by
compiling generated C translation units with the system C compiler and
binding them through :mod:`ctypes` — both already present on any host
that can build NumPy, so no new dependency is introduced.  :mod:`.cc`
builds, caches (once per machine, on disk) and binds; :mod:`.table` is
the one kernel ABI (a packed op record) and the op tables a replay walks
with one C call;
:mod:`.grid_kernels` emits the map / stencil / per-slice-reduce kernels
CG-type solvers are made of; :mod:`repro.solvers.lbm.codegen` emits the
D3Q19 kernel.  Everything degrades gracefully: when no compiler is found
(or compilation fails) the callers fall back to the interpreted NumPy
path and results are identical either way, because generated kernels
replicate the exact IEEE-754 operation sequence of the NumPy code they
replace.
"""

from .cc import available, compile_shared, compiler, hexf

__all__ = ["available", "compile_shared", "compiler", "hexf"]
