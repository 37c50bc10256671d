"""Generated-C kernels for the three Container shapes grid solvers are made of.

A CG-type solver is a handful of elementwise **maps** (``p = r + beta p``),
one **stencil** operator (``q = A p``: Poisson's constant-coefficient 7-pt
Laplacian, or elasticity's Dirichlet projection and 27-pt block operator)
and per-slice **reduces** (``<p, q>``).  Interpreted, each is a NumPy
closure making 9-200 array passes over multi-MB temporaries; here each is
one in-place C loop, registered through the container's existing ``specialize`` hook
(:mod:`repro.skeleton.fusion`) — the loading lambda and its tokens are
untouched, so graphs, schedules, DES costs, sanitizer access sets and
fault sites do not know the difference.  The NumPy closures stay: they
are the oracle the tests compare against, the ``REPRO_DISABLE_CC`` /
no-compiler leg, and what every unsupported layout runs.

**What is supported.**  Dense SoA float64 fields of any cardinality,
non-virtual, on 3-D grids for the stencil operators (whose card-1 indicator
field, if any, must be laid out like one component); one op per span piece, so
INTERNAL / BOUNDARY / STANDARD views and every OCC level share the same
compiled functions.  A kernel steps between components by the stride the
field's layout gave its storage (``strides[0]``, the component pitch of
:func:`repro.domain.layout.component_pitch`), passed in the op record as
``cstride``; nothing derives it from the grid's extents.  Anything else —
sparse grids, AoS layouts, virtual fields — makes the hook return ``None``
and the interpreted closure runs.

**What a hook returns** is an op table (:mod:`repro.codegen.table`): every
kernel exports the one record-taking entry signature, and a unit's
closure is the table of its span-piece ops — one C call however many
pieces, and the thing a bare serial replay concatenates across units.

**Bitwise contract.**

* *map*: the expression of :data:`MAP_FORMS`, evaluated per element as
  written; coefficients are read from their host cells when the kernel
  *runs* (only pointers are pre-bound), so CG's ``alpha`` / ``beta``
  updates between replays of one frozen program are seen.
* *stencil*: the terms in declared order, ``acc = c0 * u[o0]`` then
  ``acc = acc - u[ok]`` (coefficient -1), ``acc + u[ok]`` (+1) or
  ``acc + ck * u[ok]`` — exactly how the closure associates.  Lateral
  out-of-range reads resolve to ``outside_value``; axis-0 reads go
  through the ghost slices.
* *block stencil* (:func:`block_stencil`): per output component ``c`` an
  accumulator starting at ``0.0`` takes ``acc + coeff * src[d](cell+off)``
  for every nonzero block entry in the closure's (offset, d) order, each
  coefficient a hex float, in every cell; the store selects it where
  ``(z > 0) * mask > 0.5`` and ``keep[c]`` elsewhere — ``np.where`` of the
  same values, a masked-off cell's sum computed and discarded.  Reads
  resolve like the stencil's, but each row of a plane runs the x loop of
  its row class (interior, first, last, or the only row), in which a read
  from a missing row is ``outside`` outright: no x loop holds a branch or
  a y guard, so the compiler vectorises all four.  The *projection*
  (:func:`projection`) is ``((z > 0) * mask) * u[c]``, the bool cast to
  ``1.0`` / ``0.0`` first, as NumPy casts it.  ``z`` is the global axis-0
  coordinate: the rank's offset arrives in the op record, the mask's
  address in its ``s[1]``.
* *reduce*: one sum per axis-0 slice over the component-first contiguous
  slice, reproducing :meth:`SliceReduceAccessor.deposit_sums` — NumPy's
  ``pairwise_sum`` (sequential ``-0.0``-seeded below 8 elements, 8
  accumulators up to a block of 128, ``n/2`` rounded down to a multiple
  of 8 above) added to the reduction's ``0.0`` identity, with products
  formed leaf by leaf so no temporary is materialised.  The tree is
  NumPy's implementation detail, so a bound reduce kernel is checked
  against ``np.sum`` once (:func:`_tree_matches_numpy`) and *declined* on
  mismatch: a NumPy that sums differently degrades to the interpreted
  kernels instead of breaking the conformance matrix.

**One translation unit per grid.**  The map and reduce families are fixed
text; the stencil operators are generated from what the grid's
containers declared (:func:`stencil`, :func:`projection`,
:func:`block_stencil`), so a grid without them compiles exactly the text
it did before they existed.  Every hook of a grid binds its
symbol out of that one unit, so a solver costs one ``cc`` call — and,
through :mod:`repro.codegen.cc`'s on-disk cache, one per machine.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from repro import codegen as _cc
from repro.domain import DataView, DenseField, DenseStrip, Layout

from . import table as _table

#: elementwise forms: name -> C expression over ``x[i]``, ``y[i]`` and the
#: run-time scalars ``a``, ``b``.  ``axpby_or_ax`` and ``axpby_or_y`` are
#: CG's restart-safe updates: ``b == 0`` assigns ``a*x`` outright so a stale
#: (even NaN) ``y`` cannot leak through ``0 * y``, and ``a == 0`` leaves
#: ``y`` as it is so a stale ``x`` cannot leak through ``0 * x``.
MAP_FORMS = {
    "copy": "x[i]",
    "ax": "a * x[i]",
    "sub": "x[i] - y[i]",
    "axpby": "a * x[i] + b * y[i]",
    "axpby_or_ax": "(b == 0.0) ? a * x[i] : a * x[i] + b * y[i]",
    "axpby_or_y": "(a == 0.0) ? y[i] : a * x[i] + b * y[i]",
}
#: the leaf size of the reduce tree (:data:`repro.codegen.table.PAIRWISE_BLOCK`)
PAIRWISE_BLOCK = _table.PAIRWISE_BLOCK

# Every kernel is a static body with the operands it always had, behind an
# exported entry that unpacks them from the op record (table.OP_H).
# ``out`` may alias ``x`` or ``y`` (in-place updates): no restrict
_MAP_C = """
#define DEFINE_MAP(NAME, EXPR) \\
static void NAME##_body(double* out, const double* xs, const double* ys, long card, long cstride, \\
                        long start, long n, double a, double b) { \\
  for (long c = 0; c < card; ++c) { \\
    double* o = out + c * cstride + start; \\
    const double* x = xs + c * cstride + start; \\
    const double* y = ys + c * cstride + start; \\
    for (long i = 0; i < n; ++i) o[i] = EXPR; \\
  } \\
} \\
void NAME(const op_t* op) { \\
  NAME##_body(op->p[0], op->p[1], op->p[2], op->n[0], op->n[1], op->n[2], op->n[3], *op->s[0], *op->s[1]); \\
}
"""

# NAME_tree is NumPy's pairwise_sum recursion over the component-first
# slice.  A leaf inside one component feeds its values (products formed)
# straight into the leaf sum; one that straddles two components (card > 1)
# is gathered into a stack buffer first.  Same values, same order.
_REDUCE_C = """
#define DEFINE_REDUCE(NAME, LEAF) \\
static double NAME##_tree(const double* x, const double* y, long j0, long n, long plane, long gap) { \\
  double res; \\
  if (n > PW_BLOCK) { \\
    long n2 = PW_SPLIT(n); \\
    return NAME##_tree(x, y, j0, n2, plane, gap) + NAME##_tree(x, y, j0 + n2, n - n2, plane, gap); \\
  } \\
  long c = j0 / plane; \\
  if (j0 + n <= (c + 1) * plane) { \\
    long p = j0 + c * gap; \\
    PW_LEAF(res, n, LEAF); \\
    return res; \\
  } \\
  double buf[PW_BLOCK]; \\
  long j = j0, end = j0 + n, k = 0; \\
  while (j < end) { \\
    long run = (c + 1) * plane - j; \\
    if (run > end - j) run = end - j; \\
    long p = j + c * gap; \\
    for (long i = 0; i < run; ++i) buf[k + i] = LEAF; \\
    k += run; \\
    j += run; \\
    ++c; \\
  } \\
  PW_LEAF(res, n, buf[i]); \\
  return res; \\
} \\
void NAME(const op_t* op) { \\
  const double *x = op->p[0], *y = op->p[1]; \\
  double* row = op->p[2]; \\
  long card = op->n[0], cstride = op->n[1], plane = op->n[2], h = op->n[3]; \\
  for (long s = op->n[4]; s < op->n[5]; ++s) { \\
    long base = (h + s) * plane; \\
    row[s] = 0.0 + NAME##_tree(x + base, y + base, 0, card * plane, plane, cstride - plane); \\
  } \\
}
DEFINE_REDUCE(slice_dot, x[p + i] * y[p + i])
DEFINE_REDUCE(slice_sum, x[p + i])
"""


def _stencil_source(name: str, terms: tuple) -> str:
    """C for one constant-coefficient 3-D stencil over slices ``[lo, hi)``."""
    hexf = _cc.hexf
    lines = [
        f"static void {name}_body(const double* restrict src, double* restrict dst, long n1, long n2,",
        "    long h, long lo, long hi, double outside) {",
        "  long plane = n1 * n2;",
        "  for (long z = h + lo; z < h + hi; ++z)",
        "    for (long y = 0; y < n1; ++y)",
        "      for (long x = 0; x < n2; ++x) {",
        "        long c = (z * n1 + y) * n2 + x;",
        "        double acc;",
    ]
    for k, ((d0, d1, d2), coeff) in enumerate(terms):
        value = f"src[c + ({d0}) * plane + ({d1}) * n2 + ({d2})]"
        inside = [
            f"{var} + ({d}) >= 0 && {var} + ({d}) < {size}"
            for var, d, size in (("y", d1, "n1"), ("x", d2, "n2"))
            if d
        ]
        if inside:
            value = f"(({' && '.join(inside)}) ? {value} : outside)"
        if k == 0:
            lines.append(f"        acc = {hexf(coeff)} * {value};")
        elif coeff == -1.0:
            lines.append(f"        acc = acc - {value};")
        elif coeff == 1.0:
            lines.append(f"        acc = acc + {value};")
        else:
            lines.append(f"        acc = acc + {hexf(coeff)} * {value};")
    longs = ", ".join(f"op->n[{k}]" for k in range(5))
    entry = f"void {name}(const op_t* op) {{ {name}_body(op->p[0], op->p[1], {longs}, *op->s[0]); }}"
    lines += ["        dst[c] = acc;", "      }", "}", entry]
    return "\n".join(lines) + "\n"


def _projection_source(name: str, card: int) -> str:
    """C for ``mu[c] = ((z > 0) * mask) * u[c]`` over slices ``[lo, hi)``,
    ``z`` the global axis-0 coordinate."""
    return f"""static void {name}_body(const double* restrict u, const double* restrict mask, double* restrict mu,
    long cstride, long plane, long h, long lo, long hi, long gstart) {{
  for (long z = h + lo; z < h + hi; ++z) {{
    double above = (gstart + z - h > 0) ? 1.0 : 0.0;
    for (long i = z * plane; i < (z + 1) * plane; ++i) {{
      double fr = above * mask[i];
      for (long k = 0; k < {card}; ++k) mu[k * cstride + i] = fr * u[k * cstride + i];
    }}
  }}
}}
void {name}(const op_t* op) {{
  {name}_body(op->p[0], op->p[1], op->p[2], op->n[0], op->n[1], op->n[2], op->n[3], op->n[4], op->n[5]);
}}
"""


#: an x loop's promise that no store feeds a later iteration's load: the
#: loads it vectorises across come from buffers its stores do not touch,
#: or only from the cell a store writes (read before written)
IVDEP = ("#ifdef __clang__", "#pragma clang loop vectorize(assume_safety)", "#else", "#pragma GCC ivdep", "#endif")

#: a block stencil's row classes, each with its own x loop: ``(the C that
#: opens its branch, lateral y offsets whose reads are outside)`` — interior
#: rows, the only row, the first, the last
_ROW_CLASSES = (
    ("if (y > 0 && y < n1 - 1)", ()),
    ("} else if (n1 == 1)", (-1, 1)),
    ("} else if (y == 0)", (-1,)),
    ("} else", (1,)),
)


def _block_stencil_source(name: str, terms: tuple) -> str:
    """C for ``out[c] = fr > 0.5 ? sum coeff * src[d](cell + off) : keep[c]``
    with ``fr = (z > 0) * mask``, over slices ``[lo, hi)``.

    ``terms`` is ``((offset, ((c, d, coeff), ...)), ...)``: every nonzero
    block entry, offsets in the closure's order and ``(c, d)`` row-major
    within each, so each ``a<c>`` accumulates in the closure's (offset, d)
    order from ``0.0``.  ``keep`` and ``out`` may alias: a cell reads its
    own ``keep`` before writing ``out``.

    Each row of a plane runs the x loop of its class (:data:`_ROW_CLASSES`),
    branch-free so the compiler vectorises it; the x guards stay per-cell
    selects (masked loads).
    """
    hexf = _cc.hexf
    card = 1 + max(c for _, entries in terms for c, _, _ in entries)
    acc = ", ".join(f"a{c} = 0.0" for c in range(card))
    lines = [
        f"static void {name}_body(const double* restrict src, const double* keep, double* out,",
        "    const double* restrict mask, long cstride, long n1, long n2, long h, long lo, long hi,",
        "    long gstart, double outside) {",
        "  long plane = n1 * n2;",
        "  for (long z = h + lo; z < h + hi; ++z) {",
        "    double above = (gstart + z - h > 0) ? 1.0 : 0.0;",
        "    for (long y = 0; y < n1; ++y) {",
        "      long row = (z * n1 + y) * n2;",
    ]
    for opener, missing in _ROW_CLASSES:
        lines.append(f"      {opener} {{")
        lines += IVDEP
        lines += ["        for (long x = 0; x < n2; ++x) {", "          long i = row + x;"]
        lines.append(f"          double {acc}, v;")
        for (d0, d1, d2), entries in terms:
            for d in sorted({d for _, d, _ in entries}):
                value = f"src[{d} * cstride + i + ({d0}) * plane + ({d1}) * n2 + ({d2})]"
                if d1 in missing:
                    value = "outside"
                elif d2:
                    value = f"(x + ({d2}) >= 0 && x + ({d2}) < n2) ? {value} : outside"
                lines.append(f"          v = {value};")
                lines += [f"          a{c} = a{c} + {hexf(coeff)} * v;" for c, dd, coeff in entries if dd == d]
        lines.append("          double fr = above * mask[i];")
        for c in range(card):
            lines.append(f"          out[{c} * cstride + i] = (fr > 0.5) ? a{c} : keep[{c} * cstride + i];")
        lines.append("        }")
    longs = ", ".join(f"op->n[{k}]" for k in range(7))
    call = f"{name}_body(op->p[0], op->p[1], op->p[2], op->s[1], {longs}, *op->s[0]);"
    entry = f"void {name}(const op_t* op) {{ {call} }}"
    lines += ["      }", "    }", "  }", "}", entry]
    return "\n".join(lines) + "\n"


#: operator kind -> emitter of ``(symbol, declared terms)``
_OPERATORS = {"stencil": _stencil_source, "projection": _projection_source, "block_stencil": _block_stencil_source}


@functools.lru_cache(maxsize=16)
def _source(operators: tuple) -> str:
    """The translation unit of a grid that declared ``operators``."""
    maps = "".join(f"DEFINE_MAP(map_{name}, {expr})\n" for name, expr in MAP_FORMS.items())
    reduces = f"#define PW_BLOCK {PAIRWISE_BLOCK}\n" + _table.PAIRWISE_C + _REDUCE_C
    emitted = "".join(_OPERATORS[kind](f"{kind}_{k}", terms) for k, (kind, terms) in enumerate(operators))
    return _table.OP_H + _MAP_C + maps + reduces + emitted


def _declare(grid, kind: str, terms) -> str:
    """Add operator ``(kind, terms)`` to ``grid``'s translation unit (once);
    returns its symbol.  The declarations are kept on the grid: they are
    what makes its unit, and die with it."""
    declared = vars(grid).setdefault("_c_operators", [])
    if (kind, terms) not in declared:
        declared.append((kind, terms))
    return f"{kind}_{declared.index((kind, terms))}"


def unit_source(grid) -> str:
    """The translation unit of ``grid``: the fixed maps and reduces plus
    every operator its containers declared so far."""
    return _source(tuple(vars(grid).get("_c_operators", ())))


def _bind(grid, symbol: str):
    """``symbol`` out of the grid's unit, or None (no compiler, build failed)."""
    source = unit_source(grid)
    return _table.bind((symbol, source), source, symbol)


def dense_slabs(rank: int, span, fields) -> tuple[list, list] | None:
    """``(storage arrays, span strips)`` when a C kernel can address them.

    Every field must be a non-virtual dense SoA float64 field whose
    components are each C-contiguous, and all must share one storage
    ``(shape, strides)``: a kernel walks every operand with the one
    component stride :func:`component_stride` reads.  The storage as a
    whole need not be C-contiguous (the components are pitched).  The span
    must be made of dense strips.
    """
    arrays = []
    for field in fields:
        if not isinstance(field, DenseField) or field.virtual or field.layout is not Layout.SOA:
            return None
        array = field.partition(rank).storage
        if array.dtype != np.float64 or not array[0].flags["C_CONTIGUOUS"]:
            return None
        arrays.append(array)
    strips = span.pieces()
    if len({(a.shape, a.strides) for a in arrays}) != 1 or not all(isinstance(s, DenseStrip) for s in strips):
        return None
    return arrays, strips


def component_stride(array: np.ndarray) -> int:
    """Elements from one component of an SoA storage array to the next."""
    return array.strides[0] // array.itemsize


def operand(array: np.ndarray, first: int, last: int, write: bool = False) -> _table.Operand:
    """A dense storage array ``(card, planes, *lateral)`` as a window operand:
    owned plane ``z`` touches its storage planes ``z + first .. z + last``."""
    return _table.Operand(array.ctypes.data, array.shape[0], array.strides[0], array.strides[1], first, last, write)


def windows(grid, rank: int, strips, slots: tuple[int, int], operands, **kw) -> list[_table.Window]:
    """One :class:`~repro.codegen.table.Window` per strip of a rank's span."""
    internal = grid.span_for(rank, DataView.INTERNAL)
    common = dict(slab=(id(grid), rank), internal=internal.hi - internal.lo, slots=slots, operands=tuple(operands))
    return [_table.Window(lo=s.lo, hi=s.hi, **common, **kw) for s in strips]


def launcher(fn, calls: list, keep, slot=None, scalars=None, extra=None, windows=None):
    """What a replay runs for one unit: the table of its span-piece ops.

    ``calls`` holds one ``(array addresses, longs)`` pair per piece and
    ``keep`` pins the arrays behind the addresses.  The ops read their
    run-time scalars from the ``double[2]`` ``slot``, which every call
    refills from ``scalars()`` first (never at bind time); a ``slot``
    without ``scalars`` holds constants.  ``extra`` is a fourth array
    address (:func:`repro.codegen.table.record`); ``windows`` gives each
    piece's footprint.  None when no walker can be built.
    """
    records = [_table.record(fn, pointers, slot, longs, extra) for pointers, longs in calls]
    return _table.table(records, [(scalars, slot)] if scalars else [], (keep, slot), windows)


def scalar_slot(a: float = 0.0, b: float = 0.0):
    """Host-owned storage for the two scalars an op may read."""
    return (ctypes.c_double * 2)(a, b)


def elementwise(form: str, out, x=None, y=None, scalars=None):
    """``specialize`` hook: ``out <- MAP_FORMS[form](x, y, a, b)`` on owned cells.

    ``scalars() -> (a, b)`` runs on every launch, never at bind time.
    Operands (and scalars) a form does not read may be omitted.
    """
    fields = (out, out if x is None else x, out if y is None else y)
    slot = scalar_slot()  # one per container: every unit of it reads the same cells

    def specialize(rank, view, span):
        slabs = dense_slabs(rank, span, fields)
        fn = slabs and _bind(out.grid, f"map_{form}")
        if not fn:
            return None
        arrays, strips = slabs
        card, cstride = arrays[0].shape[0], component_stride(arrays[0])
        plane, h = arrays[0][0, 0].size, out.grid.radius
        pointers = [a.ctypes.data for a in arrays]
        calls = [(pointers, (card, cstride, (h + s.lo) * plane, (s.hi - s.lo) * plane)) for s in strips]
        operands = [operand(a, h, h, write=k == 0) for k, a in enumerate(arrays)]
        spans = windows(out.grid, rank, strips, (2, 3), operands, cells=plane, h=h)
        return launcher(fn, calls, arrays, slot, scalars, windows=spans)

    return specialize


def stencil(src, dst, terms):
    """``specialize`` hook: ``dst <- sum_k coeff_k * src[cell + offset_k]``.

    ``terms`` is ``((offset, coeff), ...)`` in the order the interpreted
    closure accumulates them (component 0 of both fields, like it).
    Declaring the operator adds it to the grid's translation unit.
    """
    terms = tuple((tuple(int(d) for d in off), float(c)) for off, c in terms)
    grid = src.grid
    if grid.ndim != 3 or src is dst or any(len(off) != 3 for off, _ in terms):
        return None
    symbol = _declare(grid, "stencil", terms)

    def specialize(rank, view, span):
        if max(abs(off[0]) for off, _ in terms) > grid.radius:
            return None
        slabs = dense_slabs(rank, span, (src, dst))
        fn = slabs and _bind(grid, symbol)
        if not fn:
            return None
        arrays, strips = slabs
        n1, n2 = arrays[0].shape[2:]
        h, reach = grid.radius, [off[0] for off, _ in terms]
        pointers = [a.ctypes.data for a in arrays]
        calls = [(pointers, (n1, n2, h, s.lo, s.hi)) for s in strips]
        operands = (operand(arrays[0], h + min(reach), h + max(reach)), operand(arrays[1], h, h, write=True))
        spans = windows(grid, rank, strips, (3, 4), operands)
        return launcher(fn, calls, arrays, scalar_slot(float(src.outside_value)), windows=spans)

    return specialize


def indicator_slab(rank: int, span, field, like: np.ndarray) -> np.ndarray | None:
    """The storage of a card-1 dense SoA float64 ``field`` laid out cell for
    cell like one component of ``like``, or None."""
    slabs = dense_slabs(rank, span, (field,))
    array = slabs and slabs[0][0]
    return array if array is not None and array.shape == (1, *like.shape[1:]) else None


def projection(src, mask, dst):
    """``specialize`` hook: ``dst[c] <- ((z > 0) * mask) * src[c]`` for the
    closure's three components, ``z`` the global axis-0 coordinate (the
    elasticity operator's Dirichlet / void projection).  Declaring it adds
    it to the grid's translation unit."""
    card = 3
    symbol = _declare(src.grid, "projection", card)

    def specialize(rank, view, span):
        slabs = dense_slabs(rank, span, (src, dst))
        m = slabs and indicator_slab(rank, span, mask, slabs[0][0])
        fn = m is not None and slabs[0][0].shape[0] == card and _bind(src.grid, symbol)
        if not fn:
            return None
        arrays, strips = slabs
        plane, h, gstart = arrays[0][0, 0].size, src.grid.radius, int(src.grid.bounds[rank][0])
        pointers = [a.ctypes.data for a in (arrays[0], m, arrays[1])]
        calls = [(pointers, (component_stride(arrays[0]), plane, h, s.lo, s.hi, gstart)) for s in strips]
        operands = (operand(arrays[0], h, h), operand(m, h, h), operand(arrays[1], h, h, write=True))
        return launcher(fn, calls, (*arrays, m), windows=windows(src.grid, rank, strips, (3, 4), operands))

    return specialize


def block_stencil(src, mask, keep, dst, terms):
    """``specialize`` hook: ``dst[c] <- sum coeff * src[d][cell + offset]``
    where ``(z > 0) * mask > 0.5``, else ``keep[c]`` (the elasticity
    operator's 27-point block stencil).

    ``terms`` is ``((offset, ((c, d, coeff), ...)), ...)``, every nonzero
    block entry in the order the interpreted closure accumulates them.
    Lateral out-of-range reads resolve to ``src.outside_value``; axis-0
    reads go through the ghost slices.  Declaring the operator adds it to
    the grid's translation unit.
    """
    terms = tuple(
        (tuple(int(d) for d in off), tuple((int(c), int(d), float(v)) for c, d, v in entries)) for off, entries in terms
    )
    grid = src.grid
    if grid.ndim != 3 or src is dst or any(len(off) != 3 for off, _ in terms):
        return None
    symbol = _declare(grid, "block_stencil", terms)
    card = 1 + max(c for _, entries in terms for c, _, _ in entries)

    def specialize(rank, view, span):
        if max(abs(off[0]) for off, _ in terms) > grid.radius:
            return None
        slabs = dense_slabs(rank, span, (src, keep, dst))
        m = slabs and indicator_slab(rank, span, mask, slabs[0][0])
        fn = m is not None and slabs[0][0].shape[0] == card and _bind(grid, symbol)
        if not fn:
            return None
        arrays, strips = slabs
        n1, n2 = arrays[0].shape[2:]
        gstart, cstride = int(grid.bounds[rank][0]), component_stride(arrays[0])
        h, reach = grid.radius, [off[0] for off, _ in terms]
        pointers = [a.ctypes.data for a in arrays]
        calls = [(pointers, (cstride, n1, n2, h, s.lo, s.hi, gstart)) for s in strips]
        slot = scalar_slot(float(src.outside_value))
        operands = (
            operand(arrays[0], h + min(reach), h + max(reach)),
            operand(arrays[1], h, h),
            operand(m, h, h),
            operand(arrays[2], h, h, write=True),
        )
        spans = windows(grid, rank, strips, (4, 5), operands)
        return launcher(fn, calls, (*arrays, m), slot, extra=m.ctypes.data, windows=spans)

    return specialize


def slice_sums(partial, x, y=None):
    """``specialize`` hook: per-slice sums of ``x * y`` (``x`` alone without
    ``y``) into a per-slice partial, bitwise what
    ``SliceReduceAccessor.deposit_sums`` deposits."""

    def specialize(rank, view, span):
        if partial.virtual:
            return None
        row = partial.partition(rank).array
        if row.dtype != np.float64 or row.ndim != 1 or not row.flags["C_CONTIGUOUS"]:
            return None
        slabs = dense_slabs(rank, span, (x, x if y is None else y))
        fn = slabs and _bind(x.grid, "slice_sum" if y is None else "slice_dot")
        if fn and not hasattr(fn, "sums_like_numpy"):
            fn.sums_like_numpy = _tree_matches_numpy(fn)  # once per bound function
        if not fn or not fn.sums_like_numpy:
            return None
        arrays, strips = slabs
        card, slices = arrays[0].shape[:2]
        plane, h = arrays[0][0, 0].size, x.grid.radius
        if len(row) != slices - 2 * h:
            return None
        pointers = [a.ctypes.data for a in (*arrays, row)]
        calls = [(pointers, (card, component_stride(arrays[0]), plane, h, s.lo, s.hi)) for s in strips]
        sums = _table.Operand(row.ctypes.data, 1, 0, row.itemsize, 0, 0, write=True)
        operands = (operand(arrays[0], h, h), operand(arrays[1], h, h), sums)
        return launcher(fn, calls, (*arrays, row), windows=windows(x.grid, rank, strips, (4, 5), operands))

    return specialize


def _tree_matches_numpy(fn) -> bool:
    """Does a bound reduce kernel sum exactly like ``np.sum`` here?

    ``y = 1`` makes the dot's leaves the plain values (``x * 1.0`` is
    exact).  Every check vector (:func:`repro.codegen.table.check_vectors`)
    is summed as one component, so every leaf feeds the tree in place, and
    those of a length divisible by 3 once more as three pitched components,
    so leaves straddling a component boundary take the gathered path.
    """
    for x in _table.check_vectors():
        for card in {1, 3 if len(x) % 3 == 0 else 1}:
            plane = len(x) // card
            xs = np.zeros((card, plane + 5))  # 5 elements of pitch slack per component
            xs[:, :plane] = x.reshape(card, plane)
            got, ones = np.empty(1), np.ones_like(xs)
            longs = (card, plane + 5, plane, 0, 0, 1)
            fn(_table.record(fn, [a.ctypes.data for a in (xs, ones, got)], None, longs))
            if got.tobytes() != np.sum(x).tobytes():
                return False
    return True
