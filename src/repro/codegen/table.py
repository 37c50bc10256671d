"""Op tables: a frozen run of generated kernels and halo copies behind one C call.

**One kernel ABI.**  Every generated kernel exports ``void k(const op_t*)``
and reads its operands from a packed record (:data:`OP_H`, mirrored by
:class:`Op`): array pointers, longs, and *pointers to* host-owned
``double`` slots for the scalars that may change between replays.  A
:class:`Table` is an array of such records walked by ``run_ops`` — one
two-argument ctypes call, the GIL released for the whole walk — whatever
mix of maps, stencils, reduces, D3Q19 spans and ``copy_op`` halo copies it
holds.  A specialised unit's closure is the table of its span-piece ops;
a bare serial replay runs the concatenation of consecutive units' tables
(:func:`repro.skeleton.fusion.lower_serial`).  Same type, same call.

**Scalars.**  A table evaluates each distinct scalar source once per call,
into the slot its ops point at, then walks.  That equals reading them per
launch because no Python runs inside a table: whatever could change a
host cell is a Python unit, which ends the table before it.

**Windows.**  Beside each record a table keeps what the op touches: a
:class:`Window` for a kernel that walks axis-0 planes (which planes, where
its record holds them, which planes of which arrays each one reads or
writes), a tuple of byte ranges for a halo copy, None for anything else.
A window narrows a record to one plane, the same kernel over fewer
slices; :mod:`repro.codegen.pipeline` reorders a concatenation plane by
plane from these alone.

**Lifetime.**  Records hold raw addresses; ``keep`` pins what they point
into (field payloads, partial rows, scalar slots), so a table stays valid
after every other reference to its solver is dropped.  Payload arrays are
never rebound, which is why a field builds its copy tables once.

The walker is its own tiny translation unit, bound through
``repro.codegen.compile_shared`` like every other (looked up per call: the
benchmark's probe interposes on that name).  Without a compiler nothing
here is built and callers keep their Python closures.
"""

from __future__ import annotations

import ctypes
from functools import partial
from typing import NamedTuple

import numpy as np

from repro import codegen as _cc

#: the record every generated translation unit starts with
OP_H = """
typedef struct op op_t;
struct op {
  void (*fn)(const op_t*); /* what run_ops calls with this record */
  double* p[3];            /* array operands */
  const double* s[2];      /* run-time scalars: host slots written before the walk */
  long n[8];               /* extents, strides, offsets */
};
"""

_WALKER_C = (
    "#include <string.h>\n"
    + OP_H
    + """
void run_ops(const op_t* ops, long n) {
  for (long i = 0; i < n; ++i) ops[i].fn(&ops[i]);
}

/* copy p[0] -> p[1]: n[0] chunks of n[1] bytes, n[2] bytes apart at the
   source and n[3] at the destination */
void copy_op(const op_t* op) {
  const char* src = (const char*)op->p[0];
  char* dst = (char*)op->p[1];
  long chunks = op->n[0], bytes = op->n[1];
  for (long c = 0; c < chunks; ++c) memcpy(dst + c * op->n[3], src + c * op->n[2], bytes);
}
"""
)


class Op(ctypes.Structure):
    """:data:`OP_H` as ctypes sees it."""

    _fields_ = [
        ("fn", ctypes.c_void_p),
        ("p", ctypes.c_void_p * 3),
        ("s", ctypes.c_void_p * 2),
        ("n", ctypes.c_long * 8),
    ]


def bind(key: tuple, source: str, symbol: str):
    """Kernel ``symbol`` of ``source`` (which starts with :data:`OP_H`), or None."""
    return _cc.compile_shared(key, source, symbol, [ctypes.POINTER(Op)])


def record(fn, pointers=(), slot=None, longs=(), extra=None) -> Op:
    """One op: bound kernel ``fn`` over array addresses ``pointers`` and
    ``longs``, its scalars read from the ``double[2]`` ``slot``.

    ``extra`` is the address of one more read-only array (a fourth operand
    for the kernels that take one); it rides in ``s[1]``, so such an op
    reads a single scalar, ``slot[0]``.
    """
    op = Op(fn=ctypes.cast(fn, ctypes.c_void_p).value)
    op.p[: len(pointers)] = pointers
    if slot is not None:
        base = ctypes.addressof(slot)
        op.s[:] = (base, base + ctypes.sizeof(ctypes.c_double))
    if extra is not None:
        op.s[1] = extra
    op.n[: len(longs)] = longs
    return op


class Operand(NamedTuple):
    """An array an op touches, addressed by axis-0 plane: for owned plane
    ``z`` the op reads (or writes) storage planes ``z + first`` through
    ``z + last`` of each of ``card`` components, ``cstride`` bytes apart,
    ``plane`` bytes per plane."""

    address: int
    card: int
    cstride: int
    plane: int
    first: int
    last: int
    write: bool = False

    def extents(self, lo: int, hi: int) -> list[tuple[int, int, bool]]:
        """Byte ranges ``(start, end, write)`` touched for owned planes ``[lo, hi)``."""
        base = [self.address + c * self.cstride for c in range(self.card)]
        return [(b + (lo + self.first) * self.plane, b + (hi + self.last) * self.plane, self.write) for b in base]


class Window(NamedTuple):
    """How one op walks axis 0 (see the module docstring).

    The op covers owned planes ``[lo, hi)`` of rank slab ``slab`` (grid
    identity, rank), whose INTERNAL view holds ``internal`` planes.  Its
    record keeps the window in ``n[slots[0]]`` and ``n[slots[1]]``: the
    planes themselves when ``cells`` is 0, else the first element and the
    element count, ``cells`` elements per plane after ``h`` ghost planes.
    ``constants`` are byte ranges it reads whatever the plane.
    """

    slab: tuple
    lo: int
    hi: int
    internal: int
    slots: tuple[int, int]
    operands: tuple[Operand, ...]
    cells: int = 0
    h: int = 0
    constants: tuple = ()

    def narrow(self, op: "Op", z: int) -> "Op":
        """``op`` over owned plane ``z`` alone."""
        out = Op.from_buffer_copy(op)
        i, j = self.slots
        out.n[i], out.n[j] = ((self.h + z) * self.cells, self.cells) if self.cells else (z, z + 1)
        return out

    def extents(self, lo: int, hi: int) -> list[tuple[int, int, bool]]:
        """Byte ranges ``(start, end, write)`` touched for owned planes ``[lo, hi)``."""
        out = [(a, b, False) for a, b in self.constants]
        for operand in self.operands:
            out += operand.extents(lo, hi)
        return out


class Table:
    """Ops run in order by one C call; see the module docstring.

    ``reads`` pairs each scalar source with the slot it fills; ``keep``
    pins whatever the records' raw pointers point into; ``windows`` holds
    one footprint per op (a :class:`Window`, a tuple of byte ranges or
    None).
    """

    __slots__ = ("ops", "reads", "keep", "windows", "_walk")

    def __init__(self, walk, ops, reads, keep, windows=None):
        self.ops, self.reads, self.keep = ops, reads, keep
        self.windows = tuple(windows) if windows is not None else (None,) * len(ops)
        self._walk = partial(walk, ctypes.addressof(ops), len(ops))

    def __call__(self) -> None:
        for read, slot in self.reads:
            slot[:] = read()
        self._walk()


def table(records: list, reads: list, keep, windows=None) -> Table | None:
    """The table of ``records``, or None when the walker cannot be built."""
    walk = _cc.compile_shared(("optable", "run_ops"), _WALKER_C, "run_ops", [ctypes.c_void_p, ctypes.c_long])
    return walk and Table(walk, (Op * len(records))(*records), reads, keep, windows)


def scalar_reads(tables: list) -> list:
    """The scalar reads of ``tables``, each distinct slot once."""
    return list({id(slot): (read, slot) for t in tables for read, slot in t.reads}.values())


def concat(tables: list) -> Table:
    """One table running ``tables`` back to back; each distinct slot is read once."""
    if len(tables) == 1:
        return tables[0]
    ops = [op for t in tables for op in t.ops]
    return table(ops, scalar_reads(tables), tables, [w for t in tables for w in t.windows])


def _chunks(view: np.ndarray) -> tuple[int, int, int] | None:
    """``(count, bytes, stride)`` of a view that is contiguous, or a stack of
    contiguous blocks along axis 0 (a multi-component SoA slab)."""
    if view.flags["C_CONTIGUOUS"]:
        return 1, view.nbytes, 0
    if view.ndim > 1 and view[0].flags["C_CONTIGUOUS"]:
        return len(view), view[0].nbytes, view.strides[0]
    return None


def copy(dst: np.ndarray, src: np.ndarray) -> Table | None:
    """``np.copyto(dst, src)`` as a one-op table, or None when it cannot be
    one (no compiler, empty or oddly strided operands)."""
    s, d = _chunks(src), _chunks(dst)
    fn = s and d and s[:2] == d[:2] and src.nbytes and bind(("optable", "copy_op"), _WALKER_C, "copy_op")
    if not fn:
        return None
    op = record(fn, (src.ctypes.data, dst.ctypes.data), None, (*s, d[2]))
    ranges = [(src.ctypes.data + c * s[2], src.ctypes.data + c * s[2] + s[1], False) for c in range(s[0])]
    ranges += [(dst.ctypes.data + c * d[2], dst.ctypes.data + c * d[2] + d[1], True) for c in range(d[0])]
    return table([op], [], (src, dst), [tuple(ranges)])
