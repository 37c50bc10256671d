"""Compile generated C sources with the system compiler, bind via ctypes.

Design constraints, in order:

* **Bitwise fidelity** — compiled kernels must reproduce the interpreted
  NumPy results exactly.  ``-ffp-contract=off`` forbids FMA contraction
  (an FMA keeps the intermediate product unrounded, changing the low
  bits), and no fast-math flag is ever passed, so the compiler must
  preserve the written IEEE-754 operation order.  Generators embed float
  constants through :func:`hexf` (C hexadecimal float literals), which
  round-trips every double exactly.
* **Built for the host CPU** — ``-march=native`` lets the compiler
  vectorise with whatever the machine has (AVX-512 masked loads turn the
  kernels' guarded neighbour reads into vector code), and none of it
  moves a bit: ``-ffp-contract=off`` still forbids FMA contraction, a
  vector lane computes each element with the same correctly rounded
  IEEE-754 operations a scalar register does, whatever the width, and
  every sum that crosses elements — the reduce tree, the sequential
  population and block sums — is written out in the source, which the
  compiler keeps in order without fast-math (no reassociation, so no
  vector partial sums).  :func:`repro.codegen.grid_kernels._tree_matches_numpy`
  still checks the tree against NumPy on first use.
* **Zero new dependencies** — ``cc`` (or ``gcc``/``clang``) plus the
  standard-library ``ctypes``; when neither compiler exists,
  :func:`compile_shared` returns ``None`` and callers keep the
  interpreted path.
* **Compile once per machine** — a built object is published in a
  content-addressed per-user cache, ``<tempfile.gettempdir()>/repro-cc-<uid>/
  <sha256>.so``, keyed on the source text, :data:`CFLAGS`, the
  compiler's identity (real path, size, mtime) and the host CPU's (its
  ``/proc/cpuinfo`` model name and flags, :func:`_host_cpu`), so a
  ``TMPDIR`` shared by two different CPUs never maps an object built for
  the other.  The first process on a machine pays ``cc``; every later
  one — each benchmark leg, served cold job and CLI run is a fresh
  process — only ``dlopen``\\ s.  The directory is created ``0700`` and
  trusted only while it is ours and not group- or world-writable;
  objects appear by write-to-temp + ``os.replace``, so a
  concurrent process never maps a partial file; an object that is
  truncated or fails to load is rebuilt and replaced.  Deleting the
  directory is always safe.
  When it cannot be trusted the unit is built in a private temporary
  directory that is removed as soon as the object is mapped.  The
  location follows the standard ``TMPDIR``; there is no switch of its own.
* **Load once per process** — the CDLL handle is held for the life of the
  process so the mapping never goes away under a live function pointer,
  and a failed build is remembered so its cost is paid once.

Set ``REPRO_DISABLE_CC=1`` to force the interpreted fallback: no C, and
no cache touched (used by tests to pin the fallback path, and as an
operator escape hatch).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import struct
import subprocess
import tempfile
import threading
from pathlib import Path

#: flags shared by every generated translation unit; -ffp-contract=off is
#: load-bearing for bitwise identity, -march=native for speed (see module
#: docstring)
CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")

_lock = threading.Lock()
_compiler: str | None = None
_compiler_checked = False
_cache: dict[tuple, object] = {}  # key -> bound ctypes function | None
_libs: dict[str, ctypes.CDLL | None] = {}  # source text -> loaded object | None (build failed)


def hexf(x: float) -> str:
    """A C literal that reconstructs ``x`` bit-for-bit (hex float)."""
    return float(x).hex()


def compiler() -> str | None:
    """Path of the first usable C compiler, or None (cached)."""
    global _compiler, _compiler_checked
    if not _compiler_checked:
        with _lock:
            if not _compiler_checked:
                for cand in ("cc", "gcc", "clang"):
                    found = shutil.which(cand)
                    if found:
                        _compiler = found
                        break
                _compiler_checked = True
    return _compiler


def available() -> bool:
    """True when compiled kernels can be built in this process."""
    if os.environ.get("REPRO_DISABLE_CC"):
        return False
    return compiler() is not None


def _cache_dir() -> Path | None:
    """The per-user object cache, or None when it cannot be trusted.

    A directory somebody else owns or may write to (or a plain file in
    its place) could hand us a foreign shared object to ``dlopen``.
    """
    path = Path(tempfile.gettempdir(), f"repro-cc-{os.getuid()}")
    try:
        path.mkdir(mode=0o700, exist_ok=True)
        st = path.lstat()
    except OSError:
        return None
    ours = stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022
    return path if ours else None


@functools.cache
def _host_cpu() -> str:
    """What ``-march=native`` builds for: the first ``model name`` and
    ``flags`` lines of ``/proc/cpuinfo`` (``Features`` on Arm), else the
    platform's machine and processor names."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        lines = []
    found = [next((ln for ln in lines if ln.startswith(key)), "") for key in ("model name", "flags", "Features")]
    return "\n".join(found) if any(found) else f"{platform.machine()} {platform.processor()}"


def _object_name(source: str) -> str:
    """Content address of the object ``source`` builds into on this machine."""
    cc = os.path.realpath(compiler())
    st = os.stat(cc)
    identity = (source, " ".join(CFLAGS), cc, str(st.st_size), str(st.st_mtime_ns), _host_cpu())
    return hashlib.sha256("\0".join(identity).encode()).hexdigest() + ".so"


def _whole(path: Path) -> bool:
    """False for an ELF object that ends before its own tables do.

    ``dlopen`` maps a truncated object without complaint and the process
    dies of SIGBUS on the first touch of a missing page, so truncation
    must be caught before loading.  The linker writes the section-header
    table last: it lies inside the file exactly when the file is whole.
    Anything that is not 64-bit ELF is left to the loader's own checks.
    """
    with open(path, "rb") as fh:
        head = fh.read(64)
    if head[:5] != b"\x7fELF\x02":
        return True
    if len(head) < 64:
        return False
    order = "<" if head[5] == 1 else ">"
    (shoff,) = struct.unpack_from(order + "Q", head, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", head, 0x3A)
    return shoff + shentsize * shnum <= path.stat().st_size


def _load(source: str) -> ctypes.CDLL:
    """Map the object built from ``source``: from the cache when it holds a
    loadable one, else built now (and published when there is a cache).

    Raises ``OSError`` / ``subprocess.CalledProcessError`` on failure.
    """
    cache = _cache_dir()
    if cache is not None:
        cached = cache / _object_name(source)
        try:
            if _whole(cached):
                return ctypes.CDLL(str(cached))
        except OSError:
            pass  # absent or unloadable
        # fall through: build it and replace whatever is there
    # inside the cache the build directory shares its filesystem, so the
    # rename that publishes the object is atomic
    with tempfile.TemporaryDirectory(prefix="repro-cc-build-", dir=cache) as build:
        c_path, built = Path(build, "kernel.c"), Path(build, "kernel.so")
        c_path.write_text(source)
        subprocess.run([compiler(), *CFLAGS, str(c_path), "-o", str(built)], check=True, capture_output=True)
        if cache is None:
            return ctypes.CDLL(str(built))  # the mapping outlives the unlinked file
        os.replace(built, cached)
    return ctypes.CDLL(str(cached))


def compile_shared(key: tuple, source: str, symbol: str, argtypes: list, restype=None):
    """Build or load ``source`` and return its bound ``symbol``.

    ``key`` identifies the bound function in the process-wide cache
    (callers key on everything baked into the source, and on the symbol
    when one translation unit exports several).  Returns ``None`` on any
    failure — missing compiler, compile error, load error, missing
    symbol — and caches the failure so the cost is paid once.
    """
    if not available():
        return None
    with _lock:
        if key in _cache:
            return _cache[key]
        fn = _cache[key] = None
        try:
            if source not in _libs:
                _libs[source] = None  # a build that fails is not tried again
                _libs[source] = _load(source)
            if _libs[source] is not None:
                fn = _cache[key] = _libs[source][symbol]
                fn.argtypes, fn.restype = argtypes, restype
        except (OSError, subprocess.CalledProcessError, AttributeError):
            pass  # no build, no load or no such symbol: the caller keeps its interpreted path
        return fn
