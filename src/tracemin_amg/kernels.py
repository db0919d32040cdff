"""The compiled CF split and masked slot product, built on first use.

kernels.c ships beside this module.  The first call of library() in a
process compiles it with the system C compiler (`cc -O2
-ffp-contract=off -fPIC -shared`) into the user cache directory,
$XDG_CACHE_HOME/tracemin-amg or ~/.cache/tracemin-amg, as
kernels-<sha256>.so, the hash taken over the source and the compiler
flags.  The library is written to a temporary file and renamed into
place, so concurrent first uses do not see a half-written file, and
later processes load it without compiling.  It is opened with ctypes.

With no compiler on PATH, no writable cache directory, or a source or
library that cannot be read, compiled or loaded, library() returns None
and every caller quietly runs its NumPy/Python path, which is the bit
reference of the kernel it stands in for.  backend() names the path
setup takes.  The wrappers below return None where their kernel cannot
run (no library, or an index array that is not int32); the caller then
takes its own path.
"""

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["library", "backend", "greedy_split", "masked_product"]

SOURCE = Path(__file__).with_name("kernels.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_INDEX = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_INDEX_OUT = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS,WRITEABLE")
_VALUES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_SIGNATURES = {
    "greedy_split": [ctypes.c_int64, _INDEX, _INDEX,
                     np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS,WRITEABLE"),
                     _INDEX_OUT,
                     np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")],
    "masked_product": [ctypes.c_int64, _INDEX, _INDEX, _VALUES,
                       _INDEX, _INDEX, _VALUES, _INDEX_OUT,
                       np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")],
}


def _cache_dir():
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "tracemin-amg"


def _compile(source, target):
    """Compile the source bytes into the shared library at target; False
    when no compiler is found or it fails, or the directory is not
    writable."""
    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    except OSError:
        return False
    os.close(fd)
    try:
        built = subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp], input=source,
                               capture_output=True, check=False).returncode == 0
        if built:
            os.replace(tmp, target)
        return built
    except OSError:
        return False
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def library():
    """The compiled kernels as a ctypes library with declared signatures,
    built on the first call of the process; None when they cannot be
    built or loaded (see the module docstring)."""
    try:
        source = SOURCE.read_bytes()
        digest = hashlib.sha256(" ".join(FLAGS).encode() + b"\n" + source).hexdigest()
        target = _cache_dir() / f"kernels-{digest}.so"
    except (OSError, RuntimeError):  # Path.home() raises RuntimeError without a home
        return None
    if not target.exists() and not _compile(source, target):
        return None
    try:
        lib = ctypes.CDLL(str(target))
    except OSError:
        return None
    for name, argtypes in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, None
    return lib


def backend():
    """"compiled" when library() loads the kernels, else "python": the
    path cf_split and apply_weighted_operator take in this process."""
    return "python" if library() is None else "compiled"


def _int32(*arrays):
    return all(a.dtype == np.int32 for a in arrays)


def greedy_split(S, state):
    """The greedy pass of coarsening.cf_split on the canonical adjacency
    S, in place on state (uint8, 0 unassigned or 1 for a vertex with no
    edge on entry, 1 C or 2 F on return); returns state, or None with
    state untouched where the kernel cannot run."""
    lib = library()
    if lib is None or not _int32(S.indptr, S.indices):
        return None
    n = S.shape[0]
    lib.greedy_split(n, S.indptr, S.indices, state, np.zeros(n, dtype=np.int32),
                     np.empty(max(S.nnz, 1), dtype=np.int64))
    return state


def masked_product(A, pattern, values, out):
    """(A W) at W's own slots, W the pattern with `values`, written to the
    slot vector out and returned, bit for bit what sampling the SpGEMM
    product A @ W at the slots reads; None with out untouched where the
    kernel cannot run.  A is square CSR over the pattern's rows."""
    lib = library()
    if (lib is None or not _int32(A.indptr, A.indices, pattern.indptr, pattern.cols)
            or A.data.dtype != np.float64):
        return None
    nf, nc = pattern.shape
    if A.shape != (nf, nf) or values.shape != (pattern.nnz,) or out.shape != values.shape:
        raise ValueError(f"masked_product: A {A.shape}, {len(values)} values and "
                         f"{len(out)} outputs do not fit a {nf} x {nc} pattern "
                         f"of {pattern.nnz} slots")
    lib.masked_product(nf, A.indptr, A.indices, A.data, pattern.indptr, pattern.cols,
                       np.ascontiguousarray(values, dtype=np.float64),
                       np.full(nc, -1, dtype=np.int32), out)
    return out
