"""The compiled passes of the setup, built on first use.

The kernels stand in for NumPy/Python passes, in the order setup runs
them: the one-sided strength graph (coarsening._strong_couplings), the
greedy CF split (cf_split), the distance-k pattern (pattern_distance_k),
the weighted operator at the pattern slots with its one-candidate term
(energymin.apply_weighted_operator), the one-candidate row constraints'
Gram inverse, minimum-norm start and projection (energymin._RowConstraints)
and the CG step's fused update (energymin._cg_update), and the Galerkin
product's upper triangle of R (A P), its mirror and the drop-and-lump
pass (hierarchy.galerkin_product).

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
run (no library, or an index array that is not int32, say); the caller
then takes its own path, and the wrapper leaves its outputs untouched.
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
from scipy import sparse

__all__ = ["library", "backend", "strong_couplings", "greedy_split", "distance_k_pattern",
           "masked_product", "row_gram_inverse", "row_project", "row_min_norm", "cg_update",
           "upper_product", "mirror_upper", "drop_and_lump"]

SOURCE = Path(__file__).with_name("kernels.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_INDEX = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_INDEX_OUT = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS,WRITEABLE")
_VALUES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_VALUES_OUT = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_OPTIONAL = ctypes.c_void_p  # an array's address, or None for NULL
_SIGNATURES = {  # name: (restype, argtypes)
    "strong_couplings": (None, [ctypes.c_int64, _INDEX, _INDEX, _VALUES, _VALUES,
                                ctypes.c_double, _INDEX_OUT, _INDEX_OUT]),
    "greedy_split": (None, [ctypes.c_int64, _INDEX, _INDEX,
                            np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS,WRITEABLE"),
                            _INDEX_OUT,
                            np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")]),
    "distance_k_rows": (ctypes.c_int64, [
        ctypes.c_int64, _INDEX, _INDEX, _INDEX, ctypes.c_int64,
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"), ctypes.c_int64,
        _INDEX_OUT, _INDEX_OUT, _INDEX_OUT, _INDEX_OUT, ctypes.c_int64]),
    "masked_product": (None, [ctypes.c_int64, _INDEX, _INDEX, _VALUES,
                              _INDEX, _INDEX, _VALUES, _INDEX_OUT, ctypes.c_double,
                              _OPTIONAL, _OPTIONAL, _OPTIONAL, _VALUES_OUT]),
    "row_gram_inverse": (ctypes.c_int, [ctypes.c_int64, _INDEX, _INDEX, _VALUES, _VALUES_OUT]),
    "row_project": (ctypes.c_int, [ctypes.c_int64, _INDEX, _INDEX, _VALUES, _VALUES,
                                   _VALUES_OUT]),
    "row_min_norm": (None, [ctypes.c_int64, _INDEX, _INDEX, _VALUES, _VALUES, _VALUES,
                            _VALUES_OUT]),
    "cg_update": (ctypes.c_int, [ctypes.c_int64, _OPTIONAL, _OPTIONAL, _OPTIONAL, _OPTIONAL,
                                 ctypes.c_double, _VALUES, _VALUES_OUT, _VALUES_OUT,
                                 _VALUES_OUT, _VALUES]),
    "upper_product_rows": (ctypes.c_int64, [
        ctypes.c_int64, _INDEX, _INDEX, _VALUES, _INDEX, _INDEX, _VALUES, ctypes.c_int64,
        _VALUES_OUT, _INDEX_OUT, _INDEX_OUT, _INDEX_OUT, _INDEX_OUT, _VALUES_OUT,
        ctypes.c_int64]),
    "mirror_upper": (None, [ctypes.c_int64, _INDEX, _INDEX, _VALUES, _INDEX_OUT,
                            _OPTIONAL, _OPTIONAL, _OPTIONAL]),
    "drop_and_lump": (ctypes.c_int64, [ctypes.c_int64, _INDEX, _INDEX, _VALUES_OUT,
                                       _VALUES, _VALUES, _OPTIONAL, _OPTIONAL, _OPTIONAL]),
}
# the kernels number entries in int32, as SciPy's int32 index arrays do
_MAX_ENTRIES = np.iinfo(np.int32).max


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
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


def backend():
    """"compiled" when library() loads the kernels, else "python": the
    path setup's compiled passes take in this process."""
    return "python" if library() is None else "compiled"


def _int32(*arrays):
    return all(a.dtype == np.int32 for a in arrays)


def _address(*arrays):
    """Each float64 array as its contiguous copy's address, None as NULL;
    returns (addresses, arrays): the caller holds the arrays through the
    call, since an address keeps nothing alive."""
    arrays = [None if a is None else np.ascontiguousarray(a, dtype=np.float64)
              for a in arrays]
    return [None if a is None else a.ctypes.data for a in arrays], arrays


def _float_csr(M):
    """Whether the CSR M has int32 indices and float64 data."""
    return _int32(M.indptr, M.indices) and M.data.dtype == np.float64


def _square_float_csr(M):
    """Whether the CSR M is square with int32 indices and float64 data."""
    return M.shape[0] == M.shape[1] and _float_csr(M)


def strong_couplings(A, d, theta):
    """The one-sided strength graph of coarsening._strong_couplings of the
    square CSR A with diagonal d at threshold theta, as its int32 (indptr,
    indices); None where the kernel cannot run."""
    lib = library()
    if lib is None or not _square_float_csr(A):
        return None
    n = A.shape[0]
    if d.shape != (n,):
        raise ValueError(f"strong_couplings: a diagonal of shape {d.shape} for a "
                         f"{n} x {n} matrix")
    indptr, indices = np.empty(n + 1, dtype=np.int32), np.empty(A.nnz, dtype=np.int32)
    lib.strong_couplings(n, A.indptr, A.indices, A.data,
                         np.ascontiguousarray(d, dtype=np.float64), theta, indptr, indices)
    return indptr, indices[:indptr[-1]]


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


def distance_k_pattern(adj, split, k):
    """The rows of coarsening.pattern_distance_k over the canonical
    adjacency adj, as int32 (indptr, cols), each row's C-local columns
    sorted; None where the kernel cannot run, or where a split index lies
    outside the graph (the SciPy path then raises)."""
    lib = library()
    n = adj.shape[0]
    f, c = split.f_points, split.c_points
    if (lib is None or not _int32(adj.indptr, adj.indices)
            or any(len(p) and (p.min() < 0 or p.max() >= n) for p in (f, c))):
        return None
    c_index = np.full(n, -1, dtype=np.int32)
    c_index[c] = np.arange(len(c), dtype=np.int32)
    f = np.ascontiguousarray(f, dtype=np.int64)
    indptr = np.zeros(len(f) + 1, dtype=np.int32)
    cols = np.empty(min(max(adj.nnz, 1), _MAX_ENTRIES), dtype=np.int32)
    mark, queue = np.full(n, -1, dtype=np.int32), np.empty(n, dtype=np.int32)
    row = 0
    # a row that does not fit is left unwritten: grow cols and go on from it
    while (row := lib.distance_k_rows(k, adj.indptr, adj.indices, c_index, len(f), f, row,
                                      mark, queue, indptr, cols, len(cols))) < len(f):
        if len(cols) == _MAX_ENTRIES:
            return None
        grown = np.empty(min(2 * len(cols), _MAX_ENTRIES), dtype=np.int32)
        grown[:indptr[row]] = cols[:indptr[row]]
        cols = grown
    return indptr, cols[:indptr[-1]].copy()


def masked_product(A, pattern, values, out, tau=1.0, cand_scale=None, b_c=None):
    """The weighted operator of energymin.apply_weighted_operator at W's
    own slots, W the pattern with `values`, written to the slot vector out
    and returned: tau (A W), bit for bit what sampling the SpGEMM product
    A @ W at the slots reads times tau (formed only for tau > 0, and
    multiplied only for tau < 1), plus, given the one-candidate term's
    cand_scale (a slot vector) and b_c (the candidate at the pattern's
    columns), cand_scale V_i b_c[k] at each slot (i, k), V = W b_c.
    None with out untouched where the kernel cannot run.  A is square CSR
    over the pattern's rows."""
    lib = library()
    if (lib is None or not _square_float_csr(A)
            or not _int32(pattern.indptr, pattern.cols)):
        return None
    nf, nc = pattern.shape
    if A.shape != (nf, nf) or values.shape != (pattern.nnz,) or out.shape != values.shape:
        raise ValueError(f"masked_product: A {A.shape}, {len(values)} values and "
                         f"{len(out)} outputs do not fit a {nf} x {nc} pattern "
                         f"of {pattern.nnz} slots")
    if (cand_scale is None) != (b_c is None) or (
            b_c is not None and (cand_scale.shape != out.shape or b_c.shape != (nc,))):
        raise ValueError("masked_product: the candidate term needs cand_scale, one value "
                         "per slot, and b_c, one value per pattern column")
    addresses, held = _address(cand_scale, b_c, None if b_c is None else np.empty(nf))
    lib.masked_product(nf, A.indptr, A.indices, A.data, pattern.indptr, pattern.cols,
                       np.ascontiguousarray(values, dtype=np.float64),
                       np.full(nc, -1, dtype=np.int32), tau, *addresses, out)
    return out


def _float_vectors(*arrays):
    """Whether every array is a C-contiguous float64 vector."""
    return all(a.dtype == np.float64 and a.ndim == 1 and a.flags.c_contiguous
               for a in arrays)


def _constraint_operands(pattern, b_c, ginv):
    """The one-candidate row constraints' (indptr, cols, b_c, ginv) as the
    kernels read them, or None where they cannot: int64 indices, or
    arrays of another type or layout.  A b_c or ginv of the wrong length
    raises."""
    if not (_int32(pattern.indptr, pattern.cols) and _float_vectors(b_c, ginv)):
        return None
    nonempty = int(np.count_nonzero(np.diff(pattern.indptr)))
    if b_c.shape != (pattern.nc,) or ginv.shape != (nonempty,):
        raise ValueError(f"row constraints: b_c of shape {b_c.shape} and ginv of shape "
                         f"{ginv.shape} for a pattern of {pattern.nc} columns and "
                         f"{nonempty} nonempty rows")
    return pattern.indptr, pattern.cols, b_c, ginv


def row_gram_inverse(pattern, b_c, ginv):
    """Write 1/g_i, or 0 where g_i = 0, of each nonempty pattern row i to
    ginv, g_i the sum of b_c[col]^2 over the row's slots, bit for bit
    energymin._RowConstraints' Gram pseudo-inverse of one candidate;
    returns ginv, or None with ginv untouched where the kernel cannot
    run."""
    lib, operands = library(), _constraint_operands(pattern, b_c, ginv)
    if lib is None or operands is None:
        return None
    indptr, cols, b_c, ginv = operands
    return ginv if lib.row_gram_inverse(pattern.nf, indptr, cols, b_c, ginv) == 0 else None


def row_project(pattern, b_c, ginv, values):
    """The slot values projected onto {Z : Z b_c = 0} row by row, in
    place, bit for bit energymin._RowConstraints.project's NumPy pass
    with one candidate; ginv as row_gram_inverse writes it.  Returns
    values, or None with values untouched where the kernel cannot run."""
    lib, operands = library(), _constraint_operands(pattern, b_c, ginv)
    if lib is None or operands is None or not _float_vectors(values):
        return None
    if values.shape != (pattern.nnz,):
        raise ValueError(f"row_project: {len(values)} values for {pattern.nnz} slots")
    return values if lib.row_project(pattern.nf, *operands, values) == 0 else None


def row_min_norm(pattern, b_c, ginv, b_f, out):
    """The minimum-norm slot values with W b_c = b_f written to out, bit
    for bit energymin._RowConstraints.min_norm_solution's NumPy pass
    with one candidate (b_f one value per pattern row; out's slots in
    empty rows are not written).  Returns out, or None with out untouched
    where the kernel cannot run."""
    lib, operands = library(), _constraint_operands(pattern, b_c, ginv)
    if lib is None or operands is None or not _float_vectors(b_f, out):
        return None
    if b_f.shape != (pattern.nf,) or out.shape != (pattern.nnz,):
        raise ValueError(f"row_min_norm: b_f of shape {b_f.shape} and out of shape "
                         f"{out.shape} for {pattern.nf} rows and {pattern.nnz} slots")
    lib.row_min_norm(pattern.nf, *operands, b_f, out)
    return out


def cg_update(alpha, p, Lp, x, r, diag, pattern=None, b_c=None, ginv=None):
    """One step's updates of energymin.pcg_frobenius in one pass: r -=
    alpha Lp, x += alpha p and Lp = diag r, in place, each rounded as
    the NumPy expressions round it; given the one-candidate row
    constraints (pattern, b_c, ginv), each row of Lp is then projected as
    row_project projects it.  Returns Lp, now z, or None with every array
    untouched where the kernel cannot run."""
    lib = library()
    if lib is None or not _float_vectors(p, Lp, x, r, diag):
        return None
    if not p.shape == Lp.shape == x.shape == r.shape == diag.shape:
        raise ValueError("cg_update: the slot vectors differ in length")
    if pattern is None:
        return Lp if lib.cg_update(len(p), None, None, None, None, alpha, p, Lp, x, r,
                                   diag) == 0 else None
    operands = _constraint_operands(pattern, b_c, ginv)
    if operands is None:
        return None
    if p.shape != (pattern.nnz,):
        raise ValueError(f"cg_update: {len(p)} slot values for {pattern.nnz} slots")
    addresses = [a.ctypes.data for a in operands]
    return Lp if lib.cg_update(pattern.nf, *addresses, alpha, p, Lp, x, r, diag) == 0 \
        else None


def upper_product(R, AP):
    """U = triu(R @ AP) of the CSR R (n x m) and the CSR AP (m x n), as a
    canonical CSR: each entry summed from 0.0 in R's stored order, bit
    for bit the entry SciPy's product stores, exact-zero sums not stored,
    and the entries below the diagonal not formed.  None where the kernel
    cannot run."""
    lib = library()
    if lib is None or not (_float_csr(R) and _float_csr(AP)):
        return None
    n = R.shape[0]
    if R.shape[1] != AP.shape[0] or AP.shape[1] != n:
        raise ValueError(f"upper_product: shapes {R.shape} and {AP.shape} do not give "
                         f"a square product")
    # about half of A P's entries, plus the diagonal; a row that does not
    # fit is left unwritten: grow the arrays and go on from it
    capacity = min(max(AP.nnz // 2 + n, 1), _MAX_ENTRIES)
    indptr = np.zeros(n + 1, dtype=np.int32)
    indices, data = np.empty(capacity, dtype=np.int32), np.empty(capacity)
    sums, mark = np.zeros(n), np.full(n, -1, dtype=np.int32)
    touched = np.empty(n, dtype=np.int32)
    row = 0
    while (row := lib.upper_product_rows(n, R.indptr, R.indices, R.data, AP.indptr,
                                         AP.indices, AP.data, row, sums, mark, touched,
                                         indptr, indices, data, len(indices))) < n:
        if len(indices) == _MAX_ENTRIES:
            return None
        size, end = min(2 * len(indices), _MAX_ENTRIES), indptr[row]
        indices = np.concatenate([indices[:end], np.empty(size - end, dtype=np.int32)])
        data = np.concatenate([data[:end], np.empty(size - end)])
    end = indptr[-1]
    return sparse.csr_matrix((data[:end], indices[:end], indptr), shape=(n, n))


def mirror_upper(U):
    """The symmetric canonical CSR whose upper triangle, diagonal
    included, is the canonical CSR U, which stores nothing below its
    diagonal; None where the kernel cannot run."""
    lib = library()
    if lib is None or not _square_float_csr(U):
        return None
    n = U.shape[0]
    if 2 * U.nnz > _MAX_ENTRIES:
        return None
    indptr = np.zeros(n + 1, dtype=np.int32)
    lib.mirror_upper(n, U.indptr, U.indices, U.data, indptr, None, None, None)
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    fill = np.empty(n, dtype=np.int32)
    lib.mirror_upper(n, U.indptr, U.indices, U.data, indptr, fill.ctypes.data,
                     indices.ctypes.data, data.ctypes.data)
    M = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    M.has_canonical_format = True
    return M


def drop_and_lump(Ac, d, t, b, r, r_neg):
    """hierarchy.galerkin_product's drop-and-lump pass in place on the
    square CSR Ac, a SciPy product, of diagonal d, with round-off bounds
    t and, given the candidate b (else b, r and r_neg are None), its
    lumping factors r, and r_neg for negative couplings, used where the
    kernel's own b-scaled dominance check certifies Ac: bit for bit
    hierarchy._drop_and_lump.  Dropped and lumped entries are set to 0.0
    and stay stored.  Returns whether any was; None with Ac untouched
    where the kernel cannot run."""
    lib = library()
    if lib is None or not _square_float_csr(Ac):
        return None
    n = Ac.shape[0]
    vectors = [v for v in (d, t, b, r, r_neg) if v is not None]
    if any(v.shape != (n,) for v in vectors) or len(vectors) not in (2, 5):
        raise ValueError(f"drop_and_lump: d, t and, given b, r and r_neg must be "
                         f"vectors of length {n}")
    addresses, held = _address(b, r, r_neg)
    return lib.drop_and_lump(n, Ac.indptr, Ac.indices, Ac.data,
                             np.ascontiguousarray(d, dtype=np.float64),
                             np.ascontiguousarray(t, dtype=np.float64), *addresses) > 0
