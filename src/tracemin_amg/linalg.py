"""Small linear-algebra kernels shared across the package.

Matrix Market input and output for the CLI, the perfect-shuffle
permutation that exchanges row-major and column-major vectorizations,
a dense symmetric (generalized) eigensolver, the power-iteration
spectral norm behind the Jacobi damping weight, the operator checks, and
the row blocks (row_blocks, block_entries) that every NumPy pass of
energymin and the Galerkin product walks to bound its temporaries; each
pass decides a row from that row alone, so any blocking gives the same bits.
"""

import numpy as np
from dataclasses import dataclass
from scipy import sparse
from scipy.io import mmread, mmwrite
from scipy.linalg import eigh

from .problems import check_count

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "Permutation",
    "perfect_shuffle",
    "dense_sym_eig",
    "estimate_spectral_norm",
    "check_symmetric",
]

# relative skew above which a matrix is rejected as non-symmetric
SYMMETRY_RTOL = 1e-12
# power steps of estimate_spectral_norm: the smoother weight's rho (see
# relaxation.auto_jacobi_omega) is the Rayleigh quotient after this many
POWER_STEPS = 10
# estimate_spectral_norm's Ritz value drops the Krylov directions whose
# Gram eigenvalue is below this fraction of the largest: the moments hold
# about 20 eps of round-off, which such a direction would amplify
RITZ_RTOL = 1e-12
# stored entries a row block of row_blocks owns at most; a row with more is
# a block alone
ROW_BLOCK_ENTRIES = 2**13


def read_matrix_market(path):
    """Read a real Matrix Market file as float64, coordinate as canonical CSR."""
    A = mmread(path)
    if np.iscomplexobj(A):
        raise ValueError(f"{path} is a complex-field Matrix Market file; expected a real one")
    if sparse.issparse(A):
        A = real_csr(A)
        A.sum_duplicates()
        A.sort_indices()
        return A
    return np.asarray(A, dtype=np.float64)


def check_compressed(M, name):
    """Raise a ValueError naming `name` unless a CSR or CSC M keeps to its
    own arrays: index pointers that never fall and indices in [0, the
    minor dimension).  SciPy builds such a matrix without a full format
    check, and its conversions and the compiled kernels would then read
    and write out of bounds; any other format passes."""
    if M.format in ("csr", "csc"):
        check_index_arrays(M.indptr, M.indices, M.shape[0 if M.format == "csc" else 1], name)


def check_index_arrays(indptr, indices, minor, name):
    """Raise a ValueError naming `name` unless the compressed arrays
    (indptr, indices) have index pointers that never fall and indices in
    [0, minor)."""
    if np.any(np.diff(indptr) < 0):
        raise ValueError(f"{name}'s index pointers fall: indptr is not non-decreasing")
    if indices.size and (indices.min() < 0 or indices.max() >= minor):
        bad = indices[(indices < 0) | (indices >= minor)][0]
        raise ValueError(f"{name} stores index {bad} outside [0, {minor})")


def real_csr(A):
    """Sparse A, or a dense 2-D array, as float64 CSR (A itself if it is
    one); refuses complex A and a CSR or CSC A that fails
    check_compressed."""
    if sparse.issparse(A):
        check_compressed(A, "A")
        A = A.tocsr()
    else:
        A = np.asarray(A)
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix; got an array of shape {A.shape}")
        A = sparse.csr_matrix(A)
    if np.iscomplexobj(A):
        raise ValueError(f"A is complex ({A.dtype}); expected a real matrix")
    return A.astype(np.float64, copy=False)


def write_matrix_market(path, A, symmetry=None):
    """Write a matrix in Matrix Market format (1-based coordinate file).

    `symmetry` may be 'general' or 'symmetric'; by default it is
    detected from the matrix itself.  The file is opened here, so a path
    that cannot be written raises OSError (mmwrite given a path in a
    missing directory writes nothing and raises nothing).
    """
    if sparse.issparse(A):
        A = A.tocoo()
    kwargs = {}
    if symmetry is not None:
        kwargs["symmetry"] = symmetry
    with open(path, "wb") as target:
        mmwrite(target, A, **kwargs)


def check_symmetric(A):
    """Raise ValueError unless A, dense or sparse, is square, finite and
    symmetric to SYMMETRY_RTOL of its largest entry; a non-finite entry is
    named with its position.  Returns A (dense A as a float64 array)."""
    if not sparse.issparse(A):
        A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square; got shape {A.shape}")
    # a sparse A's stored values, read without touching A: abs(A) would
    # sum duplicates, and so sort indices, in the caller's own arrays
    stored = A.tocsr().data if sparse.issparse(A) else A
    if not np.all(np.isfinite(stored)):
        rows, cols, values = sparse.find(A)
        k = np.flatnonzero(~np.isfinite(values))[0]
        raise ValueError(f"matrix has a non-finite entry {values[k]} "
                         f"at ({rows[k]}, {cols[k]})")
    skew = abs(A - A.T).max() if A.shape[0] else 0.0
    if skew > 0.0:
        scale = np.abs(stored).max()
        if skew > SYMMETRY_RTOL * scale:
            raise ValueError(f"matrix is not symmetric: max skew {skew:.3e} "
                             f"exceeds {SYMMETRY_RTOL:.1e} * max entry {scale:.3e}")
    return A


def row_blocks(indptr):
    """The bounds (lo, hi) of consecutive blocks of rows of a CSR-like
    indptr, each owning at most ROW_BLOCK_ENTRIES entries, a row with
    more entries being a block alone."""
    blocks, lo = [], 0
    while lo < len(indptr) - 1:
        hi = int(np.searchsorted(indptr, int(indptr[lo]) + ROW_BLOCK_ENTRIES, side="right"))
        blocks.append((lo, max(hi - 1, lo + 1)))
        lo = blocks[-1][1]
    return blocks


def block_entries(indptr, lo, hi):
    """(entries, local): the slice of the entries of rows lo to hi - 1 of a
    CSR-like indptr, and the row of each, counted from lo."""
    entries = slice(int(indptr[lo]), int(indptr[hi]))
    return entries, np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))


def check_positive_diagonal(d):
    """Raise a ValueError naming the first non-positive entry of diag(A) = d."""
    if np.any(d <= 0.0):
        i = int(np.flatnonzero(d <= 0.0)[0])
        raise ValueError(f"non-positive diagonal entry: a_ii = {d[i]:g} at row {i}")


@dataclass(frozen=True)
class Permutation:
    """A permutation of 0..size-1.

    `forward` gives source indices: applying the permutation to a
    vector x yields x[forward].  As a matrix, row k of the permutation
    is the `forward[k]`-th unit vector.
    """

    size: int
    forward: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.forward, dtype=np.int64)
        if f.shape != (self.size,) or not np.array_equal(np.sort(f), np.arange(self.size)):
            raise ValueError("forward must be a bijection on 0..size-1")
        object.__setattr__(self, "forward", f)

    def matrix(self):
        return np.eye(self.size)[self.forward]


def perfect_shuffle(nf, nc):
    """Permutation mapping row-major to column-major vectorization.

    For W of shape (nf, nc), let r = W.reshape(-1) (row-major) and
    c = W.reshape(-1, order='F') (column-major).  The returned Y
    satisfies r[Y.forward] = c, and conjugation by Y swaps Kronecker
    factors: Y (P kron Q) Y^T = Q kron P for P (nf x nf), Q (nc x nc).
    No solver calls it: it is kept as the subject of acceptance
    criterion 1, the identity the Kronecker form of the weighted
    operator rests on.
    """
    check_count("nf", nf, minimum=1)
    check_count("nc", nc, minimum=1)
    i = np.arange(nf)[None, :]            # fine index
    j = np.arange(nc)[:, None]            # coarse index
    # slot i + j*nf of the column-major vector holds entry (i, j),
    # found at slot j + i*nc of the row-major vector
    forward = (j + i * nc).reshape(-1)
    return Permutation(nf * nc, forward)


def dense_sym_eig(A, B=None):
    """Eigendecomposition of a dense symmetric (generalized) problem.

    Solves A v = lambda v, or A v = lambda B v when B is given, with A
    symmetric and B symmetric positive definite.  Eigenvalues come out
    ascending; eigenvectors are B-orthonormal (B defaults to identity).

    Returns
    -------
    (w, V) : eigenvalues (ascending) and eigenvectors as columns of V.
    """
    A = check_symmetric(A)
    if B is not None:
        B = check_symmetric(B)
        if B.shape != A.shape:
            raise ValueError("A and B must have the same shape")
        try:
            w, V = eigh(A, B)
        except np.linalg.LinAlgError as err:
            raise ValueError(f"B is not positive definite: {err}") from err
    else:
        w, V = eigh(A)
    return w, V


def estimate_spectral_norm(matvec, n):
    """Spectral norm of a symmetric operator, estimated from below by
    POWER_STEPS = k steps of power iteration; returns (rho_k, theta_k).

    `matvec` maps a length-n vector to a length-n vector.  rho_k is
    |v^T A v| for the unit vector v of the last step, a Rayleigh
    quotient, so it never exceeds the norm.  theta_k, from the same
    matvecs, is the largest |Ritz value| of A on the Krylov space
    span{v0, A v0, ..., A^(k-1) v0} the steps pass through, which
    Lanczos would reach in k steps: also a lower bound, and much closer
    to the norm when the power steps converge slowly.  Both are 0 for
    an operator that maps a step's vector to zero.  Deterministic start
    vector.
    """
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    quotients, growths = [], []
    for _ in range(POWER_STEPS):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, 0.0
        lam = float(np.dot(v, w))
        quotients.append(lam)
        growths.append(float(nw))
        v = w / nw
    return abs(lam), _krylov_ritz(quotients, growths)


def _krylov_ritz(quotients, growths):
    """The largest |Ritz value| of A on span{x_0, ..., x_(k-1)}, x_j =
    A^j v0, from the Rayleigh quotients q_j and growths g_j = |A v_j| of
    k power steps (v_j = x_j / |x_j|).  The moments mu_i = v0^T A^i v0
    are mu_(2j+1) = mu_(2j) q_j and mu_(2j+2) = mu_(2j) g_j^2, so the
    space's Gram matrix is the Hankel matrix [mu_(i+j)] and A's
    projection [mu_(i+j+1)]; mu_i is scaled by s^-i, s = g_(k-1), which
    scales the basis alone.  Gram eigen-directions below RITZ_RTOL of
    the largest are dropped."""
    k, s = len(quotients), growths[-1]
    mu = np.empty(2 * k + 1)
    mu[0] = 1.0
    for j, (q, g) in enumerate(zip(quotients, growths)):
        mu[2 * j + 1] = mu[2 * j] * (q / s)
        mu[2 * j + 2] = mu[2 * j] * (g / s) ** 2
    hankel = np.add.outer(np.arange(k), np.arange(k))
    lam, E = np.linalg.eigh(mu[hankel])
    kept = lam > RITZ_RTOL * lam[-1]
    E = E[:, kept] / np.sqrt(lam[kept])  # an orthonormal basis of the kept space
    T = E.T @ mu[hankel + 1] @ E
    return s * float(np.abs(np.linalg.eigvalsh((T + T.T) / 2.0)).max())
