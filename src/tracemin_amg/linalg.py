"""Small linear-algebra kernels shared across the package.

Matrix Market input and output for the CLI, the perfect-shuffle
permutation that exchanges row-major and column-major vectorizations,
a dense symmetric (generalized) eigensolver for the diagnostics, and
the power-iteration spectral norm behind the Jacobi damping weight.
"""

import numpy as np
from dataclasses import dataclass
from scipy import sparse
from scipy.io import mmread, mmwrite
from scipy.linalg import eigh

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


def read_matrix_market(path):
    """Read a Matrix Market coordinate file into canonical CSR."""
    A = mmread(path)
    if sparse.issparse(A):
        A = A.tocsr()
        A.sum_duplicates()
        A.sort_indices()
        return A
    return np.asarray(A, dtype=np.float64)


def write_matrix_market(path, A, symmetry=None):
    """Write a matrix in Matrix Market format (1-based coordinate file).

    `symmetry` may be 'general' or 'symmetric'; by default it is
    detected from the matrix itself.
    """
    if sparse.issparse(A):
        A = A.tocoo()
    kwargs = {}
    if symmetry is not None:
        kwargs["symmetry"] = symmetry
    mmwrite(str(path), A, **kwargs)


def check_symmetric(A):
    """Raise ValueError if dense A is not symmetric to SYMMETRY_RTOL
    relative to its largest entry."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    scale = np.abs(A).max()
    if scale == 0.0:
        return A
    skew = np.abs(A - A.T).max()
    if skew > SYMMETRY_RTOL * scale:
        raise ValueError(f"matrix is not symmetric: max skew {skew:.3e} "
                         f"exceeds {SYMMETRY_RTOL:.1e} * max entry {scale:.3e}")
    return A


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
    if nf < 1 or nc < 1:
        raise ValueError("factor dimensions must be at least 1")
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
    """Spectral norm of a symmetric operator by power iteration.

    `matvec` maps a length-n vector to a length-n vector.  Runs at most
    50 iterations, stopping early once consecutive estimates agree to
    relative tolerance 1e-6.  Deterministic start vector.
    """
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(50):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam_new = float(np.dot(v, w))
        v = w / nw
        if lam != 0.0 and abs(lam_new - lam) <= 1e-6 * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    return abs(lam)
