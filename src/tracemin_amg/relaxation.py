"""Relaxation sweeps and the dense symmetrized relaxation.

Damped Jacobi sweeps operate on sparse matrices; the symmetrized
operator M^T (M + M^T - A)^{-1} M is a dense, desk-scale tool of the
diagnostics module.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import solve

from .linalg import estimate_spectral_norm

__all__ = [
    "Relaxation",
    "SpectralEquivalence",
    "relax_sweep",
    "symmetrized_mtilde",
    "auto_jacobi_omega",
]


@dataclass(frozen=True)
class Relaxation:
    """Damped Jacobi relaxation: damping weight and sweep count."""

    omega: float = 1.0
    sweeps: int = 1

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.sweeps < 1:
            raise ValueError("need at least one sweep")


@dataclass(frozen=True)
class SpectralEquivalence:
    """Choice of the operator X spectrally equivalent to the symmetrized
    relaxation, with the upper equivalence constant c2 that weighs it.

    x_kind 'diag' uses diag(A); 'identity' uses the identity.  Any
    scaling of X folds into c2, which is why c2 defaults to 1.
    """

    x_kind: str = "diag"
    c2: float = 1.0

    def __post_init__(self):
        if self.x_kind not in ("diag", "identity"):
            raise ValueError(f"unknown X choice: {self.x_kind!r}")
        if not self.c2 > 0.0:
            raise ValueError("require c2 > 0")

    def diagonal(self, A):
        """Diagonal of X for a sparse or dense A (X is diagonal here)."""
        if self.x_kind == "diag":
            d = A.diagonal() if sparse.issparse(A) else np.diag(np.asarray(A))
            return np.asarray(d, dtype=np.float64).copy()
        n = A.shape[0]
        return np.ones(n)


def relax_sweep(rel, A, x, b, diagonal=None):
    """Apply `rel.sweeps` damped Jacobi passes to A x = b, returning new x.

    Each pass uses M = (1/omega) diag(A).  x None starts from zero: the
    first pass's residual is then b itself and costs no matvec.
    `diagonal` is diag(A) already computed and checked nonzero by the
    caller (a hierarchy level caches it); when omitted it is read from
    A and checked here.
    """
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[0]
    if b.shape[0] != n or (x is not None and len(x) != n):
        raise ValueError("vector lengths do not match the matrix dimension")
    if diagonal is None:
        diagonal = A.diagonal()
        if np.any(diagonal == 0.0):
            raise ValueError("matrix has a zero diagonal entry")
    sweeps = rel.sweeps
    if x is None:
        x = np.zeros(n)
        x += rel.omega * b / diagonal
        sweeps -= 1
    else:
        x = np.asarray(x, dtype=np.float64).copy()
    for _ in range(sweeps):
        x += rel.omega * (b - A @ x) / diagonal
    return x


def symmetrized_mtilde(A, M):
    """The symmetrized relaxation operator M^T (M + M^T - A)^{-1} M.

    One application of the result equals a forward sweep with M followed
    by a backward sweep with M^T:  I - Mt^{-1} A = (I - M^{-1}A)(I - M^{-T}A).
    """
    A = np.asarray(A, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    S = M + M.T - A
    try:
        X = solve(S, M)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"M + M^T - A is singular: {err}") from err
    return M.T @ X


def auto_jacobi_omega(A, diagonal=None):
    """Damping weight 1.5 / rho(diag(A)^{-1} A) for smoothing.

    rho is estimated by power iteration on the symmetrically scaled
    operator D^{-1/2} A D^{-1/2}.  The coefficient 1.5 balances damping
    of the highest modes against sweep strength across the densifying
    coarse-level operators.  `diagonal` is diag(A) when the caller
    already holds it.
    """
    d = np.asarray(A.diagonal() if diagonal is None else diagonal, dtype=np.float64)
    if np.any(d <= 0.0):
        raise ValueError("matrix diagonal must be positive")
    dinv_sqrt = 1.0 / np.sqrt(d)
    scaled = np.empty_like(dinv_sqrt)

    def matvec(v):
        w = A @ np.multiply(dinv_sqrt, v, out=scaled)
        w *= dinv_sqrt
        return w

    rho = estimate_spectral_norm(matvec, A.shape[0])
    if rho == 0.0:
        return 1.0
    return 1.5 / rho
