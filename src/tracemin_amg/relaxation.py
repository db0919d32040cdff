"""Relaxation sweeps and the dense symmetrized-relaxation machinery.

Damped Jacobi sweeps operate on sparse matrices; the symmetrized
operator M^T (M + M^T - A)^{-1} M and the A-convergence test are dense,
desk-scale tools shared with the diagnostics module.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import solve

from .linalg import dense_sym_eig, estimate_spectral_norm

__all__ = [
    "Relaxation",
    "SpectralEquivalence",
    "relax_sweep",
    "symmetrized_mtilde",
    "is_a_convergent",
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
    relaxation, with its equivalence constants c1 <= c2.

    x_kind 'diag' uses diag(A); 'identity' uses the identity.  Any
    scaling of X folds into c2, which is why c2 defaults to 1.
    """

    x_kind: str = "diag"
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if self.x_kind not in ("diag", "identity"):
            raise ValueError(f"unknown X choice: {self.x_kind!r}")
        if not (0.0 < self.c1 <= self.c2):
            raise ValueError("require 0 < c1 <= c2")

    def diagonal(self, A):
        """Diagonal of X for a sparse or dense A (X is diagonal here)."""
        if self.x_kind == "diag":
            d = A.diagonal() if sparse.issparse(A) else np.diag(np.asarray(A))
            return np.asarray(d, dtype=np.float64).copy()
        n = A.shape[0]
        return np.ones(n)

    def matrix(self, A):
        """Dense X for the diagnostics module."""
        return np.diag(self.diagonal(A))


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


def is_a_convergent(A, M):
    """True iff M + M^T - A is SPD, i.e. relaxation with M contracts
    the A-norm of the error."""
    A = np.asarray(A, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    S = M + M.T - A
    S = (S + S.T) / 2.0
    w, _ = dense_sym_eig(S)
    scale = np.linalg.norm(A, 2)
    return bool(w[0] > 1e-12 * scale)


def auto_jacobi_omega(A, coefficient=1.5, diagonal=None):
    """Damping weight `coefficient` / rho(diag(A)^{-1} A) for smoothing.

    rho is estimated by power iteration on the symmetrically scaled
    operator D^{-1/2} A D^{-1/2}.  The default coefficient 1.5 balances
    damping of the highest modes against sweep strength across the
    densifying coarse-level operators.  `diagonal` is diag(A) when the
    caller already holds it.
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
    return coefficient / rho
