"""Relaxation sweeps and the dense symmetrized relaxation.

Damped Jacobi sweeps operate on sparse matrices; the symmetrized
operator M^T (M + M^T - A)^{-1} M is a dense, desk-scale tool of the
diagnostics module.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import solve

from .linalg import check_positive_diagonal, estimate_spectral_norm
from .problems import check_count, check_real

# auto_jacobi_omega's numerator: omega times the estimated rho
OMEGA_COEFFICIENT = 1.5

__all__ = [
    "Relaxation",
    "SpectralEquivalence",
    "relax_sweep",
    "symmetrized_mtilde",
    "auto_jacobi_omega",
]


@dataclass(frozen=True)
class Relaxation:
    """Damped Jacobi relaxation: damping weight, a finite real number
    > 0, and sweep count, an integer >= 1."""

    omega: float = 1.0
    sweeps: int = 1

    def __post_init__(self):
        check_real("omega", self.omega)
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0; got {self.omega!r}")
        check_count("sweeps", self.sweeps, minimum=1)


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
        check_real("c2", self.c2)
        if self.c2 <= 0.0:
            raise ValueError(f"c2 must be > 0; got {self.c2!r}")

    def diagonal(self, A):
        """Diagonal of X for a sparse or dense A (X is diagonal here)."""
        if self.x_kind == "diag":
            d = A.diagonal() if sparse.issparse(A) else np.diag(np.asarray(A))
            return np.asarray(d, dtype=np.float64).copy()
        n = A.shape[0]
        return np.ones(n)


def relax_sweep(rel, A, x, b, diagonal=None):
    """Apply `rel.sweeps` damped Jacobi passes to A x = b, returning new x.

    Each pass uses M = (1/omega) diag(A); b and x are vectors of length
    A.shape[0].  x None starts from zero: the first pass's residual is
    then b itself and costs no matvec.  `diagonal` is diag(A) already
    computed and checked positive by the caller (a hierarchy level
    caches it); when omitted it is read from A and checked here.
    """
    b = np.asarray(b, dtype=np.float64)
    n = A.shape[0]
    for name, v in (("b", b), ("x", x)):
        if v is not None and np.shape(v) != (n,):
            raise ValueError(f"{name} has shape {np.shape(v)}; expected a vector of "
                             f"length {n}, the dimension of A")
    if diagonal is None:
        diagonal = A.diagonal()
        check_positive_diagonal(diagonal)
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
    """Damping weight OMEGA_COEFFICIENT / rho_k for smoothing.

    rho_k is linalg.estimate_spectral_norm of the symmetrically scaled
    operator D^{-1/2} A D^{-1/2}, the Rayleigh quotient after
    linalg.POWER_STEPS (10) power steps: a lower bound on
    rho(diag(A)^{-1} A), a few percent below it, so the weight sits a
    little above 1.5 / rho.  That larger omega is what the cycle gains
    from; a converged rho lowers omega and costs more work per digit.
    The coefficient OMEGA_COEFFICIENT (1.5) balances damping of the
    highest modes against sweep strength across the densifying
    coarse-level operators.  `diagonal` is diag(A) when the caller
    already holds it.
    """
    d = np.asarray(A.diagonal() if diagonal is None else diagonal, dtype=np.float64)
    check_positive_diagonal(d)
    dinv_sqrt = 1.0 / np.sqrt(d)
    scaled = np.empty_like(dinv_sqrt)

    def matvec(v):
        w = A @ np.multiply(dinv_sqrt, v, out=scaled)
        w *= dinv_sqrt
        return w

    rho = estimate_spectral_norm(matvec, A.shape[0])
    if rho == 0.0:
        return 1.0
    return OMEGA_COEFFICIENT / rho
