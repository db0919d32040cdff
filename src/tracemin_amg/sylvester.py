"""Diagonally preconditioned CG for matrix equations A W B + C W D = F.

The preconditioner inverts the entry-wise "diagonal" of the equation
operator, seen through the column-stacked vectorization: entry (i, j)
of the residual is scaled by 1 / (B_jj A_ii + D_jj C_ii) via a Hadamard
product.  Sylvester (B = C = I) and Lyapunov forms are special cases.
The CG driver requires the induced operator to be self-adjoint positive
definite in the Frobenius inner product (e.g. A, B, C, D SPD); only the
preconditioner itself is meaningful for general data.
"""

from dataclasses import dataclass

import numpy as np

from .problems import check_count, check_real

__all__ = [
    "MatrixEquation",
    "hadamard_diag_preconditioner",
    "sylvester_cg",
]


@dataclass(frozen=True)
class MatrixEquation:
    """Data of A W B + C W D = F with A, C n x n and B, D m x m."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "F"):
            M = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
            object.__setattr__(self, name, M)
        if self.F.ndim != 2:
            raise ValueError(f"F must be a 2-D array; got shape {self.F.shape}")
        n, m = self.F.shape
        if self.A.shape != (n, n) or self.C.shape != (n, n):
            raise ValueError("A and C must be square and match F's row count")
        if self.B.shape != (m, m) or self.D.shape != (m, m):
            raise ValueError("B and D must be square and match F's column count")

    @classmethod
    def sylvester(cls, A, D, F):
        """A W + W D = F."""
        return cls(A, np.eye(len(D)), np.eye(len(A)), D, F)

    @property
    def shape(self):
        return self.F.shape

    def apply(self, W):
        return self.A @ W @ self.B + self.C @ W @ self.D


def hadamard_diag_preconditioner(eq):
    """Entry-wise diagonal preconditioner 1 / (B_jj A_ii + D_jj C_ii).

    Returned as an n x m array; applying the preconditioner is a
    Hadamard product with the residual.
    """
    a, c = np.diag(eq.A), np.diag(eq.C)
    b, d = np.diag(eq.B), np.diag(eq.D)
    denom = np.outer(a, b) + np.outer(c, d)
    bad = ~np.isfinite(denom) | (denom == 0.0)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"singular preconditioner: zero denominator at "
                         f"entry ({int(i)}, {int(j)})")
    return 1.0 / denom


def sylvester_cg(eq, max_iters=500, tol=1e-10):
    """CG in the Frobenius inner product for A W B + C W D = F.

    Preconditioned by the Hadamard product with the diagonal of the
    equation operator.  Residual history records the true relative
    Frobenius residual ||A W B + C W D - F||_F / ||F||_F.  Aborts with
    a diagnostic when nonpositive curvature reveals an indefinite
    operator.  max_iters is an integer >= 0 and tol a finite real
    number >= 0.
    """
    check_count("max_iters", max_iters)
    check_real("tol", tol, low=0.0)
    D = hadamard_diag_preconditioner(eq)
    norm_f = np.linalg.norm(eq.F)
    W = np.zeros(eq.shape)
    if norm_f == 0.0:
        return W, [0.0]
    r = eq.F.copy()
    z = D * r
    rz = float(np.sum(r * z))
    history = [1.0]
    p = z.copy()
    for k in range(max_iters):
        Lp = eq.apply(p)
        pLp = float(np.sum(p * Lp))
        if not np.isfinite(pLp) or pLp <= 0.0:
            raise RuntimeError(
                f"matrix-equation CG aborted at iteration {k}: nonpositive "
                f"curvature {pLp:.3e}; the operator is not positive definite")
        alpha = rz / pLp
        W += alpha * p
        r -= alpha * Lp
        history.append(float(np.linalg.norm(r) / norm_f))
        if history[-1] <= tol:
            break
        z = D * r
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return W, history
