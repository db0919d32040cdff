"""Dense, desk-scale two-grid diagnostics.

These routines build the actual error-propagation and projection
operators for small problems: the two-grid contraction number, its
sharp characterization through the symmetrized relaxation, ideal and
spectrally optimal interpolation, energy-stability measurements, and
the approximation-property constants that separate two-level from
multilevel convergence.  Everything here is O(n^3) and intended for
n up to a few hundred; it doubles as the oracle layer for the sparse
solver's tests and as a diagnostic CLI surface.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve

from .linalg import check_symmetric, dense_sym_eig
from .relaxation import symmetrized_mtilde

__all__ = [
    "TheoryReport",
    "two_grid_error_norm",
    "ktg",
    "ideal_interpolation",
    "optimal_interpolation",
    "stability_bounds",
    "approximation_constants",
    "full_report",
]

DESK_SCALE_LIMIT = 500


@dataclass
class TheoryReport:
    """Measured two-grid quantities; fields are None until computed."""

    etg_norm: float = None
    ktg: float = None
    kappa_s: float = None
    c2_meas: float = None
    pr_energy: float = None
    trace_schur: float = None
    trace_plain: float = None
    beta_wap: float = None
    beta_sap: float = None

    def __str__(self):
        lines = []
        names = [
            ("etg_norm", "||E_TG||_A        "),
            ("ktg", "K_TG              "),
            ("kappa_s", "lambda_min(Xs\\As) "),
            ("c2_meas", "lambda_max(Xs\\As) "),
            ("pr_energy", "||PR||_A^2        "),
            ("trace_schur", "tr(PtAP RAinvRt)  "),
            ("trace_plain", "||Ainv|| tr(PtAP) "),
            ("beta_wap", "beta_wap          "),
            ("beta_sap", "beta_sap          "),
        ]
        for attr, label in names:
            val = getattr(self, attr)
            if val is not None:
                lines.append(f"{label} {val: .12e}")
        return "\n".join(lines)


def _check_desk_scale(A):
    if A.shape[0] > DESK_SCALE_LIMIT:
        raise ValueError(f"dense diagnostics are capped at n = {DESK_SCALE_LIMIT}; "
                         f"got n = {A.shape[0]}")


def _sqrt_and_inv_sqrt(A):
    w, V = dense_sym_eig(A)
    if w[0] <= 0.0:
        raise ValueError("matrix must be positive definite")
    s = np.sqrt(w)
    return (V * s) @ V.T, (V / s) @ V.T


def _check_full_rank(P):
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] > P.shape[0]:
        raise ValueError("P must be a tall matrix")
    if np.linalg.matrix_rank(P) < P.shape[1]:
        raise ValueError("P is rank-deficient")
    return P


def _projection(P, X):
    """The X-orthogonal projection onto range(P)."""
    return P @ solve(P.T @ X @ P, P.T @ X)


def two_grid_error_norm(A, M, P):
    """A-norm of the two-grid error propagator
    E_TG = (I - M^{-T} A)(I - pi_A)(I - M^{-1} A),
    computed as the largest singular value of A^{1/2} E_TG A^{-1/2}."""
    A = check_symmetric(A)
    _check_desk_scale(A)
    P = _check_full_rank(P)
    M = np.asarray(M, dtype=np.float64)
    n = A.shape[0]
    I = np.eye(n)
    E = (I - solve(M.T, A)) @ (I - _projection(P, A)) @ (I - solve(M, A))
    Ah, Ahi = _sqrt_and_inv_sqrt(A)
    return float(np.linalg.norm(Ah @ E @ Ahi, 2))


def ktg(A, M, P):
    """The sharp two-grid constant: the largest generalized eigenvalue of
    Mt (I - pi_Mt) against A, where Mt is the symmetrized relaxation.
    Satisfies ||E_TG||_A = 1 - 1/K_TG."""
    A = check_symmetric(A)
    _check_desk_scale(A)
    P = _check_full_rank(P)
    if P.shape[1] >= A.shape[0]:
        raise ValueError("range(P) is the whole space; K_TG is degenerate")
    Mt = symmetrized_mtilde(A, np.asarray(M, dtype=np.float64))
    G = Mt - Mt @ P @ solve(P.T @ Mt @ P, P.T @ Mt)
    G = (G + G.T) / 2.0
    w, _ = dense_sym_eig(G, A)
    return float(w[-1])


def ideal_interpolation(A, split):
    """P_ideal = [-A_ff^{-1} A_fc; I] in CF ordering (F rows on top)."""
    A = check_symmetric(A)
    f, c = split.f_points, split.c_points
    A_ff = A[np.ix_(f, f)]
    A_fc = A[np.ix_(f, c)]
    try:
        W = -solve(A_ff, A_fc)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"A_ff is singular: {err}") from err
    return np.vstack([W, np.eye(len(c))])


def optimal_interpolation(A, M, n_c):
    """The best rank-n_c interpolation for the given relaxation.

    Columns of P_opt are the n_c smallest generalized eigenvectors of
    A v = lambda Mt v.  The returned bound 1 - lambda_{n_c+1} is the
    attained value of two_grid_error_norm(A, M, P_opt) (equivalently,
    the squared A-norm of the propagator with relaxation on one side
    only).  No solver calls it: it is kept as the subject of acceptance
    criterion 5, the two-grid rate no rank-n_c interpolation beats."""
    A = check_symmetric(A)
    _check_desk_scale(A)
    if not (0 < n_c < A.shape[0]):
        raise ValueError("need 0 < n_c < n")
    Mt = symmetrized_mtilde(A, np.asarray(M, dtype=np.float64))
    Mt = (Mt + Mt.T) / 2.0
    lam, V = dense_sym_eig(A, Mt)
    return V[:, :n_c], float(1.0 - lam[n_c])


def stability_bounds(A, X, split, P):
    """Energy-stability measurements for a CF-ordered interpolation P.

    Computes ||PR||_A^2, the Frobenius bound tr(P^T A P (R A^{-1} R^T))
    (the cc block of A^{-1} is the inverse Schur complement), the
    cruder ||A^{-1}|| tr(P^T A P), and the extreme eigenvalues of
    X_s^{-1} A_s on the fine block.  Verifies the chain
    ||PR||_A^2 <= tr(P^T A P R A^{-1} R^T) <= ||A^{-1}|| tr(P^T A P).
    """
    A = check_symmetric(A)
    _check_desk_scale(A)
    P = _check_full_rank(P)
    perm = split.cf_permutation()
    Ap = A[np.ix_(perm, perm)]
    nf, nc = split.n_f, split.n_c
    if P.shape != (nf + nc, nc):
        raise ValueError("P shape does not match the splitting")

    R = np.hstack([np.zeros((nc, nf)), np.eye(nc)])
    Ah, Ahi = _sqrt_and_inv_sqrt(Ap)
    pr_energy = float(np.linalg.norm(Ah @ (P @ R) @ Ahi, 2) ** 2)

    PtAP = P.T @ Ap @ P
    Ainv = np.linalg.inv(Ap)
    RAinvRt = Ainv[nf:, nf:]
    if np.linalg.matrix_rank(RAinvRt) < nc:
        raise ValueError("Schur complement is singular")
    trace_schur = float(np.trace(PtAP @ RAinvRt))
    w_ainv, _ = dense_sym_eig((Ainv + Ainv.T) / 2.0)
    trace_plain = float(w_ainv[-1] * np.trace(PtAP))

    A_s = Ap[:nf, :nf]
    x_perm = X.diagonal(A)[perm]
    X_s = np.diag(x_perm[:nf])
    w_s, _ = dense_sym_eig(A_s, X_s)
    kappa_s, c2_meas = float(w_s[0]), float(w_s[-1])

    slack = 1e-10 * max(trace_plain, 1.0)
    if not (pr_energy <= trace_schur + slack and trace_schur <= trace_plain + slack):
        raise RuntimeError(
            f"energy bound chain violated: ||PR||_A^2 = {pr_energy}, "
            f"tr(PtAP RAinvRt) = {trace_schur}, ||Ainv|| tr(PtAP) = {trace_plain}")

    return TheoryReport(pr_energy=pr_energy, trace_schur=trace_schur,
                        trace_plain=trace_plain, kappa_s=kappa_s, c2_meas=c2_meas)


def approximation_constants(A, P):
    """Approximation-property constants of an interpolation operator.

    beta_wap is the weak constant ||A|| max_v ||(I-Q_P)v||^2 / ||v||_A^2
    (l2 interpolation error against energy); a uniformly bounded
    beta_wap is enough for two-level but not multilevel convergence.
    beta_sap is the strong constant ||A|| max_v ||(I-pi_A)v||_A^2 / ||A v||^2,
    whose level-independence drives V-cycle optimality.
    """
    A = check_symmetric(A)
    _check_desk_scale(A)
    P = _check_full_rank(P)
    n = A.shape[0]
    I = np.eye(n)
    norm_a = float(np.linalg.norm(A, 2))

    if P.shape[1] == n:
        return 0.0, 0.0

    G_q = I - P @ solve(P.T @ P, P.T)
    G_q = (G_q + G_q.T) / 2.0
    w_q, _ = dense_sym_eig(G_q, A)
    beta_wap = float(norm_a * w_q[-1])

    G_a = A @ (I - _projection(P, A))
    G_a = (G_a + G_a.T) / 2.0
    w_a, _ = dense_sym_eig(G_a, A @ A)
    beta_sap = float(norm_a * w_a[-1])
    return beta_wap, beta_sap


def full_report(A, M, X, split, P):
    """All diagnostics for one (A, M, P) triple with P in CF ordering."""
    report = stability_bounds(A, X, split, P)
    perm = split.cf_permutation()
    Ap = A[np.ix_(perm, perm)]
    Mp = np.asarray(M, dtype=np.float64)[np.ix_(perm, perm)]
    report.etg_norm = two_grid_error_norm(Ap, Mp, P)
    if P.shape[1] < A.shape[0]:
        report.ktg = ktg(Ap, Mp, P)
    report.beta_wap, report.beta_sap = approximation_constants(Ap, P)
    return report
