"""Multilevel setup, V(1,1) cycling and the outer solve driver.

Each level is coarsened by strength-of-connection and the greedy CF
pass, interpolation is built by weighted or constrained energy
minimization over a distance-k pattern, and the Galerkin product
closes the recursion.  Candidates follow the hierarchy down by
C-point injection.  The coarsest level is factorized densely, or, when
it has no nonzero off-diagonal entry, solved by division.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from .coarsening import cf_split, pattern_distance_k, strength_graph
from .energymin import (constrained_energymin, prepare_candidates,
                        weighted_energymin)
from .linalg import SYMMETRY_RTOL
from .relaxation import Relaxation, SpectralEquivalence, auto_jacobi_omega, relax_sweep

__all__ = [
    "Level",
    "Hierarchy",
    "SetupConfig",
    "galerkin_product",
    "setup",
    "vcycle",
    "solve",
    "convergence_factor",
    "measure_convergence_factor",
    "MAX_DENSE_COARSE_BYTES",
    "CF_WINDOW",
]

# largest dense copy of a coupled coarsest operator that setup will
# factorize: 8 n^2 bytes caps such a level at 11585 rows
MAX_DENSE_COARSE_BYTES = 2**30
# iterations a convergence factor averages over, and the run of residual
# growths that stops a solve: a solve stopped on growth leaves exactly
# the CF_WINDOW + 1 residuals a convergence factor needs
CF_WINDOW = 10


@dataclass
class Level:
    """One level: its operator, interpolation to the next level, the CF
    splitting, the relaxation used here and diag(A), cached for the
    relaxation sweeps.  The coarsest level is solved directly and holds
    only A."""

    A: sparse.csr_matrix
    P: sparse.csr_matrix = None
    split: object = None
    relaxation: Relaxation = None
    emin_residuals: list = None
    diagonal: np.ndarray = None


@dataclass
class Hierarchy:
    """The levels, finest first.  coarsest_factorization is cho_factor's
    (c, lower) for a coarsest level with a nonzero off-diagonal entry, or
    the diagonal of one without."""

    levels: list
    coarsest_factorization: object
    fine_candidates: np.ndarray
    config: object

    @property
    def n_levels(self):
        return len(self.levels)

    def level_sizes(self):
        return [lvl.A.shape[0] for lvl in self.levels]

    def operator_complexity(self):
        nnz0 = self.levels[0].A.nnz
        return sum(lvl.A.nnz for lvl in self.levels) / nnz0

    def cycle_complexity(self):
        """Work of one V-cycle in fine-grid matvec units:
        (2 sweeps + 1) * nnz(A_l) / nnz(A_0), summed over levels, with
        the configured sweeps before and after the coarse correction."""
        nnz0 = self.levels[0].A.nnz
        return sum((2 * self.config.sweeps + 1) * lvl.A.nnz
                   for lvl in self.levels) / nnz0


def reject_non_integers(**counts):
    """Raise a ValueError naming the first of the named counts that is
    not an integer; a float or a bool is rejected even when integral."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer; got {value!r}")


@dataclass
class SetupConfig:
    """Knobs of the multilevel setup.

    mode is 'weighted' or 'constrained'; tau only matters for the
    weighted route.  emin_iters defaults to pattern_degree + 3 (enough
    to fill the pattern plus a few improvement steps).  jacobi_omega
    'auto' damps each level by 1.5 over the estimated spectral radius
    of D^{-1} A.  candidates holds raw constraint vectors (default: the
    constant vector).  Construction rejects a field out of range with a
    ValueError that names it: tau and theta_strength are real numbers
    (not bools) in [0, 1], sweeps >= 1, jacobi_omega is 'auto' or
    positive, emin_iters is None or >= 0, and the counts
    pattern_degree, max_coarse, max_levels, sweeps and emin_iters are
    integers.  This is the one place a setup option is validated; a
    sweep checks its grid by building every point's SetupConfig.
    """

    mode: str = "constrained"
    tau: float = 1e-4
    pattern_degree: int = 2
    emin_iters: int = None
    emin_tol: float = 1e-10
    theta_strength: float = 0.4
    max_coarse: int = 100
    max_levels: int = 25
    candidates: np.ndarray = None
    jacobi_omega: object = "auto"
    sweeps: int = 2
    use_preconditioner: bool = True

    def __post_init__(self):
        if self.mode not in ("weighted", "constrained"):
            raise ValueError(f"unknown setup mode: {self.mode!r}")
        reject_non_integers(pattern_degree=self.pattern_degree,
                            max_coarse=self.max_coarse, max_levels=self.max_levels,
                            sweeps=self.sweeps)
        if self.emin_iters is not None:
            reject_non_integers(emin_iters=self.emin_iters)
        if self.max_coarse < 1 or self.pattern_degree < 1 or self.max_levels < 1:
            raise ValueError("max_coarse, pattern_degree and max_levels must be >= 1")
        for name in ("tau", "theta_strength"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number; got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]; got {value!r}")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1; got {self.sweeps!r}")
        omega = self.jacobi_omega
        if not (isinstance(omega, str) and omega == "auto"
                or isinstance(omega, numbers.Real) and omega > 0.0):
            raise ValueError(f"jacobi_omega must be 'auto' or a positive number; "
                             f"got {omega!r}")
        if self.emin_iters is not None and self.emin_iters < 0:
            raise ValueError(f"emin_iters must be None or >= 0; got {self.emin_iters!r}")

    def iteration_budget(self):
        return self.emin_iters if self.emin_iters is not None \
            else self.pattern_degree + 3


def galerkin_product(P, A):
    """The coarse operator P^T A P of a symmetric A.

    A must be symmetric; setup checks this once for the fine level, and
    every coarse level it builds is exactly symmetric.  The product
    (CSR x CSR, no CSC round trip) is averaged with its transpose to
    remove round-off skew, so the result is exactly symmetric and comes
    out in canonical CSR form.  Sorting the product first lets that sum
    merge sorted rows.
    """
    if P.shape[0] != A.shape[0] or A.shape[0] != A.shape[1]:
        raise ValueError("shapes do not conform for P^T A P")
    Ac = P.T.tocsr() @ (A @ P)
    Ac.sort_indices()
    return ((Ac + Ac.T) * 0.5).tocsr()


def _check_operator(A):
    """Reject a fine-level matrix that setup cannot build a hierarchy for,
    naming the cause: not square, a non-finite entry, not symmetric to
    SYMMETRY_RTOL relative to its largest entry, or a diagonal entry
    that is not positive."""
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square; got shape {A.shape}")
    if not np.all(np.isfinite(A.data)):
        raise ValueError("A has a non-finite entry (NaN or inf)")
    if (A != A.T).nnz:
        skew = abs(A - A.T).max()
        scale = abs(A).max()
        if skew > SYMMETRY_RTOL * scale:
            raise ValueError(f"A is not symmetric: max skew {skew:.3e} exceeds "
                             f"{SYMMETRY_RTOL:.1e} * max entry {scale:.3e}")
    d = A.diagonal()
    if np.any(d <= 0.0):
        i = int(np.flatnonzero(d <= 0.0)[0])
        raise ValueError(f"A has a non-positive diagonal entry: a_ii = {d[i]:g} "
                         f"at row {i}")


def setup(A, cfg):
    """Build a multilevel hierarchy for the SPD matrix A.

    Coarsening stops at max_levels, at a level of at most max_coarse
    rows, or at a level with no off-diagonal entry; that level is the
    coarsest.  A is checked once, before any level is built, and each
    failure raises a ValueError that names its cause: A must be square,
    every entry finite, A symmetric (exactly, or to linalg.SYMMETRY_RTOL
    relative to its largest entry) and its diagonal positive.  The
    candidates must be finite.  A singular A (one that annihilates the
    first candidate) is rejected by prepare_candidates.  A coarsest level
    with no nonzero off-diagonal entry is solved by division by its
    diagonal; any other is factorized densely, and rejected before it is
    formed when that would need more than MAX_DENSE_COARSE_BYTES.
    """
    A = A.tocsr()
    _check_operator(A)
    raw = cfg.candidates
    if raw is None:
        raw = np.ones((A.shape[0], 1))
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 1:
        raw = raw[:, None]
    if not np.all(np.isfinite(raw)):
        raise ValueError("candidates have a non-finite entry (NaN or inf)")
    fine_candidates = raw.copy()

    levels = []
    while len(levels) < cfg.max_levels - 1 and A.shape[0] > cfg.max_coarse:
        S = strength_graph(A, cfg.theta_strength)
        split = cf_split(S)
        if split.n_f == 0:
            # any nonzero off-diagonal entry is an edge at every theta <= 1, so
            # this operator is diagonal and division solves it exactly
            break
        pattern = pattern_distance_k(S, split, cfg.pattern_degree)
        B = prepare_candidates(A, raw)
        iters = cfg.iteration_budget()
        if cfg.mode == "constrained":
            interp = constrained_energymin(A, split, B, pattern, iters,
                                           tol=cfg.emin_tol)
        else:
            interp = weighted_energymin(A, split, B, SpectralEquivalence(), cfg.tau,
                                        pattern, iters, tol=cfg.emin_tol,
                                        use_preconditioner=cfg.use_preconditioner)
        diagonal = A.diagonal()
        omega = cfg.jacobi_omega
        if omega == "auto":
            omega = auto_jacobi_omega(A, diagonal=diagonal)
        levels.append(Level(A=A, P=interp.P, split=split,
                            relaxation=Relaxation(omega=float(omega), sweeps=cfg.sweeps),
                            emin_residuals=interp.residuals, diagonal=diagonal))
        A = galerkin_product(interp.P, A)
        raw = raw[split.c_points]  # candidate injection onto the coarse grid
    levels.append(Level(A=A))  # solved directly, never relaxed

    return Hierarchy(levels, _coarsest_factorization(A), fine_candidates, cfg)


def _coarsest_factorization(A):
    """diag(A) when A has no nonzero off-diagonal entry, else the dense
    Cholesky factorization of A, refused over MAX_DENSE_COARSE_BYTES."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    if not np.any((A.indices != rows) & (A.data != 0.0)):
        return A.diagonal()
    n = A.shape[0]
    if 8 * n * n > MAX_DENSE_COARSE_BYTES:
        raise ValueError(
            f"coarsest level has {n} rows: its dense Cholesky factorization "
            f"needs {8 * n * n} bytes, over the {MAX_DENSE_COARSE_BYTES}-byte limit; "
            "raise max_levels or lower max_coarse")
    # cho_factor reads only the upper triangle: one dense copy, factorized in place
    return cho_factor(A.toarray(order="F"), overwrite_a=True)


def vcycle(H, level, b):
    """One V(1,1) cycle on the given level from a zero start; returns
    the iterate, the preconditioner applied to b.

    The first pre-smoothing sweep needs no matvec, since its residual
    is b itself.
    """
    lvl = H.levels[level]
    if level == H.n_levels - 1:
        if isinstance(H.coarsest_factorization, np.ndarray):
            return b / H.coarsest_factorization
        return cho_solve(H.coarsest_factorization, b)
    x = relax_sweep(lvl.relaxation, lvl.A, None, b, diagonal=lvl.diagonal)
    r = b - lvl.A @ x
    r_coarse = lvl.P.T @ r
    e_coarse = vcycle(H, level + 1, r_coarse)
    x = x + lvl.P @ e_coarse
    return relax_sweep(lvl.relaxation, lvl.A, x, b, diagonal=lvl.diagonal)


def solve(H, b, tol=1e-8, max_iters=100, accel="stationary", x0=None):
    """Solve A x = b with the hierarchy, stationary or CG-accelerated.

    Stationary mode iterates x <- x + Vcycle(b - A x); cg mode runs
    preconditioned conjugate gradients with one V-cycle as the
    preconditioner.  Returns (x, residual_history) of two-norm
    residuals, starting with the initial one.  Residual growth over
    CF_WINDOW consecutive iterations is reported as a warning, not
    raised.  b and x0 must be vectors of length A.shape[0].
    """
    if accel not in ("stationary", "cg"):
        raise ValueError(f"unknown acceleration: {accel!r}")
    A = H.levels[0].A
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    for name, v in (("b", b), ("x0", x)):
        if v.shape != (n,):
            raise ValueError(f"{name} has shape {v.shape}; expected a vector of "
                             f"length {n}, the dimension of A")

    r = b - A @ x
    history = [float(np.linalg.norm(r))]
    if max_iters == 0 or history[0] == 0.0:
        return x, history
    target = tol * history[0]
    growth = 0

    if accel == "stationary":
        for _ in range(max_iters):
            x = x + vcycle(H, 0, r)
            r = b - A @ x
            history.append(float(np.linalg.norm(r)))
            if history[-1] <= target:
                break
            growth = growth + 1 if history[-1] > history[-2] else 0
            if growth >= CF_WINDOW:
                warnings.warn(f"V-cycle iteration diverging: residual grew over "
                              f"{CF_WINDOW} consecutive iterations", RuntimeWarning)
                break
        return x, history

    z = vcycle(H, 0, r)
    rz = float(r @ z)
    p = z.copy()
    for _ in range(max_iters):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            warnings.warn("preconditioned CG lost positive definiteness",
                          RuntimeWarning)
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        history.append(float(np.linalg.norm(r)))
        if history[-1] <= target:
            break
        growth = growth + 1 if history[-1] > history[-2] else 0
        if growth >= CF_WINDOW:
            warnings.warn(f"preconditioned CG diverging: residual grew over "
                          f"{CF_WINDOW} consecutive iterations", RuntimeWarning)
            break
        z = vcycle(H, 0, r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, history


def convergence_factor(residuals):
    """Geometric mean of the residual ratios over the last CF_WINDOW
    iterations of a residual history; 0 for a history that ends at an
    exactly zero residual, whatever its length (solve stops there)."""
    r = np.asarray(residuals, dtype=np.float64)
    if r.size and r[-1] == 0.0:
        return 0.0
    if r.size < CF_WINDOW + 1:
        raise ValueError("not enough iterations to measure a convergence factor")
    return float((r[-1] / r[-CF_WINDOW - 1]) ** (1.0 / CF_WINDOW))


def measure_convergence_factor(H, seed=0, iters=30):
    """Asymptotic convergence factor of the stationary V-cycle.

    Runs `iters` stationary iterations on A x = 0 from a seeded random
    start and returns (cf, residual_history), where cf is the geometric
    mean of the residual ratios over the last CF_WINDOW iterations.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(H.levels[0].A.shape[0])
    _, history = solve(H, np.zeros_like(x0), tol=0.0, max_iters=iters,
                       accel="stationary", x0=x0)
    return convergence_factor(history), history
