"""Multilevel setup, V(1,1) cycling and the outer solve driver.

Each level is coarsened by strength-of-connection and the greedy CF
pass, interpolation is built by weighted or constrained energy
minimization over a distance-k pattern, and a sparsified Galerkin
product closes the recursion.  Candidates follow the hierarchy down by
C-point injection.  With one candidate b, the coarse operator is not
the exact P^T A P: an off-diagonal coupling small against both of its
diagonals, |a_ij| b_j/b_i <= theta a_ii and |a_ij| b_i/b_j <= theta
a_jj where b_i b_j > 0, is dropped and lumped onto the two diagonals so
that A_c b is kept (the non-Galerkin coarse grids of Falgout &
Schroder, SISC 2014).  theta is NON_GALERKIN_THETA, or, for a negative
coupling of a product that is weakly diagonally dominant once scaled by
b, the larger NON_GALERKIN_THETA_NEGATIVE: lumping such a coupling keeps
that dominance, so the level stays positive semidefinite
(galerkin_product).  The coarsest level is factorized densely, or, when
it has no nonzero off-diagonal entry, solved by division.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

from . import kernels
from .coarsening import cf_split, pattern_distance_k, strength_graph
from .energymin import (candidate_block, constrained_energymin, prepare_candidates,
                        weighted_energymin)
from .linalg import check_positive_diagonal, check_symmetric, real_csr, row_blocks
from .problems import check_count, check_positive, check_real
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
# a coarse coupling this small against both of its diagonals, each
# scaled by the candidate, is lumped onto them (galerkin_product); a
# negative one of a product that b-scaled diagonal dominance certifies is
# lumped up to the second threshold, a factor 5 below the first value
# (1e-2) that costs PCG iterations on the oscillatory problem
NON_GALERKIN_THETA = 5e-4
NON_GALERKIN_THETA_NEGATIVE = 2e-3
# galerkin_product decides the coarse entries in one pass over row blocks
# of at most this many stored entries, so its temporaries stay small
GALERKIN_BLOCK_ENTRIES = 2**13


@dataclass
class Level:
    """One level: its operator, interpolation to the next level, the CF
    splitting, the relaxation used here and diag(A), cached for the
    relaxation sweeps.  P is stored in CSC, so the restriction P.T is a
    CSR view of it that neither the cycle nor galerkin_product copies.
    The coarsest level is solved directly and holds only A."""

    A: sparse.csr_matrix
    P: sparse.csc_matrix = None
    split: object = None
    relaxation: Relaxation = None
    emin_residuals: list = None
    diagonal: np.ndarray = None


@dataclass
class Hierarchy:
    """The levels, finest first.  coarsest_factorization is cho_factor's
    (c, lower) for a coarsest level with a nonzero off-diagonal entry, or
    the diagonal of one without; sweeps is the number of relaxation
    sweeps before and after each coarse correction."""

    levels: list
    coarsest_factorization: object
    fine_candidates: np.ndarray
    sweeps: int

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
        return sum((2 * self.sweeps + 1) * lvl.A.nnz
                   for lvl in self.levels) / nnz0


@dataclass
class SetupConfig:
    """Knobs of the multilevel setup.

    mode is 'weighted' or 'constrained'; tau only matters for the weighted
    route.  emin_iters defaults to pattern_degree + 1 in constrained mode
    (enough to fill the pattern plus one improvement step; the cycle's
    convergence factor levels off while the minimization residual keeps
    falling) and to pattern_degree + 3 in weighted mode, which at tau 1e-4
    needs its extra steps; each level runs it out unless CG reaches
    round-off (energymin.pcg_frobenius, one floor for both routes).
    jacobi_omega 'auto' damps each level by relaxation.auto_jacobi_omega:
    c / rho_k, with c = relaxation.OMEGA_COEFFICIENT (1.5) and rho_k the
    Rayleigh quotient of D^{-1} A after linalg.POWER_STEPS (10) power steps,
    a lower bound on its spectral radius, capped at relaxation.OMEGA_CAP
    (1.8) / theta_k, theta_k the Ritz value of the same steps, so omega rho
    stays below 2.  candidates holds raw constraint vectors (default: the
    constant vector).  Construction rejects a field out of range with a
    ValueError that names it: tau and theta_strength are finite real numbers
    (not bools) in [0, 1], jacobi_omega is 'auto' or a finite real number
    > 0, the counts pattern_degree, max_coarse, max_levels and sweeps are
    integers (not bools or floats) >= 1, and emin_iters is None or an
    integer >= 0.  This is the one place a setup option is validated but
    candidates, which setup checks against A's size; a sweep checks its grid
    by building every point's SetupConfig.
    """

    mode: str = "constrained"
    tau: float = 1e-4
    pattern_degree: int = 2
    emin_iters: int = None
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
        for name in ("pattern_degree", "max_coarse", "max_levels", "sweeps"):
            check_count(name, getattr(self, name), minimum=1)
        if self.emin_iters is not None:
            check_count("emin_iters", self.emin_iters)
        for name in ("tau", "theta_strength"):
            check_real(name, getattr(self, name), 0.0, 1.0)
        if not (isinstance(self.jacobi_omega, str) and self.jacobi_omega == "auto"):
            check_positive("jacobi_omega", self.jacobi_omega)

    def iteration_budget(self):
        if self.emin_iters is not None:
            return self.emin_iters
        return self.pattern_degree + (1 if self.mode == "constrained" else 3)


def galerkin_product(P, A, b=None):
    """The coarse operator of a symmetric A: P^T A P, sparsified.

    A must be symmetric; setup checks this once for the fine level, and
    every coarse level it builds is exactly symmetric.  Only the upper
    triangle U = triu(R (A P)), diagonal included, is formed: A P is
    SciPy's CSR x CSR product, and R = P^T is read as CSR, which for a
    CSC P, as setup stores it, is a view, so no copy of P is held through
    the product (A @ P reads a temporary CSR copy of a CSC P).  Each
    entry of U is the entry SciPy's R @ (A P) stores, summed in R's row
    order, and an exactly zero sum is not stored.  The result is U
    mirrored, a_ji = a_ij, so it is exactly symmetric by construction
    and canonical CSR: for an A skewed at round-off it is P^T A P's
    upper triangle, not an average of the two triangles.

    An off-diagonal entry with |a_ij| < eps sqrt(|a_ii| |a_jj|), eps =
    2^-52 the float64 machine epsilon, is not stored: scaled by the
    diagonal it is below the round-off already in each diagonal entry.

    Given b, the coarse candidate (a finite vector of P's column count), the
    result is no longer the exact product.  Every other off-diagonal
    entry with b_i b_j > 0, |a_ij| b_j/b_i <= theta a_ii and |a_ij|
    b_i/b_j <= theta a_jj, theta = NON_GALERKIN_THETA, is dropped too and
    lumped onto the diagonals, a_ij b_j/b_i onto a_ii and a_ij b_i/b_j
    onto a_jj, so the result times b equals P^T A P b to round-off.  The
    two conditions bound a dropped entry by theta sqrt(a_ii a_jj) of the
    product's diagonals.  Both rules are symmetric in i and j, so the
    result stays exactly symmetric.

    A product is certified when every b_i != 0 and every row has slack
    s_i = a_ii |b_i| - sum_{j != i} |a_ij| |b_j| >= 0: the b-scaled
    product B = diag(b) A_c diag(b) is weakly diagonally dominant.  On a
    certified product a negative coupling is lumped at theta =
    NON_GALERKIN_THETA_NEGATIVE instead; positive ones keep
    NON_GALERKIN_THETA, and an uncertified product runs the rule above
    unchanged.  This is safe: lumping (i, j) changes B by
    b_i a_ij b_j (e_i - e_j)(e_i - e_j)^T, which leaves s_i and s_j as
    they are for a_ij < 0 (b_i b_j > 0) and raises them for a_ij > 0, and
    dropping a round-off entry raises them too.  So the lumped B is
    still weakly dominant with a diagonal >= 0, hence positive
    semidefinite by Gershgorin, and so is the lumped A_c, congruent to
    it, at any threshold for negative couplings.

    After SciPy's A P, the compiled kernels.upper_product forms U in one
    row loop that skips the columns below the diagonal, kernels.mirror_upper
    writes A_c from U, and kernels.drop_and_lump checks the certificate
    and decides every entry in one row loop.  Their bit reference, and
    the path where they cannot run, is sparse.triu of SciPy's R @ (A P),
    _mirrored and _drop_and_lump: one pass over row blocks of at most
    GALERKIN_BLOCK_ENTRIES stored entries checks the certificate,
    stopping at the first block with a negative slack; a second pass over
    the same blocks decides every entry: it reads |a_ij| once, applies
    both rules, sums each row's lumped a_ij b_j, writes a_ii + sum / b_i
    into the stored diagonal of a row whose sum is nonzero and zeroes the
    dropped entries in place.  Besides the product either path holds the
    diagonal's vectors, and the NumPy path a few arrays of one block.
    """
    if P.shape[0] != A.shape[0] or A.shape[0] != A.shape[1]:
        raise ValueError("shapes do not conform for P^T A P")
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (P.shape[1],):
            raise ValueError(f"b has shape {b.shape}; expected a vector of length "
                             f"{P.shape[1]}, the column count of P")
        if not np.all(np.isfinite(b)):
            raise ValueError("b has a non-finite entry (NaN or inf)")
    AP, R = A @ P, P.T.tocsr()
    U = kernels.upper_product(R, AP)
    if U is None:
        U = _upper_product(R, AP)
    del AP, R
    Ac = kernels.mirror_upper(U)
    if Ac is None:
        Ac = _mirrored(U)
    del U
    d = Ac.diagonal()
    # t_i t_j is the bound and cannot overflow where a_ii a_jj would; a
    # diagonal entry is never below eps times itself, so it always stays
    t = np.sqrt(np.abs(d) * np.finfo(np.float64).eps)
    # q_ij = |a_ij| b_j / (theta a_ii b_i) = |a_ij| r_i b_j, or 0 where
    # b_i = 0 or a_ii <= 0, so q_ij in (0, 1] needs b_i b_j > 0 and a_ii > 0;
    # r_neg is r at the negative couplings' theta, read only if certified
    r = r_neg = None
    if b is not None:
        r, r_neg = (np.divide(1.0, theta * d * b, out=np.zeros_like(d),
                              where=(d > 0.0) & (b != 0.0))
                    for theta in (NON_GALERKIN_THETA, NON_GALERKIN_THETA_NEGATIVE))
    dropped = kernels.drop_and_lump(Ac, d, t, b, r, r_neg)
    if dropped is None:
        dropped = _drop_and_lump(Ac, d, t, b, r, r_neg)
    if dropped:
        Ac.eliminate_zeros()
        if Ac.data.base is not None:  # SciPy keeps a view when over half stays
            Ac.indices, Ac.data = Ac.indices.copy(), Ac.data.copy()
    return Ac


def _drop_and_lump(Ac, d, t, b, r, r_neg):
    """galerkin_product's pass over row blocks, the bit reference of
    kernels.drop_and_lump: certify Ac (r_neg is dropped unless
    _b_dominant holds), then zero every dropped and lumped entry of Ac in
    place and lump onto the diagonals; returns whether any entry was
    zeroed."""
    bounds = row_blocks(Ac.indptr, GALERKIN_BLOCK_ENTRIES)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    if r_neg is not None and not _b_dominant(Ac, d, b, blocks):
        r_neg = None
    dropped = False
    for lo, hi in blocks:
        rows, cols, data = _block(Ac, lo, hi)
        size = np.abs(data)
        drop = size < t[rows] * t[cols]
        if b is not None:
            r_rows, r_cols = r[rows], r[cols]
            if r_neg is not None:
                negative = data < 0.0
                r_rows[negative] = r_neg[rows[negative]]
                r_cols[negative] = r_neg[cols[negative]]
            # q_ij and q_ji from the same two factors mark (i, j) and (j, i) alike
            lump = ~drop
            for q in (r_rows * b[cols], b[rows] * r_cols):
                q *= size
                lump &= (q > 0.0) & (q <= 1.0)
            # bincount adds each row's a_ij b_j sequentially, in entry order
            moved = np.bincount(rows[lump] - lo, weights=data[lump] * b[cols[lump]],
                                minlength=hi - lo)
            # a row lumps a nonzero sum only with b_i != 0 and a stored a_ii > 0
            diagonal = (rows == cols) & (moved[rows - lo] != 0.0)
            i = rows[diagonal]
            data[diagonal] = d[i] + moved[i - lo] / b[i]
            drop |= lump
        data[drop] = 0.0
        dropped = dropped or bool(drop.any())
    return dropped


def _block(Ac, lo, hi):
    """Row indices, and views of the column indices and values, of the
    stored entries of rows lo to hi - 1 of a CSR Ac."""
    first, last = Ac.indptr[lo], Ac.indptr[hi]
    rows = np.repeat(np.arange(lo, hi), np.diff(Ac.indptr[lo:hi + 1]))
    return rows, Ac.indices[first:last], Ac.data[first:last]


def _b_dominant(Ac, d, b, blocks):
    """Whether every b_i != 0 and every row of Ac, of diagonal d, has
    a_ii |b_i| >= sum_{j != i} |a_ij| |b_j|; stops at the first block
    that has a row without."""
    if not b.all():
        return False
    size_b = np.abs(b)
    for lo, hi in blocks:
        rows, cols, data = _block(Ac, lo, hi)
        off = rows != cols
        mass = np.bincount(rows[off] - lo, weights=np.abs(data[off]) * size_b[cols[off]],
                           minlength=hi - lo)
        if np.any(d[lo:hi] * size_b[lo:hi] < mass):
            return False
    return True


def _upper_product(R, AP):
    """sparse.triu(R @ AP) of the CSR R and AP, canonical, the bit
    reference of kernels.upper_product: SciPy's product of each row block
    of R, at most GALERKIN_BLOCK_ENTRIES stored entries, is those rows of
    the full product, of which only the entries on and above the
    diagonal are kept, so the full product is never held."""
    n = R.shape[0]
    counts, indices, data = [[0]], [np.empty(0, dtype=np.int32)], [np.empty(0)]
    bounds = row_blocks(R.indptr, GALERKIN_BLOCK_ENTRIES)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = R[lo:hi] @ AP
        rows = np.repeat(np.arange(lo, hi), np.diff(block.indptr))
        upper = block.indices >= rows
        counts.append(np.bincount(rows[upper] - lo, minlength=hi - lo))
        indices.append(block.indices[upper])
        data.append(block.data[upper])
    data = np.concatenate(data)  # each list's pieces die with the rebinding
    indices = np.concatenate(indices)
    U = sparse.csr_matrix((data, indices, np.cumsum(np.concatenate(counts))), shape=(n, n))
    U.sort_indices()
    return U


def _mirrored(U):
    """The symmetric canonical CSR whose upper triangle is the canonical
    CSR U, the bit reference of kernels.mirror_upper: U plus its
    transpose's strict lower triangle, the transpose less its diagonal,
    the last entry of its row where stored.  The two share no position,
    so every entry keeps its bits, and the sum's arrays are sized
    exactly."""
    L = sparse.csc_matrix((U.data, U.indices, U.indptr), shape=U.shape).tocsr()
    rows = np.flatnonzero(np.diff(L.indptr))
    ends = L.indptr[rows + 1] - 1
    L.data[ends[L.indices[ends] == rows]] = 0.0
    L.eliminate_zeros()  # U stores no zero, so only the diagonal goes
    Ac = U + L
    Ac.sort_indices()
    return Ac


def setup(A, cfg):
    """Build a multilevel hierarchy for the SPD matrix A.

    Coarsening stops at max_levels, at a level of at most max_coarse
    rows, or at a level with no off-diagonal entry; that level is the
    coarsest.  Before any level is built, A, sparse or a dense 2-D
    array, must be real (it is read as float64 CSR), finite, square,
    symmetric and of positive diagonal, and the candidates finite and of
    A's size; each failure is a ValueError that names its cause.
    prepare_candidates rejects a singular A, one that maps the first
    candidate to round-off of A's own scale.  A
    coarsest level with no nonzero off-diagonal entry is solved by
    division by its diagonal; any other is factorized densely, and
    rejected before it is formed when that would need more than
    MAX_DENSE_COARSE_BYTES.  A failure on a coarse level, such as one
    that lumping left indefinite, is a ValueError that names the level,
    and so is the minimization's breakdown on level 0 (_build_level).
    """
    A = real_csr(A)
    check_symmetric(A)
    check_positive_diagonal(A.diagonal())
    raw = fine_candidates = candidate_block(cfg.candidates, A.shape[0]).copy()

    levels = []
    while len(levels) < cfg.max_levels - 1 and A.shape[0] > cfg.max_coarse:
        level = _build_level(A, raw, cfg, len(levels))
        if level is None:
            break
        levels.append(level)
        raw = raw[level.split.c_points]  # candidate injection onto the coarse grid
        # lumping keeps one candidate; with more, only round-off is dropped
        A = galerkin_product(level.P, A, raw[:, 0] if raw.shape[1] == 1 else None)
    levels.append(Level(A=A))  # solved directly, never relaxed

    return Hierarchy(levels, _coarsest_factorization(A, len(levels) - 1), fine_candidates,
                     cfg.sweeps)


def _build_level(A, raw, cfg, index):
    """Level `index`, of operator A, with its interpolation, or None when A
    has nothing to coarsen.  Each intermediate dies once nothing reads it:
    the strength graph once the pattern exists, the pattern, the
    candidates and the weight block W once P exists, all before the
    caller forms the Galerkin product."""
    where = f"level {index} ({A.shape[0]} rows)"
    try:
        S = strength_graph(A, cfg.theta_strength)
        split = cf_split(S)
        if split.n_f == 0:
            # any nonzero off-diagonal entry is an edge at every theta <= 1, so
            # this operator is diagonal and division solves it exactly
            return None
        pattern = pattern_distance_k(S, split, cfg.pattern_degree)
        del S
        B = prepare_candidates(A, raw)
        iters = cfg.iteration_budget()
        if cfg.mode == "constrained":
            interp = constrained_energymin(A, split, B, pattern, iters)
        else:
            interp = weighted_energymin(A, split, B, SpectralEquivalence(), cfg.tau,
                                        pattern, iters,
                                        use_preconditioner=cfg.use_preconditioner)
    except RuntimeError as err:  # the minimization's CG breakdown
        raise ValueError(f"{where}: operator is not positive definite: {err}") from err
    except ValueError as err:
        if index == 0:
            raise  # the caller's own operator and candidates
        raise ValueError(f"{where}: {err}") from err
    P, residuals = interp.P, interp.residuals
    del pattern, B, interp
    P = P.tocsc()  # the restriction P.T is then a CSR view (Level)
    diagonal = A.diagonal()
    omega = cfg.jacobi_omega
    if omega == "auto":
        omega = auto_jacobi_omega(A, diagonal=diagonal)
    return Level(A=A, P=P, split=split,
                 relaxation=Relaxation(omega=float(omega), sweeps=cfg.sweeps),
                 emin_residuals=residuals, diagonal=diagonal)


def _coarsest_factorization(A, index):
    """diag(A) when A, level `index`, has no nonzero off-diagonal entry,
    else the dense Cholesky factorization of A, refused over
    MAX_DENSE_COARSE_BYTES.  A non-positive diagonal entry or a failed
    factorization is a ValueError that names the level."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    coupled = np.any((A.indices != rows) & (A.data != 0.0))
    if coupled and 8 * n * n > MAX_DENSE_COARSE_BYTES:
        raise ValueError(
            f"coarsest level has {n} rows: its dense Cholesky factorization "
            f"needs {8 * n * n} bytes, over the {MAX_DENSE_COARSE_BYTES}-byte limit; "
            "raise max_levels or lower max_coarse")
    diagonal = A.diagonal()
    try:
        check_positive_diagonal(diagonal)
        # cho_factor reads only the upper triangle: one dense copy, factorized in place
        return cho_factor(A.toarray(order="F"), overwrite_a=True) if coupled else diagonal
    except ValueError as err:  # LinAlgError is a ValueError
        raise ValueError(f"coarsest level {index} ({n} rows): operator is not positive "
                         f"definite: {err}") from err


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

    Each iteration applies one V-cycle, z = Vcycle(r): stationary mode
    steps x <- x + z, and cg mode folds z into the search direction of
    preconditioned conjugate gradients, so no V-cycle follows its last
    iteration.  Returns (x, residual_history) of two-norm residuals,
    starting with the initial one.  Residual growth over CF_WINDOW
    consecutive iterations is reported as a warning, not raised.  tol is
    a finite real number >= 0, max_iters an integer >= 0, and b and x0
    finite vectors of length A.shape[0].
    """
    if accel not in ("stationary", "cg"):
        raise ValueError(f"unknown acceleration: {accel!r}")
    check_real("tol", tol, low=0.0)
    check_count("max_iters", max_iters)
    A = H.levels[0].A
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    for name, v in (("b", b), ("x0", x)):
        if v.shape != (n,):
            raise ValueError(f"{name} has shape {v.shape}; expected a vector of "
                             f"length {n}, the dimension of A")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} has a non-finite entry (NaN or inf)")

    r = b - A @ x
    history = [float(np.linalg.norm(r))]
    if max_iters == 0 or history[0] == 0.0:
        return x, history
    target = tol * history[0]
    growth = 0
    p = rz = None  # the CG search direction and its r^T z

    for _ in range(max_iters):
        z = vcycle(H, 0, r)
        if accel == "stationary":
            x = x + z
            r = b - A @ x
        else:
            rz_old, rz = rz, float(r @ z)
            p = z if p is None else z + (rz / rz_old) * p
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
            driver = "V-cycle iteration" if accel == "stationary" else "preconditioned CG"
            warnings.warn(f"{driver} diverging: residual grew over "
                          f"{CF_WINDOW} consecutive iterations", RuntimeWarning)
            break
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
