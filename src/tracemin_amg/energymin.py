"""Interpolation P = [W; I] by energy (trace) minimization.

Two routes build the weight block W over a fixed sparsity pattern:

* weighted minimization: conjugate gradients on the pattern-restricted
  normal equations Lhat W = Bhat in the Frobenius-inner-product Hilbert
  space, where Lhat W = tau A_ff W + c2 (1 - tau) X_ff W B_c B_c^T is a
  weighted blend of column energy and candidate interpolation error,
  preconditioned by a Hadamard product with the entry-wise diagonal
  inverse of the operator;

* constrained minimization: the candidate-interpolation conditions
  W B_c = B_f are enforced exactly and the column energy is minimized
  by diagonally preconditioned CG projected onto the constraint's null
  space row by row.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .coarsening import BlockSplit, SparsityPattern
from .linalg import PatternMatrix

__all__ = [
    "CandidateSet",
    "WeightedSystem",
    "Interpolation",
    "prepare_candidates",
    "build_weighted_system",
    "apply_weighted_operator",
    "pcg_frobenius",
    "initial_guess",
    "constrained_energymin",
    "weighted_energymin",
    "assemble_P",
]


@dataclass(frozen=True)
class CandidateSet:
    """Constraint vectors with A-orthonormal columns (n x n_B)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError("candidate set must hold at least one column")
        object.__setattr__(self, "vectors", v)

    @property
    def n_vectors(self):
        return self.vectors.shape[1]

    def split_rows(self, split):
        """(B_f, B_c): candidate rows at F points and at C points."""
        return self.vectors[split.f_points], self.vectors[split.c_points]


def prepare_candidates(A, raw):
    """A-orthonormalize raw candidate vectors by modified Gram-Schmidt.

    Raises ValueError when a vector's A-norm drops below 1e-13 after
    orthogonalization (linearly dependent input).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 1:
        raw = raw[:, None]
    if raw.shape[0] != A.shape[0]:
        raise ValueError("candidate length does not match the matrix dimension")
    cols = []
    for k in range(raw.shape[1]):
        v = raw[:, k].copy()
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise ValueError(f"candidate {k} is zero")
        v /= nv
        for _ in range(2):  # re-orthogonalize for robustness
            for u in cols:
                v -= (u @ (A @ v)) * u
        a_norm = np.sqrt(max(v @ (A @ v), 0.0))
        if a_norm < 1e-13:
            raise ValueError(f"candidate {k} is dependent on earlier candidates "
                             f"in the A-inner product")
        cols.append(v / a_norm)
    return CandidateSet(np.column_stack(cols))


def _slot_values(S, slot_rows, cols):
    """Values of the sparse matrix S at the pattern slots (slot_rows,
    cols), 0 where S stores nothing.  CSR sampling reads each slot from
    its row of S (scanning it, or bisecting when S is canonical), so S
    may be an unsorted SpGEMM product with entries off the pattern."""
    return np.asarray(S[slot_rows, cols]).ravel()


class _RowConstraints:
    """Per-row machinery for the conditions W B_c = B_f.

    Each F row i couples only the entries of its own pattern row, so the
    constraint decouples: C_i^T w_i = b_i with C_i = B_c[pattern cols of
    row i].  Rows are batched by pattern-row length so projections and
    minimum-norm solves are vectorized.
    """

    def __init__(self, B_c, pattern):
        self.pattern = pattern
        self.n_b = B_c.shape[1]
        lengths = np.diff(pattern.indptr)
        self.groups = []
        for m in np.unique(lengths):
            if m == 0:
                continue
            rows = np.flatnonzero(lengths == m)
            slots = pattern.indptr[rows][:, None] + np.arange(m)[None, :]
            C = B_c[pattern.cols[slots]]              # (R, m, n_b)
            G = np.einsum("rmk,rml->rkl", C, C)       # (R, n_b, n_b)
            Gp = np.linalg.pinv(G)
            self.groups.append((rows, slots, C, Gp))
        self.empty_rows = np.flatnonzero(lengths == 0)

    def project(self, values):
        """Project slot values onto {Z : Z B_c = 0}, row by row."""
        out = values.copy()
        for _, slots, C, Gp in self.groups:
            Z = out[slots]
            t = np.einsum("rmk,rm->rk", C, Z)
            s = np.einsum("rkl,rl->rk", Gp, t)
            out[slots] -= np.einsum("rmk,rk->rm", C, s)
        return out

    def min_norm_solution(self, B_f, rtol=1e-12):
        """Smallest-Euclidean-norm slot values with W B_c = B_f.

        Rows whose pattern cannot represent the target exactly (fewer
        slots than constraints, or locally dependent candidate rows)
        receive the minimum-norm least-squares value instead; an empty
        row with a nonzero target is an error.
        """
        values = np.zeros(self.pattern.nnz)
        scale = np.abs(B_f).max() if B_f.size else 0.0
        for rows, slots, C, Gp in self.groups:
            b = B_f[rows]                              # (R, n_b)
            s = np.einsum("rkl,rl->rk", Gp, b)
            values[slots] = np.einsum("rmk,rk->rm", C, s)
        for i in self.empty_rows:
            if np.abs(B_f[i]).max() > rtol * max(scale, 1.0):
                raise ValueError(f"pattern row {int(i)} is empty but its "
                                 f"constraint target is nonzero")
        return values


@dataclass
class WeightedSystem:
    """The pattern-restricted weighted operator, right-hand side and
    Hadamard diagonal preconditioner."""

    tau: float
    c2: float
    A_ff: sparse.csr_matrix
    A_fc: sparse.csr_matrix
    X_ff_diag: np.ndarray
    B_f: np.ndarray
    B_c: np.ndarray
    pattern: SparsityPattern
    Bhat: PatternMatrix
    Dprec: PatternMatrix
    slot_rows: np.ndarray
    Bc_slots: np.ndarray      # B_c[cols], one candidate row per slot
    cand_scale: np.ndarray    # c2 (1 - tau) X_ff[slot_rows]

    @property
    def BcBcT(self):
        return self.B_c @ self.B_c.T

    def template(self):
        """A zero pattern matrix in this system's Hilbert space."""
        return PatternMatrix((self.pattern.nf, self.pattern.nc),
                             self.pattern.indptr, self.pattern.cols)


def build_weighted_system(A, split, B, X, tau, pattern):
    """Assemble Lhat, Bhat and the diagonal preconditioner.

    Parameters
    ----------
    A : csr_matrix
        The SPD fine-level operator.
    split : BlockSplit
    B : CandidateSet
    X : SpectralEquivalence
        Supplies the diagonal operator X_ff and the constant c2.
    tau : float in [0, 1]
        Weight of the column-energy term; 1 - tau weighs candidate
        interpolation accuracy.
    pattern : SparsityPattern
    """
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    A_ff, A_fc = split.f_blocks(A)
    B_f, B_c = B.split_rows(split)
    x_diag = X.diagonal(A_ff)
    c2 = X.c2

    counts = np.diff(pattern.indptr)
    slot_rows = np.repeat(np.arange(pattern.nf, dtype=np.int64), counts)
    cols = pattern.cols

    aff_diag = A_ff.diagonal()
    bc_sq = np.einsum("jk,jk->j", B_c, B_c)  # (B_c B_c^T)_jj
    denom = tau * aff_diag[slot_rows] + c2 * (1.0 - tau) * bc_sq[cols] * x_diag[slot_rows]
    if np.any(~np.isfinite(denom)) or np.any(denom <= 0.0):
        bad = int(np.flatnonzero(~np.isfinite(denom) | (denom <= 0.0))[0])
        raise ValueError(
            f"degenerate weight: preconditioner denominator is not positive at "
            f"pattern slot {bad} (row {int(slot_rows[bad])}, col {int(cols[bad])})")

    shape = (pattern.nf, pattern.nc)
    Dprec = PatternMatrix(shape, pattern.indptr, cols, 1.0 / denom)

    Bc_slots = B_c[cols]
    cand_scale = c2 * (1.0 - tau) * x_diag[slot_rows]
    bhat = -tau * _slot_values(A_fc, slot_rows, cols)
    if tau < 1.0:
        bhat = bhat + cand_scale * np.einsum("ik,ik->i", B_f[slot_rows], Bc_slots)
    Bhat = PatternMatrix(shape, pattern.indptr, cols, bhat)

    return WeightedSystem(tau, c2, A_ff, A_fc, x_diag, B_f, B_c, pattern,
                          Bhat, Dprec, slot_rows, Bc_slots, cand_scale)


def apply_weighted_operator(sys, values):
    """Apply Lhat to pattern slot values:
    (tau A_ff W + c2 (1 - tau) X_ff W B_c B_c^T) restricted to the pattern."""
    pat = sys.pattern
    out = np.zeros(pat.nnz)
    W = sparse.csr_matrix((values, pat.cols, pat.indptr), shape=(pat.nf, pat.nc))
    if sys.tau > 0.0:
        out += sys.tau * _slot_values(sys.A_ff @ W, sys.slot_rows, pat.cols)
    if sys.tau < 1.0:
        V = W @ sys.B_c                                   # (nf, n_b)
        out += sys.cand_scale * np.einsum("ik,ik->i", V[sys.slot_rows], sys.Bc_slots)
    return out


def pcg_frobenius(sys, W0, max_iters, tol, use_preconditioner=True, callback=None):
    """Preconditioned CG on Lhat W = Bhat in the pattern Hilbert space.

    The preconditioner is the Hadamard product with sys.Dprec.  Stops
    when the preconditioned residual norm falls below tol relative to
    its initial value, or after max_iters iterations; the iteration
    budget is the primary control since the residual does not predict
    the quality of the resulting AMG interpolation.

    Returns (W, residual_history); history starts with the initial
    residual norm.  `callback(W)` is invoked after every update.
    """
    if not W0.same_pattern(sys.template()):
        raise ValueError("W0 does not conform to the system pattern")
    w = W0.values.copy()
    d = sys.Dprec.values if use_preconditioner else np.ones(len(w))

    r = sys.Bhat.values - apply_weighted_operator(sys, w)
    z = d * r
    rz = float(r @ z)
    history = [np.sqrt(max(rz, 0.0))]
    if history[0] == 0.0:
        return W0.with_values(w), history
    p = z.copy()
    target = tol * history[0]
    for k in range(max_iters):
        Lp = apply_weighted_operator(sys, p)
        pLp = float(p @ Lp)
        if not np.isfinite(pLp) or pLp <= 0.0:
            raise RuntimeError(f"energy-minimization CG breakdown at iteration {k}: "
                               f"curvature {pLp}")
        alpha = rz / pLp
        w += alpha * p
        r -= alpha * Lp
        z = d * r
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise RuntimeError(f"energy-minimization CG breakdown at iteration {k}: "
                               f"non-finite residual")
        history.append(np.sqrt(max(rz_new, 0.0)))
        if callback is not None:
            callback(W0.with_values(w.copy()))
        if history[-1] <= target:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return W0.with_values(w), history


def initial_guess(split, B, pattern):
    """Feasible start: spread each F row's constraint target over the
    row's pattern entries with minimum Euclidean norm."""
    B_f, B_c = B.split_rows(split)
    rows = _RowConstraints(B_c, pattern)
    values = rows.min_norm_solution(B_f)
    return PatternMatrix((pattern.nf, pattern.nc), pattern.indptr, pattern.cols, values)


def quadratic_value(sys, values):
    """The pattern-restricted quadratic 0.5 <Lhat W, W> - <W, Bhat>."""
    return 0.5 * float(values @ apply_weighted_operator(sys, values)) \
        - float(values @ sys.Bhat.values)


@dataclass
class Interpolation:
    """An assembled interpolation operator and the W it came from."""

    W: PatternMatrix
    split: BlockSplit
    P: sparse.csr_matrix
    residuals: list


def constrained_energymin(A, split, B, pattern, iters, tol=0.0, callback=None):
    """Trace minimization with the candidate constraints enforced exactly.

    Minimizes the column energy <A_ff W + A_fc, W> (equivalently
    tr(P^T A P) up to a constant) over pattern matrices with
    W B_c = B_f, by diagonally preconditioned CG whose directions are
    projected row-wise onto {Z : Z B_c = 0}.  Every iterate satisfies
    the constraint to round-off wherever the pattern admits it; rows
    too short for the full constraint block hold their least-squares
    values.
    """
    A_ff, A_fc = split.f_blocks(A)
    B_f, B_c = B.split_rows(split)
    rows = _RowConstraints(B_c, pattern)
    counts = np.diff(pattern.indptr)
    slot_rows = np.repeat(np.arange(pattern.nf, dtype=np.int64), counts)
    aff_diag = A_ff.diagonal()
    if np.any(aff_diag <= 0.0):
        raise ValueError("A_ff must have a positive diagonal")
    dinv = 1.0 / aff_diag[slot_rows]
    afc_vals = _slot_values(A_fc, slot_rows, pattern.cols)

    def energy_op(values):
        """(A_ff W) restricted to the pattern."""
        W = sparse.csr_matrix((values, pattern.cols, pattern.indptr),
                              shape=(pattern.nf, pattern.nc))
        return _slot_values(A_ff @ W, slot_rows, pattern.cols)

    w = rows.min_norm_solution(B_f)
    r = rows.project(-(energy_op(w) + afc_vals))
    z = rows.project(dinv * r)
    rz = float(r @ z)
    history = [np.sqrt(max(rz, 0.0))]
    if history[0] > 0.0:
        p = z.copy()
        target = tol * history[0]
        for k in range(iters):
            Lp = rows.project(energy_op(p))
            pLp = float(p @ Lp)
            if not np.isfinite(pLp) or pLp <= 0.0:
                raise RuntimeError(f"constrained CG breakdown at iteration {k}: "
                                   f"curvature {pLp}")
            alpha = rz / pLp
            w += alpha * p
            r -= alpha * Lp
            z = rows.project(dinv * r)
            rz_new = float(r @ z)
            history.append(np.sqrt(max(rz_new, 0.0)))
            if callback is not None:
                callback(PatternMatrix((pattern.nf, pattern.nc), pattern.indptr,
                                       pattern.cols, w.copy()))
            if history[-1] <= target:
                break
            p = z + (rz_new / rz) * p
            rz = rz_new

    W = PatternMatrix((pattern.nf, pattern.nc), pattern.indptr, pattern.cols, w)
    return Interpolation(W, split, assemble_P(W, split), history)


def weighted_energymin(A, split, B, X, tau, pattern, iters, tol=1e-10,
                       use_preconditioner=True):
    """Weighted route end to end: build the system, start from the
    constraint-spreading initial guess, run PCG, assemble P."""
    sys = build_weighted_system(A, split, B, X, tau, pattern)
    W0 = initial_guess(split, B, pattern)
    W, history = pcg_frobenius(sys, W0, iters, tol,
                               use_preconditioner=use_preconditioner)
    return Interpolation(W, split, assemble_P(W, split), history)


def assemble_P(W, split):
    """Assemble P from the weight block: C rows are unit vectors onto
    their coarse position, F rows carry W, original ordering preserved."""
    nf, nc = W.shape
    if nf != split.n_f or nc != split.n_c:
        raise ValueError("weight block shape does not match the splitting")
    n = split.n
    counts = np.diff(W.indptr)
    f_rows = np.repeat(split.f_points, counts)
    rows = np.concatenate([f_rows, split.c_points])
    cols = np.concatenate([W.cols, np.arange(nc, dtype=np.int64)])
    vals = np.concatenate([W.values, np.ones(nc)])
    P = sparse.coo_matrix((vals, (rows, cols)), shape=(n, nc)).tocsr()
    P.sort_indices()
    return P
