"""Interpolation P = [W; I] by energy (trace) minimization.

There is one pattern-restricted problem, the weighted normal equations
Lhat W = Bhat with

    Lhat W = tau A_ff W + c2 (1 - tau) X_ff W B_c B_c^T,

a blend of column energy and candidate interpolation error, and one
Hadamard diagonal preconditioner, the entry-wise inverse diagonal of
Lhat.  Both routes minimize it from the feasible start that spreads each
row's target B_f over the row's pattern with minimum norm:

* weighted minimization at the configured tau, over all pattern
  matrices;

* constrained minimization at tau = 1 (column energy alone), over the
  pattern matrices with W B_c = B_f, every direction projected onto the
  constraint's null space row by row.

Both run the one preconditioned CG, pcg_frobenius, on the slot values
of W (the Frobenius inner product of matrices on one pattern is the dot
product of their slot values).
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import sparse

from .coarsening import SparsityPattern
from .relaxation import SpectralEquivalence

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

    def split_rows(self, split):
        """(B_f, B_c): candidate rows at F points and at C points."""
        return self.vectors[split.f_points], self.vectors[split.c_points]


def prepare_candidates(A, raw):
    """A-orthonormalize raw candidate vectors by modified Gram-Schmidt.

    Raises ValueError when a vector's A-norm drops below 1e-13 after
    orthogonalization: A is singular on the first candidate (for example
    a Neumann operator that annihilates the constant), or a later one
    depends on the earlier ones in the A-inner product.
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
        if a_norm < 1e-13 and k == 0:
            raise ValueError(f"A is singular on candidate 0: its A-norm is "
                             f"{a_norm:.3e} times its 2-norm, and setup needs a "
                             f"positive definite A")
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

    Each group keeps the pseudo-inverse of its Gram matrices C_i^T C_i,
    shape (R, n_b, n_b).  With one candidate the Gram matrix is the
    scalar g = sum c^2 and its pseudo-inverse is 1/g, or 0 where g == 0
    (pinv's cutoff); only n_b >= 2 needs pinv's batched SVD.  pinv
    returns the same bits for 1e-138 < g < 1e138; beyond that LAPACK
    rescales the matrix and its result may miss the correctly rounded
    1/g by up to two ulps.
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
            if self.n_b == 1:
                Gp = np.divide(1.0, G, out=np.zeros_like(G), where=G != 0.0)
            else:
                Gp = np.linalg.pinv(G)
            self.groups.append((rows, slots, C, Gp))

    def project(self, values):
        """Project slot values onto {Z : Z B_c = 0}, row by row.  Every
        slot belongs to exactly one group, so each is written once."""
        out = np.empty_like(values)
        for _, slots, C, Gp in self.groups:
            Z = values[slots]
            t = np.einsum("rmk,rm->rk", C, Z)
            s = np.einsum("rkl,rl->rk", Gp, t)
            out[slots] = Z - np.einsum("rmk,rk->rm", C, s)
        return out

    def min_norm_solution(self, B_f):
        """Smallest-Euclidean-norm slot values with W B_c = B_f.

        Rows whose pattern cannot represent the target exactly (fewer
        slots than constraints, or locally dependent candidate rows)
        receive the minimum-norm least-squares value instead; an empty
        row whose target exceeds 1e-12 relative to max|B_f| (or 1) is
        an error.
        """
        values = np.zeros(self.pattern.nnz)
        scale = np.abs(B_f).max() if B_f.size else 0.0
        for rows, slots, C, Gp in self.groups:
            b = B_f[rows]                              # (R, n_b)
            s = np.einsum("rkl,rl->rk", Gp, b)
            values[slots] = np.einsum("rmk,rk->rm", C, s)
        for i in self.pattern.empty_f_rows:
            if np.abs(B_f[i]).max() > 1e-12 * max(scale, 1.0):
                raise ValueError(f"pattern row {int(i)} is empty but its "
                                 f"constraint target is nonzero")
        return values


@dataclass
class WeightedSystem:
    """The pattern-restricted weighted operator, right-hand side and
    Hadamard diagonal preconditioner.  The candidate-term constants
    Bc_slots and cand_scale are None at tau = 1, where the term
    vanishes.  cand_scale folds in c2 and X_ff_diag, so the operator
    reads neither; they stay for the dense oracles that form Lhat as
    a Kronecker sum.

    product_layout is the (indptr, indices) of the last product A_ff W
    that apply_weighted_operator formed, then, once a later product had
    the same layout, the position of each slot in its data (-1 where it
    stores none) and the slots it misses; None before the first product.
    """

    tau: float
    c2: float
    A_ff: sparse.csr_matrix
    X_ff_diag: np.ndarray
    B_f: np.ndarray
    B_c: np.ndarray
    pattern: SparsityPattern
    Bhat: np.ndarray          # slot values
    Dprec: np.ndarray         # slot values
    Bc_slots: np.ndarray      # B_c[cols], one candidate row per slot
    cand_scale: np.ndarray    # c2 (1 - tau) X_ff[slot_rows]
    product_layout: tuple = None


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

    slot_rows, cols = pattern.slot_rows, pattern.cols

    denom = tau * A_ff.diagonal()[slot_rows]
    bhat = -tau * _slot_values(A_fc, slot_rows, cols)
    Bc_slots = cand_scale = None
    if tau < 1.0:
        bc_sq = np.einsum("jk,jk->j", B_c, B_c)  # (B_c B_c^T)_jj
        denom = denom + c2 * (1.0 - tau) * bc_sq[cols] * x_diag[slot_rows]
        Bc_slots = B_c[cols]
        cand_scale = c2 * (1.0 - tau) * x_diag[slot_rows]
        bhat = bhat + cand_scale * np.einsum("ik,ik->i", B_f[slot_rows], Bc_slots)
    if np.any(~np.isfinite(denom)) or np.any(denom <= 0.0):
        bad = int(np.flatnonzero(~np.isfinite(denom) | (denom <= 0.0))[0])
        raise ValueError(
            f"degenerate weight: preconditioner denominator is not positive at "
            f"pattern slot {bad} (row {int(slot_rows[bad])}, col {int(cols[bad])})")

    return WeightedSystem(tau, c2, A_ff, x_diag, B_f, B_c, pattern,
                          bhat, 1.0 / denom, Bc_slots, cand_scale)


def _product_slot_values(sys, S):
    """Slot values of the product S = A_ff W.

    SpGEMM orders each output row by the structure of A_ff and the
    pattern alone and drops only entries that sum to exactly zero, so
    products with equal indptr and indices store the same entries in the
    same places.  A product whose layout differs from the last one's is
    sampled and its layout kept; once a layout repeats, the slots are
    located in it once and every product with it reads its slot values
    as a gather.  A product stores no duplicates and no zeros, so the
    gather returns what sampling would: the stored entry, or 0 for a
    slot the layout misses.
    """
    pat = sys.pattern
    layout = sys.product_layout
    if (layout is None or S.nnz == 0 or not np.array_equal(S.indptr, layout[0])
            or not np.array_equal(S.indices, layout[1])):
        sys.product_layout = (S.indptr, S.indices, None, None)
        return _slot_values(S, pat.slot_rows, pat.cols)
    if layout[2] is None:
        # entry k of S is numbered k + 1, so a slot S misses reads 0
        numbers = sparse.csr_matrix((np.arange(1, S.nnz + 1, dtype=S.indices.dtype),
                                     S.indices, S.indptr), shape=S.shape)
        found = _slot_values(numbers, pat.slot_rows, pat.cols)
        layout = sys.product_layout = (S.indptr, S.indices, found - 1,
                                       np.flatnonzero(found == 0))
    values = S.data[layout[2]]
    values[layout[3]] = 0.0
    return values


def apply_weighted_operator(sys, values):
    """Apply Lhat to pattern slot values:
    (tau A_ff W + c2 (1 - tau) X_ff W B_c B_c^T) restricted to the pattern."""
    pat = sys.pattern
    W = pat.to_csr(values)
    if sys.tau > 0.0:
        out = sys.tau * _product_slot_values(sys, sys.A_ff @ W)
    else:
        out = np.zeros(pat.nnz)
    if sys.tau < 1.0:
        V = W @ sys.B_c                                   # (nf, n_b)
        out += sys.cand_scale * np.einsum("ik,ik->i", V[pat.slot_rows], sys.Bc_slots)
    return out


def pcg_frobenius(apply, b, x0, diag, max_iters, tol, project=None, callback=None):
    """Preconditioned CG on apply(x) = b over pattern slot values.

    The preconditioner is the Hadamard product with `diag`.  When
    `project` is given (an orthogonal projection onto a subspace of slot
    values), the residual is projected and so are the preconditioned
    residual and every operator image, so the iterates stay on
    x0 + subspace.  Stops when the preconditioned residual norm
    sqrt(r . z) falls below tol relative to its initial value, or after
    max_iters iterations; the iteration budget is the primary control
    since the residual does not predict the quality of the resulting AMG
    interpolation.  A projected residual carries round-off of what the
    projection removed, so x0 is returned as it is, and CG stops, once
    sqrt(r . z) falls to 1e-13 of the removed part's preconditioned
    norm, whatever tol: steps on round-off would take their length from
    round-off curvature and move x by garbage.

    Returns (x, residual_history); history starts with the initial
    residual norm.  `callback(x)` gets a copy of every updated iterate.
    """
    if project is None:
        def project(v):
            return v
    x = x0.copy()
    r_full = b - apply(x)
    r = project(r_full)
    z = project(diag * r)
    rz = float(r @ z)
    history = [np.sqrt(max(rz, 0.0))]
    removed = r_full - r
    floor = 1e-13 * np.sqrt(abs(float(removed @ (diag * removed))))
    del r_full, removed
    if history[0] <= floor:
        return x, history
    p = z.copy()
    target = max(tol * history[0], floor)
    for k in range(max_iters):
        Lp = project(apply(p))
        pLp = float(p @ Lp)
        if not np.isfinite(pLp) or pLp <= 0.0:
            raise RuntimeError(f"energy-minimization CG breakdown at iteration {k}: "
                               f"curvature {pLp}")
        alpha = rz / pLp
        x += alpha * p
        r -= alpha * Lp
        z = project(diag * r)
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise RuntimeError(f"energy-minimization CG breakdown at iteration {k}: "
                               f"non-finite residual")
        history.append(np.sqrt(max(rz_new, 0.0)))
        if callback is not None:
            callback(x.copy())
        if history[-1] <= target:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, history


def initial_guess(split, B, pattern):
    """The feasible start both routes use: spread each F row's
    constraint target over the row's pattern entries with minimum
    Euclidean norm.  The routes compute it inside _minimize; this name
    stays because the benchmark's span tracer (perfbench/spans.py)
    binds it and fails without it."""
    B_f, B_c = B.split_rows(split)
    return _RowConstraints(B_c, pattern).min_norm_solution(B_f)


@dataclass
class Interpolation:
    """An assembled interpolation operator and the weight block W it
    came from (CSR on the pattern, explicit zeros kept)."""

    W: sparse.csr_matrix
    P: sparse.csr_matrix
    residuals: list


def _minimize(sys, split, iters, tol, diag, constrained, callback=None):
    """Minimize the system's quadratic by pcg_frobenius from the feasible
    start, on W B_c = B_f when constrained, and assemble P."""
    rows = _RowConstraints(sys.B_c, sys.pattern)
    w, history = pcg_frobenius(partial(apply_weighted_operator, sys), sys.Bhat,
                               rows.min_norm_solution(sys.B_f), diag, iters, tol,
                               project=rows.project if constrained else None,
                               callback=callback)
    W = sys.pattern.to_csr(w)
    return Interpolation(W, assemble_P(W, split), history)


def constrained_energymin(A, split, B, pattern, iters, tol=0.0, callback=None):
    """Trace minimization with the candidate constraints enforced exactly.

    The weighted system at tau = 1, the column energy <A_ff W + A_fc, W>
    alone (equivalently tr(P^T A P) up to a constant), minimized over
    pattern matrices with W B_c = B_f: CG preconditioned by 1/diag(A_ff),
    its directions projected row-wise onto {Z : Z B_c = 0}.  Every
    iterate satisfies the constraint to round-off wherever the pattern
    admits it; rows too short for the full constraint block hold their
    least-squares values.
    """
    sys = build_weighted_system(A, split, B, SpectralEquivalence(), 1.0, pattern)
    return _minimize(sys, split, iters, tol, sys.Dprec, constrained=True,
                     callback=callback)


def weighted_energymin(A, split, B, X, tau, pattern, iters, tol=1e-10,
                       use_preconditioner=True):
    """Weighted route end to end: build the system, start from the
    constraint-spreading initial guess, run PCG, assemble P."""
    sys = build_weighted_system(A, split, B, X, tau, pattern)
    diag = sys.Dprec if use_preconditioner else np.ones(pattern.nnz)
    return _minimize(sys, split, iters, tol, diag, constrained=False)


def assemble_P(W, split):
    """Assemble P from the CSR weight block W: C rows are unit vectors
    onto their coarse position, F rows carry W, original ordering
    preserved."""
    nf, nc = W.shape
    if nf != split.n_f or nc != split.n_c:
        raise ValueError("weight block shape does not match the splitting")
    n = split.n
    counts = np.diff(W.indptr)
    f_rows = np.repeat(split.f_points, counts)
    rows = np.concatenate([f_rows, split.c_points])
    cols = np.concatenate([W.indices, np.arange(nc, dtype=np.int64)])
    vals = np.concatenate([W.data, np.ones(nc)])
    P = sparse.coo_matrix((vals, (rows, cols)), shape=(n, nc)).tocsr()
    P.sort_indices()
    return P
