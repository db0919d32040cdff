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

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import sparse

from .coarsening import SparsityPattern
from .problems import check_real
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


def candidate_block(raw, n):
    """raw as a finite float64 (n, k) array, k >= 1, maybe a view of raw:
    None is the constant vector, a 1-D raw one column.  A wrong shape or
    a non-finite entry raises a ValueError that names it."""
    block = np.ones((n, 1)) if raw is None else np.asarray(raw, dtype=np.float64)
    block = block[:, None] if block.ndim == 1 else block
    if block.ndim != 2 or block.shape[0] != n or block.shape[1] < 1:
        raise ValueError(f"candidates have shape {np.shape(raw)}; expected ({n},) "
                         f"or ({n}, k) with k >= 1")
    if not np.all(np.isfinite(block)):
        raise ValueError("candidates have a non-finite entry (NaN or inf)")
    return block


def prepare_candidates(A, raw):
    """A-orthonormalize raw candidate vectors by modified Gram-Schmidt.

    Raises ValueError when raw fails candidate_block or a vector's A-norm
    drops below 1e-13 after orthogonalization: A is singular on the first
    candidate (say a Neumann operator, which annihilates the constant),
    or a later one depends on the earlier ones in the A-inner product.
    """
    raw = candidate_block(raw, A.shape[0])
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


# apply_weighted_operator forms both of its terms, and _RowConstraints
# sums over each row's slots, in blocks of consecutive rows that own at
# most this many pattern slots (a longer row is a block alone)
PRODUCT_BLOCK_SLOTS = 2**14


class _RowConstraints:
    """Per-row machinery for the conditions W B_c = B_f, and the one
    blocking of the slot space.

    Each F row i couples only the entries of its own pattern row, so the
    constraint decouples: C_i^T w_i = b_i with C_i = B_c[pattern cols of
    row i].  C holds one candidate row per slot; every sum over a row's
    slots is a segmented reduction from the row's first slot, taken in
    the row blocks that apply_weighted_operator forms its terms in, so
    no temporary outgrows a block.  Each block (lo, hi, slots, rows,
    starts, Gp) holds its bounds of F rows, its slot range, its nonempty
    rows, their first slots relative to the range and the
    pseudo-inverses of their Gram matrices C_i^T C_i, shape (R, n_b,
    n_b).  With one candidate the Gram matrix is the scalar g = sum c^2
    and its pseudo-inverse is 1/g, or 0 where g == 0 (pinv's cutoff);
    only n_b >= 2 needs pinv's batched SVD.  pinv returns the same bits
    for 1e-138 < g < 1e138; beyond that LAPACK rescales the matrix and
    its result may miss the correctly rounded 1/g by up to two ulps.
    """

    def __init__(self, B_c, pattern):
        self.pattern = pattern
        self.C = B_c[pattern.cols]                        # (nnz, n_b)
        indptr, self.blocks = pattern.indptr, []
        bounds = _row_blocks(indptr, PRODUCT_BLOCK_SLOTS)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows = lo + np.flatnonzero(np.diff(indptr[lo:hi + 1]))
            slots = slice(int(indptr[lo]), int(indptr[hi]))
            starts = indptr[rows] - indptr[lo]
            C = self.C[slots]
            G = np.add.reduceat(C[:, :, None] * C[:, None, :], starts, axis=0)
            if B_c.shape[1] == 1:
                Gp = np.divide(1.0, G, out=np.zeros_like(G), where=G != 0.0)
            else:
                Gp = np.linalg.pinv(G)
            self.blocks.append((lo, hi, slots, rows, starts, Gp))

    @staticmethod
    def _spread(C, starts, s):
        """The slot values C_i s_i of one block's rows."""
        counts = np.diff(starts, append=len(C))
        return np.einsum("sk,sk->s", C, np.repeat(s, counts, axis=0))

    def project(self, values):
        """Project slot values onto {Z : Z B_c = 0}, row by row, in place;
        returns values."""
        for _, _, slots, _, starts, Gp in self.blocks:
            C, Z = self.C[slots], values[slots]
            t = np.add.reduceat(C * Z[:, None], starts, axis=0)  # C_i^T z_i
            Z -= self._spread(C, starts, np.einsum("rkl,rl->rk", Gp, t))
        return values

    def min_norm_solution(self, B_f):
        """Smallest-Euclidean-norm slot values with W B_c = B_f: a row whose
        pattern cannot represent its target exactly (fewer slots than
        constraints, or locally dependent candidate rows) gets the
        minimum-norm least-squares value; an empty row whose target
        exceeds 1e-12 relative to max|B_f| (or 1) is an error."""
        values = np.zeros(self.pattern.nnz)
        scale = np.abs(B_f).max() if B_f.size else 0.0
        for _, _, slots, rows, starts, Gp in self.blocks:
            s = np.einsum("rkl,rl->rk", Gp, B_f[rows])
            values[slots] = self._spread(self.C[slots], starts, s)
        for i in self.pattern.empty_f_rows:
            if np.abs(B_f[i]).max() > 1e-12 * max(scale, 1.0):
                raise ValueError(f"pattern row {int(i)} is empty but its "
                                 f"constraint target is nonzero")
        return values


@dataclass
class WeightedSystem:
    """The pattern-restricted weighted operator, right-hand side and
    Hadamard diagonal preconditioner.  cand_scale is None at tau = 1,
    where the candidate term vanishes.

    rows, the row constraints W B_c = B_f, owns the row blocks of the
    slot space and its candidate rows B_c[cols]: both routes start from
    its minimum-norm solution, the constrained one projects on it, and
    the operator forms both terms in its blocks.  product_layout holds
    one entry per block: None before the block's first product, then
    the (indptr, indices) of its last product, the position of each of
    the block's slots in that product's data (-1 where it stores none)
    and the slots it misses.  Minimization hands Bhat over to the CG,
    which frees it once the initial residual exists; then it is None.
    """

    tau: float
    A_ff: sparse.csr_matrix
    B_f: np.ndarray
    B_c: np.ndarray
    pattern: SparsityPattern
    Bhat: np.ndarray          # slot values
    Dprec: np.ndarray         # slot values
    cand_scale: np.ndarray    # c2 (1 - tau) X_ff[slot_rows]
    rows: _RowConstraints
    product_layout: list = field(init=False)

    def __post_init__(self):
        self.product_layout = [None] * len(self.rows.blocks)


def _row_blocks(indptr, limit):
    """Bounds of consecutive row blocks owning at most `limit` slots each,
    a row with more slots being a block alone."""
    bounds = [0]
    while bounds[-1] < len(indptr) - 1:
        lo = bounds[-1]
        hi = int(np.searchsorted(indptr, int(indptr[lo]) + limit, side="right")) - 1
        bounds.append(max(hi, lo + 1))
    return bounds


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
    check_real("tau", tau, 0.0, 1.0)
    A_ff, A_fc = split.f_blocks(A)
    B_f, B_c = B.split_rows(split)
    slot_rows, cols = pattern.slot_rows, pattern.cols
    rows = _RowConstraints(B_c, pattern)

    denom = tau * A_ff.diagonal()[slot_rows]
    bhat = -tau * _slot_values(A_fc, slot_rows, cols)
    del A_fc
    cand_scale = None
    if tau < 1.0:
        x_diag, c2 = X.diagonal(A_ff), X.c2
        bc_sq = np.einsum("jk,jk->j", B_c, B_c)  # (B_c B_c^T)_jj
        denom = denom + c2 * (1.0 - tau) * bc_sq[cols] * x_diag[slot_rows]
        cand_scale = c2 * (1.0 - tau) * x_diag[slot_rows]
        bhat = bhat + cand_scale * np.einsum("ik,ik->i", B_f[slot_rows], rows.C)
    if np.any(~np.isfinite(denom)) or np.any(denom <= 0.0):
        bad = int(np.flatnonzero(~np.isfinite(denom) | (denom <= 0.0))[0])
        raise ValueError(
            f"degenerate weight: preconditioner denominator is not positive at "
            f"pattern slot {bad} (row {int(slot_rows[bad])}, col {int(cols[bad])})")
    np.divide(1.0, denom, out=denom)
    return WeightedSystem(tau, A_ff, B_f, B_c, pattern, bhat, denom, cand_scale, rows)


def _product_slot_values(sys, block, S, out):
    """Slot values of the product S = A_ff[lo:hi] W of row block `block`
    of sys.rows, written to out, the block's slots.

    SpGEMM orders each output row by the structure of A_ff and the
    pattern alone and drops only entries that sum to exactly zero, so
    products with equal indptr and indices store the same entries in the
    same places.  The slots are located once in each layout that differs
    from the block's last one, the first included, and every product
    reads them as a gather; with no duplicates and no zeros stored, it
    reads what sampling would: the stored entry, or 0 where none is.
    """
    pat = sys.pattern
    lo, _, slots = sys.rows.blocks[block][:3]
    layout = sys.product_layout[block]
    if (layout is None or not np.array_equal(S.indptr, layout[0])
            or not np.array_equal(S.indices, layout[1])):
        # entry k of S is numbered k + 1, so a slot S misses reads 0
        numbers = sparse.csr_matrix((np.arange(1, S.nnz + 1, dtype=S.indices.dtype),
                                     S.indices, S.indptr), shape=S.shape)
        found = _slot_values(numbers, pat.slot_rows[slots] - lo, pat.cols[slots])
        found -= 1
        layout = sys.product_layout[block] = (S.indptr, S.indices, found,
                                              np.flatnonzero(found < 0))
    if S.nnz:  # an empty product misses every slot
        np.take(S.data, layout[2], out=out)
    out[layout[3]] = 0.0


def apply_weighted_operator(sys, values):
    """Apply Lhat to pattern slot values:
    (tau A_ff W + c2 (1 - tau) X_ff W B_c B_c^T) restricted to the pattern.

    Both terms are formed in the row blocks of sys.rows, so only one
    block's product A_ff[lo:hi] W and candidate-term temporaries are
    held at a time; V = W B_c (nf x n_b) is formed once."""
    pat, rows, tau, A_ff = sys.pattern, sys.rows, sys.tau, sys.A_ff
    W = pat.to_csr(values)
    out = np.zeros(pat.nnz) if tau == 0.0 else np.empty(pat.nnz)
    V = W @ sys.B_c if tau < 1.0 else None             # (nf, n_b)
    for block, (lo, hi, slots, *_) in enumerate(rows.blocks):
        part = out[slots]
        if tau > 0.0:
            a, b = A_ff.indptr[lo], A_ff.indptr[hi]
            A_rows = sparse.csr_matrix((A_ff.data[a:b], A_ff.indices[a:b],
                                        A_ff.indptr[lo:hi + 1] - a),
                                       shape=(hi - lo, A_ff.shape[1]))
            _product_slot_values(sys, block, A_rows @ W, part)
            if tau != 1.0:
                part *= tau
        if V is not None:
            part += sys.cand_scale[slots] * np.einsum(
                "ik,ik->i", V[pat.slot_rows[slots]], rows.C[slots])
    return out


def pcg_frobenius(apply, b, x0, diag, max_iters, tol, project=None, callback=None):
    """Preconditioned CG on apply(x) = b over pattern slot values.

    The preconditioner is the Hadamard product with `diag`.  When
    `project` is given (an orthogonal projection onto a subspace of slot
    values, applied in place to its argument, which it returns), the
    residual is projected and so are the preconditioned residual and
    every operator image, so the iterates stay on x0 + subspace.  Stops when the preconditioned residual norm
    sqrt(r . z) falls below tol relative to its initial value, or after
    max_iters iterations; the iteration budget is the primary control
    since the residual does not predict the quality of the resulting AMG
    interpolation.  A projected residual carries round-off of what the
    projection removed, so x0 is returned as it is, and CG stops, once
    sqrt(r . z) falls to 1e-13 of the removed part's preconditioned
    norm, whatever tol: steps on round-off would take their length from
    round-off curvature and move x by garbage.

    x, r and p are updated in place, and each step's operator image,
    once spent, is its work buffer; x0 and b are not modified.  Returns
    (x, residual_history); history starts with the initial residual
    norm.  `callback(x)` gets a copy of every updated iterate.
    """
    x = x0.copy()
    del x0  # a start passed as a temporary dies here
    r = apply(x)
    np.subtract(b, r, out=r)
    del b  # and so does a right-hand side
    if project is None:
        def project(v):
            return v
        floor = 0.0  # nothing is removed
    else:
        r_full, r = r, project(r.copy())
        r_full -= r  # the part of the residual that the projection removed
        floor = 1e-13 * np.sqrt(abs(float(r_full @ (diag * r_full))))
        del r_full
    z = project(diag * r)
    rz = float(r @ z)
    history = [np.sqrt(max(rz, 0.0))]
    if history[0] <= floor:
        return x, history
    p, z = z, None
    target = max(tol * history[0], floor)
    for k in range(max_iters):
        Lp = project(apply(p))
        pLp = float(p @ Lp)
        if not np.isfinite(pLp) or pLp <= 0.0:
            raise RuntimeError(f"energy-minimization CG breakdown at iteration {k}: "
                               f"curvature {pLp}")
        alpha = rz / pLp
        Lp *= alpha
        r -= Lp
        work = Lp  # the operator image is spent; its buffer is the work buffer
        x += np.multiply(alpha, p, out=work)
        z = project(np.multiply(diag, r, out=work))
        del Lp, work
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise RuntimeError(f"energy-minimization CG breakdown at iteration {k}: "
                               f"non-finite residual")
        history.append(np.sqrt(max(rz_new, 0.0)))
        if callback is not None:
            callback(x.copy())
        if history[-1] <= target:
            break
        p *= rz_new / rz
        p += z
        z = None
        rz = rz_new
    return x, history


def initial_guess(split, B, pattern):
    """The feasible start both routes use: spread each F row's
    constraint target over the row's pattern entries with minimum
    Euclidean norm.  The routes read it from their system's row
    constraints (WeightedSystem.rows) inside _minimize; this name stays
    because the benchmark's span tracer (perfbench/spans.py) binds it
    and fails without it."""
    B_f, B_c = B.split_rows(split)
    return _RowConstraints(B_c, pattern).min_norm_solution(B_f)


@dataclass
class Interpolation:
    """An assembled interpolation operator and the weight block W it
    came from (CSR on the pattern, explicit zeros kept)."""

    W: sparse.csr_matrix
    P: sparse.csr_matrix
    residuals: list


def _hand_over_rhs(sys):
    """sys.Bhat, which sys then no longer holds: passed as a temporary,
    it dies once pcg_frobenius has the initial residual."""
    bhat, sys.Bhat = sys.Bhat, None
    return bhat


def _minimize(sys, iters, tol, diag, constrained, callback=None):
    """Minimize the system's quadratic by pcg_frobenius from the feasible
    start, on W B_c = B_f when constrained; returns (w, history).  The
    right-hand side and the start are passed as temporaries:
    pcg_frobenius frees them once the initial residual exists."""
    return pcg_frobenius(partial(apply_weighted_operator, sys), _hand_over_rhs(sys),
                         sys.rows.min_norm_solution(sys.B_f), diag, iters, tol,
                         project=sys.rows.project if constrained else None,
                         callback=callback)


def _interpolation(split, pattern, w, history):
    W = pattern.to_csr(w)
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
    w, history = _minimize(sys, iters, tol, sys.Dprec, constrained=True,
                           callback=callback)
    del sys  # its arrays are not needed to assemble P
    return _interpolation(split, pattern, w, history)


def weighted_energymin(A, split, B, X, tau, pattern, iters, tol=1e-10,
                       use_preconditioner=True):
    """Weighted route end to end: build the system, start from the
    constraint-spreading initial guess, run PCG, assemble P."""
    sys = build_weighted_system(A, split, B, X, tau, pattern)
    diag = sys.Dprec if use_preconditioner else np.ones(pattern.nnz)
    w, history = _minimize(sys, iters, tol, diag, constrained=False)
    del sys, diag
    return _interpolation(split, pattern, w, history)


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
