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
from functools import cached_property, partial

import numpy as np
from scipy import sparse

from . import kernels
from .coarsening import SparsityPattern
from .linalg import check_positive_diagonal, row_blocks
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


SINGULAR_RTOL = 1e-6  # prepare_candidates' singularity and dependence threshold


def prepare_candidates(A, raw):
    """A-orthonormalize raw candidate vectors by modified Gram-Schmidt.

    Raises ValueError when A has a non-positive diagonal entry, when raw
    fails candidate_block, when A is singular on a candidate v of unit
    2-norm, say a Neumann operator on the constant (||v||_A not above
    SINGULAR_RTOL sqrt(max_i a_ii), which tops the round-off
    m sqrt(u max_i a_ii) of a null vector, m the longest row and
    u = 2^-53), or when a later one depends on the earlier ones
    (A-orthogonalization leaves at most SINGULAR_RTOL of it).
    """
    diag = A.diagonal()
    check_positive_diagonal(diag)
    raw = candidate_block(raw, A.shape[0])
    cols = []
    for k in range(raw.shape[1]):
        v = raw[:, k].copy()
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise ValueError(f"candidate {k} is zero")
        v /= nv
        a_norm = np.sqrt(max(v @ (A @ v), 0.0))
        floor = SINGULAR_RTOL * np.sqrt(diag.max())
        if not a_norm > floor:
            raise ValueError(f"A is singular on candidate {k}: its A-norm is {a_norm:.3e} "
                             f"times its 2-norm, not above {SINGULAR_RTOL:g} sqrt(max a_ii) "
                             f"= {floor:.3e}, and setup needs a positive definite A")
        floor = SINGULAR_RTOL * a_norm
        for _ in range(2):  # re-orthogonalize for robustness
            for u in cols:
                v -= (u @ (A @ v)) * u
        a_norm = np.sqrt(max(v @ (A @ v), 0.0)) if cols else a_norm
        if not a_norm > floor:
            raise ValueError(f"candidate {k} is dependent on earlier candidates "
                             f"in the A-inner product")
        cols.append(v / a_norm)
    return CandidateSet(np.column_stack(cols))


def _slot_values(S, slot_rows, cols):
    """Values of the CSR matrix S at the pattern slots (slot_rows, cols),
    as a 1-D array of S's dtype, 0 where S stores nothing.  CSR sampling
    reads each slot from its row of S (scanning it, or bisecting when S
    is canonical), so S may be an unsorted SpGEMM product with entries
    off the pattern; a slot outside S raises IndexError."""
    if len(slot_rows) == 0:  # SciPy returns an empty sparse matrix here
        return np.zeros(0, S.dtype)
    return np.asarray(S[slot_rows, cols]).ravel()


# _RowConstraints' row sums, the candidate term of apply_weighted_operator
# and the Python path's A_ff W are formed in blocks of consecutive rows that
# own at most this many pattern slots (a longer row is a block alone)
PRODUCT_BLOCK_SLOTS = 2**14


def _row_sums(local, n_rows, terms):
    """Each of n_rows rows' sum of its slots' terms (one leading index per
    slot, local the slots' rows), from 0.0 in slot order as np.bincount
    adds, one component at a time; 0.0 for a row without slots."""
    flat = terms.reshape(len(terms), np.prod(terms.shape[1:], dtype=int))
    sums = np.empty((n_rows, flat.shape[1]))
    for k in range(flat.shape[1]):
        sums[:, k] = np.bincount(local, weights=flat[:, k], minlength=n_rows)
    return sums.reshape((n_rows,) + terms.shape[1:])


class _RowConstraints:
    """Per-row machinery for the conditions W B_c = B_f, and the one
    blocking of the slot space.

    Each F row i couples only the entries of its own pattern row, so the
    constraint decouples: C_i^T w_i = b_i with C_i = B_c[pattern cols of
    row i].  No candidate row per slot is held: candidate_rows gathers
    B_c[cols] for one row block when it is needed.  Every sum over a
    row's slots runs from 0.0 in slot order, on both paths, taken in the
    row blocks of apply_weighted_operator's candidate term, so no
    temporary outgrows a block.  A block is its bounds (lo, hi) of F
    rows, owning at most the PRODUCT_BLOCK_SLOTS of construction time;
    blocks forms them on its first read, which the compiled one-candidate
    path never makes.

    gram_pinv, shape (nf, n_b, n_b), holds the pseudo-inverse of the Gram
    matrix C_i^T C_i of every F row i, 0 for an empty row.  With one
    candidate the Gram matrix is the scalar g = sum c^2 and its
    pseudo-inverse is 1/g, or 0 where g == 0 (pinv's cutoff); only
    n_b >= 2 needs pinv's batched SVD.  pinv returns the same bits for
    1e-138 < g < 1e138; beyond that LAPACK rescales the matrix and its
    result may miss the correctly rounded 1/g by up to two ulps.

    With one candidate and int32 indices the compiled row loops
    (kernels.row_gram_inverse, row_project, row_min_norm, and
    kernels.cg_update through pcg_frobenius) read the same gram_pinv and
    run where they can; the NumPy passes over the row blocks are their bit
    reference and the path for n_b >= 2.  Called on slot values, the
    object projects them (project).
    """

    def __init__(self, B_c, pattern):
        self.pattern, self.B_c, self.block_limit = pattern, B_c, PRODUCT_BLOCK_SLOTS
        n_b = B_c.shape[1]
        self.gram_pinv = np.zeros((pattern.nf, n_b, n_b))
        if self.operands is not None and kernels.row_gram_inverse(*self.operands) is not None:
            return
        for lo, hi in self.blocks:
            slots, local = self.block_slots(lo, hi)
            C = self.candidate_rows(slots)
            G = _row_sums(local, hi - lo, C[:, :, None] * C[:, None, :])
            if n_b == 1:
                np.divide(1.0, G, out=self.gram_pinv[lo:hi], where=G != 0.0)
            else:
                self.gram_pinv[lo:hi] = np.linalg.pinv(G)

    @cached_property
    def blocks(self):
        """The row blocks' bounds (lo, hi), each block owning at most
        block_limit slots."""
        bounds = row_blocks(self.pattern.indptr, self.block_limit)
        return list(zip(bounds[:-1], bounds[1:]))

    def block_slots(self, lo, hi):
        """(slots, local): the slot range of rows lo..hi - 1, and the row
        of each of its slots counted from lo."""
        slots = slice(int(self.pattern.indptr[lo]), int(self.pattern.indptr[hi]))
        return slots, self.pattern.slot_rows[slots] - lo

    @property
    def operands(self):
        """(pattern, b_c, ginv), the one-candidate kernels' view of the
        constraints, ginv a view of gram_pinv; None for n_b >= 2."""
        if self.B_c.shape[1] != 1:
            return None
        return self.pattern, self.B_c[:, 0], self.gram_pinv.reshape(-1)

    def candidate_rows(self, slots):
        """B_c[cols] at a range of slots: one candidate row per slot."""
        return self.B_c[self.pattern.cols[slots]]

    def project(self, values):
        """Project slot values onto {Z : Z B_c = 0}, row by row, in place;
        returns values."""
        if self.operands is not None and kernels.row_project(*self.operands,
                                                             values) is not None:
            return values
        for lo, hi in self.blocks:
            slots, local = self.block_slots(lo, hi)
            C, Z = self.candidate_rows(slots), values[slots]
            t = _row_sums(local, hi - lo, C * Z[:, None])  # C_i^T z_i
            s = np.einsum("rkl,rl->rk", self.gram_pinv[lo:hi], t)[local]
            Z -= np.einsum("sk,sk->s", C, s)  # C_i s_i at row i's slots
        return values

    __call__ = project

    def min_norm_solution(self, B_f):
        """Smallest-Euclidean-norm slot values with W B_c = B_f: a row whose
        pattern cannot represent its target exactly (fewer slots than
        constraints, or locally dependent candidate rows) gets the
        minimum-norm least-squares value; an empty row whose target
        exceeds 1e-12 relative to max|B_f| (or 1) is an error."""
        values = np.zeros(self.pattern.nnz)
        if self.operands is None or kernels.row_min_norm(
                *self.operands, np.ascontiguousarray(B_f[:, 0]), values) is None:
            for lo, hi in self.blocks:
                slots, local = self.block_slots(lo, hi)
                s = np.einsum("rkl,rl->rk", self.gram_pinv[lo:hi], B_f[lo:hi])[local]
                values[slots] = np.einsum("sk,sk->s", self.candidate_rows(slots), s)
        scale = np.abs(B_f).max() if B_f.size else 0.0
        for i in self.pattern.empty_f_rows:
            if np.abs(B_f[i]).max() > 1e-12 * max(scale, 1.0):
                raise ValueError(f"pattern row {int(i)} is empty but its "
                                 f"constraint target is nonzero")
        return values


@dataclass
class WeightedSystem:
    """The pattern-restricted weighted operator, right-hand side and
    Hadamard diagonal preconditioner.  cand_scale is None at tau = 1,
    where the candidate term vanishes.  Dprec is the preconditioner's
    diagonal, the entry-wise inverse diagonal of Lhat, one value per slot.

    rows, the row constraints W B_c = B_f, owns the row blocks of the
    slot space and gathers the candidate rows B_c[cols] of one block at
    a time: both routes start from its minimum-norm solution, the
    constrained one projects on it, and the operator's candidate term
    (and the Python path's A_ff W) is formed in its blocks.  Minimization
    hands Bhat over to the CG, which frees it once the initial residual
    exists; then it is None.
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

    d_ff = A_ff.diagonal()
    denom = d_ff[slot_rows]
    bhat = -tau * _slot_values(A_fc, slot_rows, cols)
    del A_fc
    cand_scale = None
    if tau < 1.0:
        x_s, c2 = X.diagonal(d_ff)[slot_rows], X.c2  # X_ff at each slot's row
        bc_sq = np.einsum("jk,jk->j", B_c, B_c)  # (B_c B_c^T)_jj
        denom *= tau
        denom += c2 * (1.0 - tau) * bc_sq[cols] * x_s
        cand_scale = c2 * (1.0 - tau) * x_s
        bhat = bhat + cand_scale * np.einsum("ik,ik->i", B_f[slot_rows], B_c[cols])
    degenerate = ~np.isfinite(denom) | (denom <= 0.0)
    if degenerate.any():
        bad = int(np.flatnonzero(degenerate)[0])
        raise ValueError(
            f"degenerate weight: preconditioner denominator is not positive at "
            f"pattern slot {bad} (row {int(slot_rows[bad])}, col {int(cols[bad])})")
    np.divide(1.0, denom, out=denom)
    return WeightedSystem(tau, A_ff, B_f, B_c, pattern, bhat, denom, cand_scale, rows)


def apply_weighted_operator(sys, values):
    """Apply Lhat to pattern slot values:
    (tau A_ff W + c2 (1 - tau) X_ff W B_c B_c^T) restricted to the pattern.

    Where the kernel can run, one kernels.masked_product call over all
    slots forms tau A_ff W, summing each slot as SpGEMM does and forming
    no product, and with one candidate the candidate term too.  Otherwise
    each row block of sys.rows forms and samples A_ff[lo:hi] W at its
    slots, the kernel's bit reference.  The candidate term of several
    candidates, and of the Python path, is formed block by block, with
    V = W B_c (nf x n_b) formed once, so only one block's temporaries are
    held at a time."""
    pat, rows, tau, A_ff = sys.pattern, sys.rows, sys.tau, sys.A_ff
    out = np.zeros(pat.nnz) if tau == 0.0 else np.empty(pat.nnz)
    one = sys.cand_scale is not None and sys.B_c.shape[1] == 1
    candidate = (sys.cand_scale, sys.B_c[:, 0]) if one else ()
    compiled = kernels.masked_product(A_ff, pat, values, out, tau, *candidate) is not None
    if compiled and (one or tau == 1.0):
        return out
    W = pat.to_csr(values)
    V = W @ sys.B_c if tau < 1.0 else None             # (nf, n_b)
    for lo, hi in rows.blocks:
        slots, local = rows.block_slots(lo, hi)
        part = out[slots]
        if not compiled and tau > 0.0:
            a, b = A_ff.indptr[lo], A_ff.indptr[hi]
            A_rows = sparse.csr_matrix((A_ff.data[a:b], A_ff.indices[a:b],
                                        A_ff.indptr[lo:hi + 1] - a),
                                       shape=(hi - lo, A_ff.shape[1]))
            part[:] = _slot_values(A_rows @ W, local, pat.cols[slots])
            if tau < 1.0:
                part *= tau
        if V is not None:
            part += sys.cand_scale[slots] * np.einsum(
                "ik,ik->i", V[pat.slot_rows[slots]], rows.candidate_rows(slots))
    return out


def pcg_frobenius(apply, b, x0, diag, max_iters, project=None, callback=None):
    """Preconditioned CG on apply(x) = b over pattern slot values.

    The preconditioner is the Hadamard product with `diag`.  When
    `project` is given (an orthogonal projection onto a subspace of slot
    values, applied in place to its argument, which it returns), the
    residual is projected and so are the preconditioned residual and
    every operator image, so the iterates stay on x0 + subspace.  There is
    no tolerance: CG runs max_iters iterations, the budget being the
    control since the residual does not predict the quality of the AMG
    interpolation, and stops early only at round-off.  The residual
    carries round-off of b, or when projected of the part the projection
    removed, so x0 is returned as it is, and CG stops, once the
    preconditioned residual norm sqrt(r . z) falls to 1e-13 of that
    source's preconditioned norm: steps on round-off would take their
    length from round-off curvature and move x by garbage.

    x, r and p are updated in place, p only when a step follows, and
    each step's operator image, once spent, is its work buffer; x0 and b
    are not modified.  A step's updates of r, x and z run in _cg_update,
    one compiled pass where project is None or the row constraints of one
    candidate (_minimize passes the system's _RowConstraints).  Returns
    (x, residual_history); history starts with the initial residual norm.
    `callback(x)` gets a copy of every updated iterate.
    """
    x = x0.copy()
    del x0  # a start passed as a temporary dies here
    r = apply(x)
    np.subtract(b, r, out=r)
    given = project
    if project is None:
        def project(v):
            return v
    else:
        b = r.copy()  # projected, the round-off comes from what is removed
        b -= project(r)
    z = np.multiply(diag, b)
    floor = 1e-13 * np.sqrt(abs(float(b @ z)))
    del b  # a right-hand side passed as a temporary dies here too
    z = project(np.multiply(diag, r, out=z))
    rz = float(r @ z)
    history = [np.sqrt(max(rz, 0.0))]
    p, z = z, None
    for k in range(max_iters):
        if history[-1] <= floor:
            break
        if k:  # the last step's z turns p into this step's direction
            p *= rz_new / rz
            p += z
            z = None
            rz = rz_new
        Lp = project(apply(p))
        pLp = float(p @ Lp)
        if not np.isfinite(pLp) or pLp <= 0.0:
            raise RuntimeError(f"energy-minimization CG breakdown at iteration {k}: "
                               f"curvature {pLp}")
        # the operator image is spent once r is updated: z takes its buffer
        z = _cg_update(rz / pLp, p, Lp, x, r, diag, given)
        del Lp
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise RuntimeError(f"energy-minimization CG breakdown at iteration {k}: "
                               f"non-finite residual")
        history.append(np.sqrt(max(rz_new, 0.0)))
        if callback is not None:
            callback(x.copy())
    return x, history


def _cg_update(alpha, p, Lp, x, r, diag, project):
    """pcg_frobenius' updates of one step, in place: r -= alpha Lp, x +=
    alpha p, then z = project(diag r) in Lp's buffer, which is returned.
    kernels.cg_update makes them one pass over the slots where no
    projection is given, or where it is the row constraints of one
    candidate, each row projected as soon as it is updated; the NumPy
    passes below are its bit reference, and the path of any other
    projection."""
    if project is None:
        constraints = ()
    elif isinstance(project, _RowConstraints) and project.operands is not None:
        constraints = project.operands
    else:
        constraints = None
    if constraints is not None and kernels.cg_update(alpha, p, Lp, x, r, diag,
                                                     *constraints) is not None:
        return Lp
    Lp *= alpha
    r -= Lp
    x += np.multiply(alpha, p, out=Lp)
    np.multiply(diag, r, out=Lp)
    return Lp if project is None else project(Lp)


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


def _minimize(sys, iters, diag, constrained, callback=None):
    """Minimize the system's quadratic by pcg_frobenius from the feasible
    start, on W B_c = B_f when constrained; returns (w, history).  No
    tolerance: iters CG iterations, fewer only at pcg_frobenius' round-off
    floor.  The right-hand side and the start are passed as temporaries,
    sys giving Bhat up, so pcg_frobenius frees them at the initial residual."""
    box, sys.Bhat = [sys.Bhat], None
    return pcg_frobenius(partial(apply_weighted_operator, sys), box.pop(),
                         sys.rows.min_norm_solution(sys.B_f), diag, iters,
                         project=sys.rows if constrained else None,
                         callback=callback)


def _interpolation(split, pattern, w, history):
    W = pattern.to_csr(w)
    return Interpolation(W, assemble_P(W, split), history)


def constrained_energymin(A, split, B, pattern, iters, callback=None):
    """Trace minimization with the candidate constraints enforced exactly.

    The weighted system at tau = 1, the column energy <A_ff W + A_fc, W>
    alone (equivalently tr(P^T A P) up to a constant), minimized over
    pattern matrices with W B_c = B_f: CG preconditioned by 1/diag(A_ff)
    at each slot's row, its directions projected row-wise onto
    {Z : Z B_c = 0}.  Every iterate satisfies the constraint to round-off
    wherever the pattern admits it; rows too short for the full
    constraint block hold their least-squares values.
    """
    sys = build_weighted_system(A, split, B, SpectralEquivalence(), 1.0, pattern)
    w, history = _minimize(sys, iters, sys.Dprec, constrained=True, callback=callback)
    del sys  # its arrays are not needed to assemble P
    return _interpolation(split, pattern, w, history)


def weighted_energymin(A, split, B, X, tau, pattern, iters, use_preconditioner):
    """Weighted route end to end: build the system, start from the
    constraint-spreading initial guess, run PCG for iters iterations (no
    tolerance; fewer only at pcg_frobenius' round-off floor), assemble P."""
    sys = build_weighted_system(A, split, B, X, tau, pattern)
    diag = sys.Dprec if use_preconditioner else np.ones(pattern.nnz)
    w, history = _minimize(sys, iters, diag, constrained=False)
    del sys, diag
    return _interpolation(split, pattern, w, history)


def assemble_P(W, split):
    """Assemble P from the CSR weight block W: C rows are unit vectors
    onto their coarse position, F rows carry W (explicit zeros kept),
    original ordering preserved; canonical CSR.

    The split's index arrays are sorted, so P's F rows hold W's rows in
    W's order, and C point c_j, with j C points and c_j - j F points
    before it, is one entry inserted before W's row c_j - j: P's arrays
    are W's with the C entries inserted, and its indptr comes from the
    row counts, with no per-entry row or column array."""
    nf, nc = W.shape
    if nf != split.n_f or nc != split.n_c:
        raise ValueError("weight block shape does not match the splitting")
    counts = np.ones(split.n, dtype=np.int64)
    counts[split.f_points] = np.diff(W.indptr)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    before = W.indptr[split.c_points - np.arange(nc)]
    P = sparse.csr_matrix((np.insert(W.data, before, 1.0),
                           np.insert(W.indices, before, np.arange(nc)), indptr),
                          shape=(split.n, nc))
    P.sort_indices()
    return P
