import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from tracemin_amg import energymin
from tracemin_amg.coarsening import BlockSplit, SparsityPattern, cf_split, \
    pattern_distance_k, strength_graph
from tracemin_amg.energymin import (CandidateSet, _slot_values, apply_weighted_operator,
                                    assemble_P, build_weighted_system,
                                    constrained_energymin, initial_guess,
                                    pcg_frobenius, prepare_candidates,
                                    quadratic_value, weighted_energymin)
from tracemin_amg.linalg import PatternMatrix, csr_from_triplets
from tracemin_amg.problems import ProblemSpec, assemble
from tracemin_amg.relaxation import SpectralEquivalence


def lap1d(n):
    trips = [(i, i, 2.0) for i in range(n)]
    trips += [(i, i + 1, -1.0) for i in range(n - 1)]
    trips += [(i + 1, i, -1.0) for i in range(n - 1)]
    return csr_from_triplets(trips, n, n)


def rand_spd_sparse(rng, n, density=0.3):
    G = rng.standard_normal((n, n))
    G[rng.random((n, n)) > density] = 0.0
    A = G @ G.T + n * np.eye(n)
    return sparse.csr_matrix(A)


def random_pattern(rng, nf, nc, fill=0.5):
    """Random pattern with at least one entry per row."""
    pairs = set()
    for i in range(nf):
        cols = np.flatnonzero(rng.random(nc) < fill)
        if len(cols) == 0:
            cols = [int(rng.integers(nc))]
        pairs.update((i, int(j)) for j in cols)
    rows = np.array(sorted(pairs))
    indptr = np.zeros(nf + 1, dtype=np.int64)
    np.add.at(indptr[1:], rows[:, 0], 1)
    return SparsityPattern(nf, nc, np.cumsum(indptr), rows[:, 1].astype(np.int64),
                           0, np.array([], dtype=np.int64))


def random_instance(rng, n, n_b=1, tau=0.5, fill=0.5):
    A = rand_spd_sparse(rng, n)
    perm = rng.permutation(n)
    nc = max(1, n // 3)
    split = BlockSplit.from_c_points(n, np.sort(perm[:nc]))
    pattern = random_pattern(rng, split.n_f, split.n_c, fill)
    B = prepare_candidates(A, rng.standard_normal((n, n_b)))
    sys = build_weighted_system(A, split, B, SpectralEquivalence(), tau, pattern)
    return A, split, pattern, B, sys


def dense_operator_and_rhs(sys):
    """Vectorized oracle: the restricted operator as a dense matrix on
    column-major vec(W), with unit diagonal outside the pattern."""
    nf, nc = sys.pattern.nf, sys.pattern.nc
    N = nf * nc
    A_ff = sys.A_ff.toarray()
    L = sys.tau * np.kron(np.eye(nc), A_ff) \
        + sys.c2 * (1.0 - sys.tau) * np.kron(sys.BcBcT, np.diag(sys.X_ff_diag))
    inside = np.zeros(N, dtype=bool)
    inside[sys.pattern.cols * nf + sys.slot_rows] = True
    L[~inside, :] = 0.0
    L[:, ~inside] = 0.0
    L[~inside, ~inside] = 1.0
    b = np.zeros(N)
    b[sys.pattern.cols * nf + sys.slot_rows] = sys.Bhat.values
    return L, b, inside


def vec_to_values(sys, w_vec):
    return w_vec[sys.pattern.cols * sys.pattern.nf + sys.slot_rows]


# ---------------- candidates ----------------

def test_prepare_single_constant_vector():
    A = lap1d(6)
    B = prepare_candidates(A, np.ones(6))
    v = B.vectors[:, 0]
    assert_allclose(v @ (A @ v), 1.0, rtol=1e-12)
    assert np.all(v > 0)  # a scaled copy


def test_prepare_rejects_duplicate_vectors():
    A = lap1d(6)
    raw = np.column_stack([np.ones(6), np.ones(6)])
    with pytest.raises(ValueError):
        prepare_candidates(A, raw)


def test_prepare_gram_matrix_identity():
    rng = np.random.default_rng(0)
    A = rand_spd_sparse(rng, 20)
    B = prepare_candidates(A, rng.standard_normal((20, 3)))
    V = B.vectors
    gram = V.T @ (A @ V)
    assert_allclose(gram, np.eye(3), atol=1e-10)


# ---------------- weighted system ----------------

def test_weight_collapse_tau_one():
    rng = np.random.default_rng(1)
    A, split, pattern, B, sys = random_instance(rng, 15, tau=1.0)
    A_ff, A_fc, _, _ = split.blocks(A)
    W = PatternMatrix((pattern.nf, pattern.nc), pattern.indptr, pattern.cols,
                      rng.standard_normal(pattern.nnz))
    # Lhat W = (A_ff W) on the pattern
    expected = (A_ff.toarray() @ W.to_dense())[sys.slot_rows, pattern.cols]
    assert_allclose(apply_weighted_operator(sys, W.values), expected, rtol=1e-12, atol=1e-12)
    # Bhat = -A_fc on the pattern
    assert_allclose(sys.Bhat.values, -A_fc.toarray()[sys.slot_rows, pattern.cols],
                    rtol=1e-14, atol=1e-14)
    # Dprec = 1 / diag(A_ff) per row
    assert_allclose(sys.Dprec.values, 1.0 / A_ff.diagonal()[sys.slot_rows], rtol=1e-14)


def test_weight_collapse_tau_zero_identity_x():
    rng = np.random.default_rng(2)
    n = 12
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, np.arange(0, n, 3))
    pattern = random_pattern(rng, split.n_f, split.n_c)
    B = prepare_candidates(A, rng.standard_normal(n))
    X = SpectralEquivalence(x_kind="identity")
    sys = build_weighted_system(A, split, B, X, 0.0, pattern)
    W = PatternMatrix((pattern.nf, pattern.nc), pattern.indptr, pattern.cols,
                      rng.standard_normal(pattern.nnz))
    expected = (W.to_dense() @ sys.BcBcT)[sys.slot_rows, pattern.cols]
    assert_allclose(apply_weighted_operator(sys, W.values), expected, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_operator_self_adjoint_and_positive(tau):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(8, 20))
        A, split, pattern, B, sys = random_instance(rng, n, n_b=2, tau=tau)
        w = rng.standard_normal(pattern.nnz)
        z = rng.standard_normal(pattern.nnz)
        Lw = apply_weighted_operator(sys, w)
        Lz = apply_weighted_operator(sys, z)
        norm = np.linalg.norm(w) * np.linalg.norm(z)
        assert abs(np.dot(Lw, z) - np.dot(w, Lz)) <= 1e-12 * norm
        assert np.dot(Lw, w) > 0.0


def test_degenerate_weight_error():
    # tau = 0 with a candidate vanishing at one C point: zero denominator
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    pattern = pattern_distance_k(strength_graph(A, 0.25), split, 1)
    v = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    B = CandidateSet(prepare_candidates(A, v).vectors)
    with pytest.raises(ValueError, match="degenerate"):
        build_weighted_system(A, split, B, SpectralEquivalence(), 0.0, pattern)


# ---------------- PCG ----------------

def test_pcg_zero_rhs_zero_iterations():
    rng = np.random.default_rng(4)
    A, split, pattern, B, sys = random_instance(rng, 12, tau=1.0)
    sys.Bhat.values[:] = 0.0
    W0 = sys.template()
    W, history = pcg_frobenius(sys, W0, 50, 1e-12)
    assert history == [0.0]
    assert np.all(W.values == 0.0)


def test_pcg_full_pattern_tau_one_gives_ideal_weights():
    rng = np.random.default_rng(5)
    n = 15
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, np.arange(0, n, 3))
    full = random_pattern(rng, split.n_f, split.n_c, fill=1.1)
    B = prepare_candidates(A, np.ones(n))
    sys = build_weighted_system(A, split, B, SpectralEquivalence(), 1.0, full)
    W, _ = pcg_frobenius(sys, sys.template(), 500, 1e-14)
    A_ff, A_fc, _, _ = split.blocks(A)
    ideal = -np.linalg.solve(A_ff.toarray(), A_fc.toarray())
    assert_allclose(W.to_dense(), ideal, rtol=1e-8, atol=1e-10)


def test_pcg_matches_vectorized_dense_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(15, 30))
        tau = float(rng.choice([1.0, 0.5, 0.05]))
        A, split, pattern, B, sys = random_instance(rng, n, n_b=2, tau=tau)
        L, b, inside = dense_operator_and_rhs(sys)
        expected = vec_to_values(sys, np.linalg.solve(L, b))
        W, _ = pcg_frobenius(sys, sys.template(), 4 * pattern.nnz, 1e-14)
        assert np.linalg.norm(W.values - expected) <= 1e-8 * max(np.linalg.norm(expected), 1.0)


def test_pcg_unique_solution_from_any_start():
    rng = np.random.default_rng(7)
    A, split, pattern, B, sys = random_instance(rng, 18, tau=0.5)
    W0a = sys.template()
    W0b = sys.template().with_values(rng.standard_normal(pattern.nnz))
    Wa, _ = pcg_frobenius(sys, W0a, 4 * pattern.nnz, 1e-14)
    Wb, _ = pcg_frobenius(sys, W0b, 4 * pattern.nnz, 1e-14)
    assert np.linalg.norm(Wa.values - Wb.values) <= 1e-8 * np.linalg.norm(Wa.values)


def test_pcg_quadratic_monotone():
    rng = np.random.default_rng(8)
    A, split, pattern, B, sys = random_instance(rng, 20, tau=0.5)
    values = []
    pcg_frobenius(sys, sys.template(), 30, 0.0,
                  callback=lambda W: values.append(quadratic_value(sys, W.values)))
    values = np.asarray(values)
    assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1]) + 1e-13)


def test_pcg_preconditioner_neutral_for_constant_diagonal():
    # tau=1 and A_ff = alpha I: Dprec is constant, so PCG == CG
    rng = np.random.default_rng(9)
    n = 12
    dense = 3.0 * np.eye(n)
    c_points = np.arange(0, n, 2)
    f_points = np.setdiff1d(np.arange(n), c_points)
    dense[np.ix_(f_points, c_points)] = rng.standard_normal((len(f_points), len(c_points)))
    dense[np.ix_(c_points, f_points)] = dense[np.ix_(f_points, c_points)].T
    A = sparse.csr_matrix(dense)
    split = BlockSplit.from_c_points(n, c_points)
    pattern = random_pattern(rng, split.n_f, split.n_c)
    B = prepare_candidates(A, np.ones(n))
    sys = build_weighted_system(A, split, B, SpectralEquivalence(), 1.0, pattern)
    snaps_pre, snaps_raw = [], []
    W0 = sys.template()
    pcg_frobenius(sys, W0, 6, 0.0, use_preconditioner=True,
                  callback=lambda W: snaps_pre.append(W.values.copy()))
    pcg_frobenius(sys, W0, 6, 0.0, use_preconditioner=False,
                  callback=lambda W: snaps_raw.append(W.values.copy()))
    for a, b in zip(snaps_pre, snaps_raw):
        assert_allclose(a, b, rtol=1e-13, atol=1e-13)


def test_weight_limit_consistency():
    rng = np.random.default_rng(10)
    n = 14
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, np.arange(0, n, 2))
    full = random_pattern(rng, split.n_f, split.n_c, fill=1.1)
    B = prepare_candidates(A, np.ones(n))
    X = SpectralEquivalence()
    # tau -> 1: ideal weights
    sys = build_weighted_system(A, split, B, X, 1.0 - 1e-12, full)
    W, _ = pcg_frobenius(sys, initial_guess(split, B, full), 500, 1e-14)
    A_ff, A_fc, _, _ = split.blocks(A)
    ideal = -np.linalg.solve(A_ff.toarray(), A_fc.toarray())
    assert np.abs(W.to_dense() - ideal).max() <= 1e-5
    # tau -> 0: the candidate constraint holds on every row
    sys0 = build_weighted_system(A, split, B, X, 1e-12, full)
    W0, _ = pcg_frobenius(sys0, initial_guess(split, B, full), 200, 1e-13)
    B_f, B_c = B.split_rows(split)
    assert np.abs(W0.to_dense() @ B_c - B_f).max() <= 1e-6


# ---------------- initial guess ----------------

def test_initial_guess_minimal_norm_split():
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    pattern = pattern_distance_k(strength_graph(A, 0.25), split, 1)
    B = prepare_candidates(A, np.ones(5))
    W0 = initial_guess(split, B, pattern)
    # constant candidate: each 2-entry row splits its target evenly
    assert_allclose(W0.to_dense() @ B.split_rows(split)[1], B.split_rows(split)[0],
                    atol=1e-14)
    row = W0.values[:2]
    assert_allclose(row[0], row[1], rtol=1e-13)


def test_initial_guess_single_entry_row():
    A = lap1d(4)
    split = BlockSplit.from_c_points(4, [0, 1, 3])  # F = {2}
    pattern = SparsityPattern(1, 3, np.array([0, 1]), np.array([2]), 1,
                              np.array([], dtype=np.int64))
    B = prepare_candidates(A, np.arange(1.0, 5.0))
    W0 = initial_guess(split, B, pattern)
    B_f, B_c = B.split_rows(split)
    assert_allclose(W0.values[0] * B_c[2, 0], B_f[0, 0], rtol=1e-13)


def test_initial_guess_matches_lstsq_oracle():
    rng = np.random.default_rng(11)
    n = 10
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, [0, 3, 5, 8])
    # first F row has three pattern entries, the rest a full row each
    indptr = np.array([0, 3, 7, 11, 15, 19, 23])
    cols = np.concatenate([[0, 1, 3], np.tile(np.arange(4), 5)])
    pattern = SparsityPattern(split.n_f, 4, indptr, cols, 1,
                              np.array([], dtype=np.int64))
    B = prepare_candidates(A, rng.standard_normal((n, 2)))
    B_f, B_c = B.split_rows(split)
    W0 = initial_guess(split, B, pattern)
    C = B_c[[0, 1, 3]]                       # (3, 2)
    expected, *_ = np.linalg.lstsq(C.T, B_f[0], rcond=None)
    assert_allclose(W0.values[:3], expected, rtol=1e-12, atol=1e-12)


def test_initial_guess_infeasible_empty_row():
    A = lap1d(4)
    split = BlockSplit.from_c_points(4, [0, 3])
    pattern = SparsityPattern(2, 2, np.array([0, 1, 1]), np.array([0]), 1,
                              np.array([1], dtype=np.int64))
    B = prepare_candidates(A, np.ones(4))
    with pytest.raises(ValueError, match="empty"):
        initial_guess(split, B, pattern)


# ---------------- constrained minimization ----------------

def test_constrained_unit_row_sums_every_iterate():
    rng = np.random.default_rng(12)
    n = 16
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, np.arange(0, n, 2))
    pattern = random_pattern(rng, split.n_f, split.n_c, fill=0.7)
    B = prepare_candidates(A, np.ones(n))
    B_f, B_c = B.split_rows(split)
    seen = []
    constrained_energymin(A, split, B, pattern, 12, tol=0.0,
                          callback=lambda W: seen.append(W.to_dense() @ B_c - B_f))
    assert len(seen) > 0
    for violation in seen:
        assert np.abs(violation).max() <= 1e-12 * np.abs(B_f).max()


def kkt_oracle(A, split, B, pattern):
    """Dense equality-constrained quadratic program over vec(W)."""
    A_ff, A_fc, _, _ = split.blocks(A)
    nf, nc = pattern.nf, pattern.nc
    B_f, B_c = B.split_rows(split)
    n_b = B_f.shape[1]
    L = np.kron(np.eye(nc), A_ff.toarray())
    g = A_fc.toarray().reshape(-1, order="F")
    C = np.kron(B_c, np.eye(nf))       # vec(W B_c) = C vec(W)
    rhs_c = B_f.reshape(-1, order="F")
    N = nf * nc
    kkt = np.block([[L, C], [C.T, np.zeros((nf * n_b, nf * n_b))]])
    rhs = np.concatenate([-g, rhs_c])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:N].reshape((nf, nc), order="F")


def test_constrained_matches_kkt_oracle_full_pattern():
    rng = np.random.default_rng(13)
    n = 12
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, np.arange(0, n, 3))
    full = random_pattern(rng, split.n_f, split.n_c, fill=1.1)
    B = prepare_candidates(A, rng.standard_normal(n))
    interp = constrained_energymin(A, split, B, full, 600, tol=1e-15)
    expected = kkt_oracle(A, split, B, full)
    assert np.abs(interp.W.to_dense() - expected).max() <= 1e-8 * np.abs(expected).max()


def test_constrained_laplacian_half_half():
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    pattern = pattern_distance_k(strength_graph(A, 0.25), split, 1)
    B = prepare_candidates(A, np.ones(5))
    interp = constrained_energymin(A, split, B, pattern, 10, tol=0.0)
    assert_allclose(interp.W.values, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    # these are the ideal weights here (A_ff diagonal)
    A_ff, A_fc, _, _ = split.blocks(A)
    ideal = -np.linalg.solve(A_ff.toarray(), A_fc.toarray())
    assert_allclose(interp.W.to_dense(), ideal, atol=1e-12)


def test_weighted_route_end_to_end():
    rng = np.random.default_rng(14)
    A, split, pattern, B, _ = random_instance(rng, 18, tau=0.5)
    interp = weighted_energymin(A, split, B, SpectralEquivalence(), 0.5, pattern,
                                iters=40, tol=1e-12)
    assert interp.P.shape == (18, split.n_c)
    assert len(interp.residuals) >= 2


# ---------------- assembly ----------------

def test_assemble_P_all_coarse_is_identity():
    split = BlockSplit.from_c_points(4, [0, 1, 2, 3])
    W = PatternMatrix((0, 4), np.zeros(1, dtype=np.int64),
                      np.array([], dtype=np.int64))
    P = assemble_P(W, split)
    assert_allclose(P.toarray(), np.eye(4))


def test_assemble_P_propagates_constant():
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    pattern = pattern_distance_k(strength_graph(A, 0.25), split, 1)
    B = prepare_candidates(A, np.ones(5))
    interp = constrained_energymin(A, split, B, pattern, 5, tol=0.0)
    assert_allclose(interp.P @ np.ones(3), np.ones(5), atol=1e-12)


def test_assemble_P_matches_dense_permutation_oracle():
    rng = np.random.default_rng(15)
    n = 11
    split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:4]))
    pattern = random_pattern(rng, split.n_f, split.n_c)
    W = PatternMatrix((split.n_f, split.n_c), pattern.indptr, pattern.cols,
                      rng.standard_normal(pattern.nnz))
    P = assemble_P(W, split).toarray()
    expected = np.zeros((n, split.n_c))
    expected[split.f_points] = W.to_dense()
    expected[split.c_points] = np.eye(split.n_c)
    assert_allclose(P, expected)


def test_assemble_P_shape_mismatch():
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    W = PatternMatrix((3, 2), np.array([0, 1, 1, 2]), np.array([0, 1]))
    with pytest.raises(ValueError):
        assemble_P(W, split)


# ---------------- pattern-slot extraction ----------------

def reference_values_at(S, rows, cols):
    """The sort-and-searchsorted extraction: sort S's rows, key every
    stored entry by row * ncols + col and look the slots up globally."""
    S = S.tocsr()
    S.sort_indices()
    ncols = S.shape[1]
    s_rows = np.repeat(np.arange(S.shape[0], dtype=np.int64), np.diff(S.indptr))
    s_keys = s_rows * ncols + S.indices
    keys = np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64)
    pos = np.searchsorted(s_keys, keys)
    out = np.zeros(len(keys))
    inside = pos < len(s_keys)
    hit = inside.copy()
    hit[inside] = s_keys[pos[inside]] == keys[inside]
    out[hit] = S.data[pos[hit]]
    return out


def test_slot_values_of_unsorted_product_match_sorted_lookup():
    rng = np.random.default_rng(11)
    nf, nc = 40, 15
    A_ff = sparse.random(nf, nf, density=0.2, random_state=5, format="csr") \
        + sparse.identity(nf, format="csr")
    # row 0 is 1 at column 1 and -1 at column 2: with W rows 1 and 2
    # equal, every product entry of row 0 sums to an exact zero
    A_ff = A_ff.tolil()
    A_ff[0, :] = 0.0
    A_ff[0, 1], A_ff[0, 2] = 1.0, -1.0
    A_ff = A_ff.tocsr()
    pattern = random_pattern(rng, nf, nc, fill=0.3)
    values = rng.standard_normal(pattern.nnz)
    W = sparse.csr_matrix((values, pattern.cols, pattern.indptr), shape=(nf, nc)).toarray()
    W[2] = W[1]
    W = sparse.csr_matrix(W)
    S = A_ff @ W
    assert not S.has_sorted_indices
    slot_rows = np.repeat(np.arange(nf, dtype=np.int64), np.diff(pattern.indptr))
    out = _slot_values(S, slot_rows, pattern.cols)
    expected = reference_values_at(S.copy(), slot_rows, pattern.cols)
    assert np.array_equal(out, expected)
    stored = set(zip(*S.nonzero()))
    slots = list(zip(slot_rows.tolist(), pattern.cols.tolist()))
    hit = np.array([slot in stored for slot in slots])
    assert len(stored - set(slots)) > 0  # entries off the pattern
    assert not hit[slot_rows == 0].any()  # row 0's exact-zero sums are not stored
    assert np.all(out[~hit] == 0.0) and np.all(out[hit] != 0.0)


def reference_weighted_apply(sys, values):
    """Lhat on the pattern by the sorted extraction, with the candidate
    term's constants recomputed on every apply."""
    pat = sys.pattern
    out = np.zeros(pat.nnz)
    W = sparse.csr_matrix((values, pat.cols, pat.indptr), shape=(pat.nf, pat.nc))
    if sys.tau > 0.0:
        out += sys.tau * reference_values_at(sys.A_ff @ W, sys.slot_rows, pat.cols)
    if sys.tau < 1.0:
        vb = np.einsum("ik,ik->i", (W @ sys.B_c)[sys.slot_rows], sys.B_c[pat.cols])
        out += sys.c2 * (1.0 - sys.tau) * sys.X_ff_diag[sys.slot_rows] * vb
    return out


@pytest.mark.parametrize("tau", [0.0, 1e-4, 0.5, 1.0])
def test_weighted_apply_and_rhs_bit_identical_to_sorted_extraction(tau):
    rng = np.random.default_rng(12)
    for _ in range(10):
        A, split, pattern, B, _ = random_instance(rng, int(rng.integers(10, 40)),
                                                  n_b=2, tau=tau, fill=0.3)
        # c2 != 1 so that the order of the candidate term's products shows
        X = SpectralEquivalence(c2=1.7)
        sys = build_weighted_system(A, split, B, X, tau, pattern)
        w = rng.standard_normal(pattern.nnz)
        assert np.array_equal(apply_weighted_operator(sys, w),
                              reference_weighted_apply(sys, w))
        B_f, B_c = B.split_rows(split)
        _, A_fc, _, _ = split.blocks(A)
        bhat = -tau * reference_values_at(A_fc, sys.slot_rows, pattern.cols)
        if tau < 1.0:
            bf_bc = np.einsum("ik,ik->i", B_f[sys.slot_rows], B_c[pattern.cols])
            bhat = bhat + sys.c2 * (1.0 - tau) * sys.X_ff_diag[sys.slot_rows] * bf_bc
        assert np.array_equal(sys.Bhat.values, bhat)


@pytest.mark.parametrize("mode", ["constrained", "weighted"])
def test_energymin_routes_bit_identical_to_sorted_extraction(mode, monkeypatch):
    A = assemble(ProblemSpec("rotated_anisotropic", 24, epsilon=1e-3)).matrix
    S = strength_graph(A, 0.4)
    split = cf_split(S)
    pattern = pattern_distance_k(S, split, 3)
    B = prepare_candidates(A, np.ones(A.shape[0]))

    def run():
        if mode == "constrained":
            return constrained_energymin(A, split, B, pattern, 6)
        return weighted_energymin(A, split, B, SpectralEquivalence(), 1e-4,
                                  pattern, 6, tol=0.0)

    got = run()
    monkeypatch.setattr(energymin, "_slot_values", reference_values_at)
    expected = run()
    assert len(got.residuals) == 7
    assert np.array_equal(got.residuals, expected.residuals)
    assert np.array_equal(got.W.values, expected.W.values)
