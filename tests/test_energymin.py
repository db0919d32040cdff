import copy
import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse

from sparse_helpers import (both_paths, dense_operator_and_rhs, lap1d, rand_spd,
                            rand_spd_sparse, random_pattern, vec_positions)
from tracemin_amg import energymin, hierarchy, linalg
from tracemin_amg.coarsening import BlockSplit, SparsityPattern, cf_split, \
    pattern_distance_k, strength_graph
from tracemin_amg.energymin import (CandidateSet, _RowConstraints, _slot_values,
                                    apply_weighted_operator, assemble_P,
                                    build_weighted_system, constrained_energymin,
                                    initial_guess, pcg_frobenius, prepare_candidates,
                                    weighted_energymin)
from tracemin_amg.problems import ProblemSpec, assemble
from tracemin_amg.relaxation import SpectralEquivalence
from tracemin_amg.sylvester import MatrixEquation, hadamard_diag_preconditioner


def random_instance(rng, n, n_b=1, tau=0.5, fill=0.5):
    A = rand_spd_sparse(rng, n)
    perm = rng.permutation(n)
    nc = max(1, n // 3)
    split = BlockSplit.from_c_points(n, np.sort(perm[:nc]))
    pattern = random_pattern(rng, split.n_f, split.n_c, fill)
    B = prepare_candidates(A, rng.standard_normal((n, n_b)))
    sys = build_weighted_system(A, split, B, SpectralEquivalence(), tau, pattern)
    return A, split, pattern, B, sys


def run_pcg(sys, w0, max_iters, use_preconditioner=True, callback=None):
    """pcg_frobenius on a weighted system, as weighted_energymin runs it."""
    diag = sys.Dprec if use_preconditioner else np.ones(sys.pattern.nnz)
    return pcg_frobenius(partial(apply_weighted_operator, sys), sys.Bhat, w0, diag,
                         max_iters, callback=callback)


def quadratic_value(sys, values):
    """The pattern-restricted quadratic 0.5 <Lhat W, W> - <W, Bhat>."""
    return 0.5 * float(values @ apply_weighted_operator(sys, values)) \
        - float(values @ sys.Bhat)


def vec_to_values(sys, w_vec):
    return w_vec[vec_positions(sys)]


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


def test_prepare_names_a_singular_operator():
    A = lap1d(6).tolil()
    A[0, 0] = A[5, 5] = 1.0  # Neumann ends: A annihilates the constant
    with pytest.raises(ValueError, match="A is singular on candidate 0"):
        prepare_candidates(A.tocsr(), np.ones(6))


def test_prepare_names_a_non_positive_diagonal_entry():
    """The diagonal is checked before any candidate is read, with the one
    message setup and strength_graph give, and so before sqrt(max a_ii)."""
    for diagonal, entry in (([2.0, -1.0], "-1 at row 1"), ([2.0, 0.0], "0 at row 1"),
                            ([-1.0, -1.0], "-1 at row 0")):
        with pytest.raises(ValueError, match=f"^non-positive diagonal entry: a_ii = {entry}$"):
            prepare_candidates(sparse.diags(diagonal).tocsr(), np.ones(2))


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
    A_ff, A_fc = split.f_blocks(A)
    w = rng.standard_normal(pattern.nnz)
    # Lhat W = (A_ff W) on the pattern
    expected = (A_ff.toarray() @ pattern.to_csr(w).toarray())[pattern.slot_rows,
                                                              pattern.cols]
    assert_allclose(apply_weighted_operator(sys, w), expected, rtol=1e-12, atol=1e-12)
    # Bhat = -A_fc on the pattern
    assert_allclose(sys.Bhat, -A_fc.toarray()[pattern.slot_rows, pattern.cols],
                    rtol=1e-14, atol=1e-14)
    # Dprec = 1 / diag(A_ff) at each slot's row, one value per slot
    assert np.array_equal(sys.Dprec, 1.0 / A_ff.diagonal()[pattern.slot_rows])


def test_weight_collapse_tau_zero_identity_x():
    rng = np.random.default_rng(2)
    n = 12
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, np.arange(0, n, 3))
    pattern = random_pattern(rng, split.n_f, split.n_c)
    B = prepare_candidates(A, rng.standard_normal(n))
    X = SpectralEquivalence(x_kind="identity")
    sys = build_weighted_system(A, split, B, X, 0.0, pattern)
    w = rng.standard_normal(pattern.nnz)
    W_dense = pattern.to_csr(w).toarray()
    expected = (W_dense @ (sys.B_c @ sys.B_c.T))[pattern.slot_rows, pattern.cols]
    assert_allclose(apply_weighted_operator(sys, w), expected, rtol=1e-12, atol=1e-13)


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
    sys.Bhat[:] = 0.0
    w, history = run_pcg(sys, np.zeros(pattern.nnz), 50)
    assert history == [0.0]
    assert np.all(w == 0.0)


def test_pcg_full_pattern_tau_one_gives_ideal_weights():
    rng = np.random.default_rng(5)
    n = 15
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, np.arange(0, n, 3))
    full = random_pattern(rng, split.n_f, split.n_c, fill=1.1)
    B = prepare_candidates(A, np.ones(n))
    sys = build_weighted_system(A, split, B, SpectralEquivalence(), 1.0, full)
    w, _ = run_pcg(sys, np.zeros(full.nnz), 500)
    A_ff, A_fc = split.f_blocks(A)
    ideal = -np.linalg.solve(A_ff.toarray(), A_fc.toarray())
    assert_allclose(full.to_csr(w).toarray(), ideal, rtol=1e-8, atol=1e-10)


def test_pcg_matches_vectorized_dense_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(15, 30))
        tau = float(rng.choice([1.0, 0.5, 0.05]))
        A, split, pattern, B, sys = random_instance(rng, n, n_b=2, tau=tau)
        L, b, inside = dense_operator_and_rhs(sys, SpectralEquivalence())
        expected = vec_to_values(sys, np.linalg.solve(L, b))
        w, _ = run_pcg(sys, np.zeros(pattern.nnz), 4 * pattern.nnz)
        assert np.linalg.norm(w - expected) <= 1e-8 * max(np.linalg.norm(expected), 1.0)


def test_pcg_unique_solution_from_any_start():
    rng = np.random.default_rng(7)
    A, split, pattern, B, sys = random_instance(rng, 18, tau=0.5)
    wa, _ = run_pcg(sys, np.zeros(pattern.nnz), 4 * pattern.nnz)
    wb, _ = run_pcg(sys, rng.standard_normal(pattern.nnz), 4 * pattern.nnz)
    assert np.linalg.norm(wa - wb) <= 1e-8 * np.linalg.norm(wa)


def test_pcg_quadratic_monotone():
    rng = np.random.default_rng(8)
    A, split, pattern, B, sys = random_instance(rng, 20, tau=0.5)
    values = []
    run_pcg(sys, np.zeros(pattern.nnz), 30,
            callback=lambda w: values.append(quadratic_value(sys, w)))
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
    w0 = np.zeros(pattern.nnz)
    run_pcg(sys, w0, 6, use_preconditioner=True, callback=snaps_pre.append)
    run_pcg(sys, w0, 6, use_preconditioner=False, callback=snaps_raw.append)
    for a, b in zip(snaps_pre, snaps_raw):
        assert_allclose(a, b, rtol=1e-13, atol=1e-13)


def test_pcg_without_projection_equals_an_identity_projection_bit_for_bit():
    """project=None, the weighted route, starts from the residual itself;
    an identity projection removes nothing, so only its round-off floor
    differs (0 against 1e-13 of Bhat's preconditioned norm), and with
    neither reached it must give the same iterates and history."""
    rng = np.random.default_rng(10)
    A, split, pattern, B, sys = random_instance(rng, 30, n_b=2, tau=1e-4)
    w0 = initial_guess(split, B, pattern)
    runs = []
    for project in (None, lambda v: v):
        iterates = []
        w, history = pcg_frobenius(partial(apply_weighted_operator, sys), sys.Bhat, w0,
                                   sys.Dprec, 12, project=project,
                                   callback=iterates.append)
        runs.append((w, history, iterates))
    (w, history, iterates), (w_id, history_id, iterates_id) = runs
    assert len(history) == 13
    assert history == history_id
    assert np.array_equal(w, w_id)
    assert all(np.array_equal(a, b) for a, b in zip(iterates, iterates_id, strict=True))


def test_pcg_without_projection_returns_an_exact_start_as_it_is():
    """Unprojected, the residual's round-off comes from b: a start that
    solves the system to round-off is returned unchanged, with a
    one-entry history."""
    rng = np.random.default_rng(12)
    M = rand_spd(rng, 20)
    b = rng.standard_normal(20)
    x0 = np.linalg.solve(M, b)
    assert np.any(b - M @ x0 != 0.0)  # round-off, not an exact zero
    x, history = pcg_frobenius(lambda v: M @ v, b, x0, 1.0 / np.diag(M), 10)
    assert len(history) == 1
    assert np.array_equal(x, x0)


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
    w, _ = run_pcg(sys, initial_guess(split, B, full), 500)
    A_ff, A_fc = split.f_blocks(A)
    ideal = -np.linalg.solve(A_ff.toarray(), A_fc.toarray())
    assert np.abs(full.to_csr(w).toarray() - ideal).max() <= 1e-5
    # tau -> 0: the candidate constraint holds on every row
    sys0 = build_weighted_system(A, split, B, X, 1e-12, full)
    w0, _ = run_pcg(sys0, initial_guess(split, B, full), 200)
    B_f, B_c = B.split_rows(split)
    assert np.abs(full.to_csr(w0) @ B_c - B_f).max() <= 1e-6


# ---------------- initial guess ----------------

def test_initial_guess_minimal_norm_split():
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    pattern = pattern_distance_k(strength_graph(A, 0.25), split, 1)
    B = prepare_candidates(A, np.ones(5))
    w0 = initial_guess(split, B, pattern)
    # constant candidate: each 2-entry row splits its target evenly
    assert_allclose(pattern.to_csr(w0) @ B.split_rows(split)[1], B.split_rows(split)[0],
                    atol=1e-14)
    row = w0[:2]
    assert_allclose(row[0], row[1], rtol=1e-13)


def test_initial_guess_single_entry_row():
    A = lap1d(4)
    split = BlockSplit.from_c_points(4, [0, 1, 3])  # F = {2}
    pattern = SparsityPattern(1, 3, np.array([0, 1]), np.array([2]))
    B = prepare_candidates(A, np.arange(1.0, 5.0))
    w0 = initial_guess(split, B, pattern)
    B_f, B_c = B.split_rows(split)
    assert_allclose(w0[0] * B_c[2, 0], B_f[0, 0], rtol=1e-13)


def test_initial_guess_matches_lstsq_oracle():
    rng = np.random.default_rng(11)
    n = 10
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, [0, 3, 5, 8])
    # first F row has three pattern entries, the rest a full row each
    indptr = np.array([0, 3, 7, 11, 15, 19, 23])
    cols = np.concatenate([[0, 1, 3], np.tile(np.arange(4), 5)])
    pattern = SparsityPattern(split.n_f, 4, indptr, cols)
    B = prepare_candidates(A, rng.standard_normal((n, 2)))
    B_f, B_c = B.split_rows(split)
    w0 = initial_guess(split, B, pattern)
    C = B_c[[0, 1, 3]]                       # (3, 2)
    expected, *_ = np.linalg.lstsq(C.T, B_f[0], rcond=None)
    assert_allclose(w0[:3], expected, rtol=1e-12, atol=1e-12)


def test_initial_guess_infeasible_empty_row():
    A = lap1d(4)
    split = BlockSplit.from_c_points(4, [0, 3])
    pattern = SparsityPattern(2, 2, np.array([0, 1, 1]), np.array([0]))
    assert np.array_equal(pattern.empty_f_rows, [1])
    B = prepare_candidates(A, np.ones(4))
    with pytest.raises(ValueError, match="empty"):
        initial_guess(split, B, pattern)


@st.composite
def single_candidate_constraints(draw):
    """A one-candidate constraint problem on a random pattern: candidate
    rows that are zero or span magnitudes 1e-100 to 1e100, pattern rows
    from empty to full (one-slot rows and rows whose candidate values
    all vanish, g = 0, included), targets and slot values."""
    nf, nc = draw(st.integers(1, 10)), draw(st.integers(1, 8))
    magnitude = st.builds(lambda m, e: m * 10.0 ** e,
                          st.sampled_from([-3.7, -1.0, 0.5, 2.0, 9.1]),
                          st.integers(-100, 99))
    B_c = np.array(draw(st.lists(st.one_of(st.just(0.0), magnitude),
                                 min_size=nc, max_size=nc)))[:, None]
    member = np.array(draw(st.lists(st.booleans(), min_size=nf * nc,
                                    max_size=nf * nc))).reshape(nf, nc)
    indptr = np.concatenate([[0], np.cumsum(member.sum(axis=1))]).astype(np.int64)
    pattern = SparsityPattern(nf, nc, indptr, np.nonzero(member)[1].astype(np.int64))
    B_f = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=nf, max_size=nf)))[:, None]
    B_f[pattern.empty_f_rows] = 0.0
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=pattern.nnz,
                                    max_size=pattern.nnz)))
    return B_c, pattern, B_f, values


# LAPACK's SVD rescales a matrix whose norm lies outside about
# [6.7e-139, 1.5e138], which adds two roundings: beyond that range pinv
# of the scalar g may miss the correctly rounded 1/g by up to two ulps
LAPACK_UNSCALED = (6.7e-139, 1.49e138)


@settings(max_examples=100, deadline=None)
@given(single_candidate_constraints())
def test_single_candidate_inverse_matches_pinv(case):
    B_c, pattern, B_f, values = case
    rows = _RowConstraints(B_c, pattern)
    g = np.zeros((pattern.nf, 1, 1))
    for i in range(pattern.nf):  # each row's sum from 0.0 in slot order
        for c in B_c[pattern.cols[pattern.indptr[i]:pattern.indptr[i + 1]], 0]:
            g[i] += c * c
    expected = np.linalg.pinv(g)
    Gp = rows.gram_pinv
    assert Gp.shape == expected.shape == (pattern.nf, 1, 1)
    assert np.array_equal(Gp, np.divide(1.0, g, out=np.zeros_like(g), where=g != 0.0))
    inside = (g == 0.0) | ((g >= LAPACK_UNSCALED[0]) & (g <= LAPACK_UNSCALED[1]))
    assert np.array_equal(Gp[inside], expected[inside])
    ulp = np.spacing(Gp[~inside])
    assert np.all(np.abs(Gp[~inside] - expected[~inside]) <= 2 * ulp)
    bounds = [0] + [hi for _, hi in rows.blocks]
    assert rows.blocks == list(zip(bounds[:-1], bounds[1:])) and bounds[-1] == pattern.nf
    if inside.all():
        by_pinv = copy.copy(rows)
        by_pinv.gram_pinv = expected  # read by the kernels and the NumPy pass alike
        assert np.array_equal(rows.project(values.copy()), by_pinv.project(values.copy()))
        assert np.array_equal(rows.min_norm_solution(B_f), by_pinv.min_norm_solution(B_f))


@st.composite
def row_constraints(draw):
    """A constraint problem with n_b in {1, 2, 3} on a random pattern with
    empty rows.  Candidate entries are small integers, so every Gram
    matrix is formed exactly and its nonzero eigenvalues stay far above
    pinv's cutoff; locally dependent and too-short rows occur."""
    nf, nc, n_b = draw(st.integers(1, 10)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    B_c = np.array(draw(st.lists(st.integers(-3, 3), min_size=nc * n_b,
                                 max_size=nc * n_b)), dtype=np.float64).reshape(nc, n_b)
    member = np.array(draw(st.lists(st.booleans(), min_size=nf * nc,
                                    max_size=nf * nc))).reshape(nf, nc)
    indptr = np.concatenate([[0], np.cumsum(member.sum(axis=1))]).astype(np.int32)
    pattern = SparsityPattern(nf, nc, indptr, np.nonzero(member)[1].astype(np.int32))
    B_f = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=nf * n_b,
                                 max_size=nf * n_b))).reshape(nf, n_b)
    B_f[pattern.empty_f_rows] = 0.0
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=pattern.nnz,
                                    max_size=pattern.nnz)))
    return B_c, pattern, B_f, values


@settings(max_examples=100, deadline=None)
@given(row_constraints(), st.integers(1, 6))
def test_row_sums_match_dense_rows_and_ignore_the_blocking(case, limit):
    """project and min_norm_solution equal a dense per-row oracle, pinv
    of each C_i, to round-off, and give the same bits in blocks of at
    most `limit` slots as in one block."""
    B_c, pattern, B_f, values = case
    projected, start = values.copy(), np.zeros(pattern.nnz)
    for i in range(pattern.nf):
        s = slice(pattern.indptr[i], pattern.indptr[i + 1])
        C_i = B_c[pattern.cols[s]]
        projected[s] -= C_i @ (np.linalg.pinv(C_i) @ values[s])
        start[s] = np.linalg.pinv(C_i.T) @ B_f[i]
    got = {}
    for slots in (pattern.nnz + 1, limit):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "ROW_BLOCK_ENTRIES", slots)
            rows = _RowConstraints(B_c, pattern)
            got[slots] = rows.project(values.copy()), rows.min_norm_solution(B_f)
        assert len(rows.blocks) <= 1 or slots == limit
    scale = max(np.abs(values).max(initial=1.0), np.abs(B_f).max(initial=1.0))
    assert_allclose(got[limit][0], projected, rtol=0, atol=1e-9 * scale)
    assert_allclose(got[limit][1], start, rtol=0, atol=1e-9 * scale)
    for a, b in zip(got[limit], got[pattern.nnz + 1]):
        assert np.array_equal(a, b)


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
    constrained_energymin(A, split, B, pattern, 12,
                          callback=lambda w: seen.append(pattern.to_csr(w) @ B_c - B_f))
    assert len(seen) > 0
    for violation in seen:
        assert np.abs(violation).max() <= 1e-12 * np.abs(B_f).max()


def kkt_oracle(A, split, B, pattern):
    """Dense equality-constrained quadratic program over vec(W)."""
    A_ff, A_fc = split.f_blocks(A)
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
    interp = constrained_energymin(A, split, B, full, 600)
    expected = kkt_oracle(A, split, B, full)
    assert np.abs(interp.W.toarray() - expected).max() <= 1e-8 * np.abs(expected).max()


def test_constrained_laplacian_half_half():
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    pattern = pattern_distance_k(strength_graph(A, 0.25), split, 1)
    B = prepare_candidates(A, np.ones(5))
    interp = constrained_energymin(A, split, B, pattern, 10)
    assert_allclose(interp.W.data, [0.5, 0.5, 0.5, 0.5], atol=1e-12)
    # these are the ideal weights here (A_ff diagonal)
    A_ff, A_fc = split.f_blocks(A)
    ideal = -np.linalg.solve(A_ff.toarray(), A_fc.toarray())
    assert_allclose(interp.W.toarray(), ideal, atol=1e-12)


def test_constrained_rejects_nonpositive_diagonal_naming_the_row():
    A = lap1d(5).tolil()
    A[3, 3] = 0.0  # F point 3 is F row 1
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    pattern = pattern_distance_k(strength_graph(lap1d(5), 0.25), split, 1)
    with pytest.raises(ValueError, match=r"not positive .*\(row 1, "):
        constrained_energymin(A.tocsr(), split, CandidateSet(np.ones((5, 1))), pattern, 5)


def test_weighted_route_end_to_end():
    rng = np.random.default_rng(14)
    A, split, pattern, B, _ = random_instance(rng, 18, tau=0.5)
    interp = weighted_energymin(A, split, B, SpectralEquivalence(), 0.5, pattern,
                                iters=40, use_preconditioner=True)
    assert interp.P.shape == (18, split.n_c)
    assert len(interp.residuals) >= 2


# ---------------- assembly ----------------

def test_assemble_P_all_coarse_is_identity():
    split = BlockSplit.from_c_points(4, [0, 1, 2, 3])
    P = assemble_P(sparse.csr_matrix((0, 4)), split)
    assert_allclose(P.toarray(), np.eye(4))


def test_assemble_P_propagates_constant():
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    pattern = pattern_distance_k(strength_graph(A, 0.25), split, 1)
    B = prepare_candidates(A, np.ones(5))
    interp = constrained_energymin(A, split, B, pattern, 5)
    assert_allclose(interp.P @ np.ones(3), np.ones(5), atol=1e-12)


def test_assemble_P_matches_dense_permutation_oracle():
    rng = np.random.default_rng(15)
    n = 11
    split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:4]))
    pattern = random_pattern(rng, split.n_f, split.n_c)
    W = pattern.to_csr(rng.standard_normal(pattern.nnz))
    P = assemble_P(W, split).toarray()
    expected = np.zeros((n, split.n_c))
    expected[split.f_points] = W.toarray()
    expected[split.c_points] = np.eye(split.n_c)
    assert_allclose(P, expected)


@pytest.mark.parametrize("degree", [2, 4])
def test_assemble_P_allocates_no_per_entry_index_arrays(degree):
    """Level 0 of rotated anisotropic n=64: besides P, assembly holds one
    bool per entry (np.insert's mask) and a few vectors per row, no COO
    row and column arrays (the COO route held 40 bytes per entry beyond
    P); W's explicit zeros stay, and P is canonical."""
    A = assemble(ProblemSpec("rotated_anisotropic", 64, epsilon=1e-3)).matrix
    S = strength_graph(A, 0.4)
    split = cf_split(S)
    pattern = pattern_distance_k(S, split, degree)
    values = np.random.default_rng(0).standard_normal(pattern.nnz)
    values[::7] = 0.0
    W = pattern.to_csr(values)
    tracemalloc.start()
    try:
        P = assemble_P(W, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= P.data.nbytes + P.indices.nbytes + P.indptr.nbytes + P.nnz + 32 * split.n
    assert P.has_canonical_format and P.nnz == W.nnz + split.n_c
    expected = np.zeros((split.n, split.n_c))
    expected[split.f_points] = W.toarray()
    expected[split.c_points] = np.eye(split.n_c)
    assert np.array_equal(P.toarray(), expected)


def test_assemble_P_shape_mismatch():
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    W = SparsityPattern(3, 2, np.array([0, 1, 1, 2]), np.array([0, 1])).to_csr(np.ones(2))
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
    slot_rows = pattern.slot_rows
    out = _slot_values(S, slot_rows, pattern.cols)
    expected = reference_values_at(S.copy(), slot_rows, pattern.cols)
    assert np.array_equal(out, expected)
    stored = set(zip(*S.nonzero()))
    slots = list(zip(slot_rows.tolist(), pattern.cols.tolist()))
    hit = np.array([slot in stored for slot in slots])
    assert len(stored - set(slots)) > 0  # entries off the pattern
    assert not hit[slot_rows == 0].any()  # row 0's exact-zero sums are not stored
    assert np.all(out[~hit] == 0.0) and np.all(out[hit] != 0.0)


def reference_weighted_apply(sys, values, X, x_diag=None):
    """Lhat on the pattern by the sorted extraction, with the candidate
    term's constants recomputed on every apply from X, the
    SpectralEquivalence the system was built with, and x_diag, X's
    diagonal of the A_ff it was built from (by default sys.A_ff)."""
    pat = sys.pattern
    out = np.zeros(pat.nnz)
    W = sparse.csr_matrix((values, pat.cols, pat.indptr), shape=(pat.nf, pat.nc))
    if sys.tau > 0.0:
        out += sys.tau * reference_values_at(sys.A_ff @ W, pat.slot_rows, pat.cols)
    if sys.tau < 1.0:
        vb = np.einsum("ik,ik->i", (W @ sys.B_c)[pat.slot_rows], sys.B_c[pat.cols])
        if x_diag is None:
            x_diag = X.diagonal(sys.A_ff.diagonal())
        out += X.c2 * (1.0 - sys.tau) * x_diag[pat.slot_rows] * vb
    return out


@pytest.mark.parametrize("n_b", [1, 2])
@pytest.mark.parametrize("x_kind", ["diag", "identity"])
@pytest.mark.parametrize("tau", [1e-4, 0.5, 1.0])
def test_preconditioner_is_the_matrix_equations_at_the_slots(tau, x_kind, n_b):
    """Lhat W = tau A_ff W I + c2 (1 - tau) X_ff W B_c B_c^T is a matrix
    equation restricted to the pattern, so Dprec is that equation's
    Hadamard diagonal preconditioner at the slots.  The two associate the
    candidate term's products differently, and BLAS may fuse the multiply
    and add of the Gram diagonal (B_c B_c^T)_jj: with u = eps / 2, each
    side's term is within 4u of the exact one, and the sum and the
    reciprocal add u each, so they lie within 12u = 6 eps (4 ulps is the
    most seen)."""
    rng = np.random.default_rng(36)
    X = SpectralEquivalence(x_kind=x_kind, c2=1.7)
    for _ in range(10):
        A, split, pattern, B, _ = random_instance(rng, int(rng.integers(10, 40)), n_b=n_b)
        sys = build_weighted_system(A, split, B, X, tau, pattern)
        A_ff, (nf, nc) = sys.A_ff.toarray(), pattern.shape
        X_ff = np.diag(np.diag(A_ff)) if x_kind == "diag" else np.eye(nf)
        eq = MatrixEquation(tau * A_ff, np.eye(nc), X.c2 * (1.0 - tau) * X_ff,
                            sys.B_c @ sys.B_c.T, np.zeros((nf, nc)))
        expected = hadamard_diag_preconditioner(eq)[pattern.slot_rows, pattern.cols]
        assert_allclose(sys.Dprec, expected, rtol=6 * np.finfo(float).eps, atol=0.0)


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
                              reference_weighted_apply(sys, w, X))
        B_f, B_c = B.split_rows(split)
        _, A_fc = split.f_blocks(A)
        bhat = -tau * reference_values_at(A_fc, pattern.slot_rows, pattern.cols)
        if tau < 1.0:
            bf_bc = np.einsum("ik,ik->i", B_f[pattern.slot_rows], B_c[pattern.cols])
            x_s = X.diagonal(sys.A_ff.diagonal())[pattern.slot_rows]
            bhat = bhat + X.c2 * (1.0 - tau) * x_s * bf_bc
        assert np.array_equal(sys.Bhat, bhat)


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
                                  pattern, 6, use_preconditioner=True)

    got = []
    for _, path in both_paths():
        with path:
            got.append(run())
    monkeypatch.setattr(energymin, "_slot_values", reference_values_at)
    monkeypatch.setattr(energymin, "apply_weighted_operator",
                        partial(reference_weighted_apply, X=SpectralEquivalence()))
    expected = run()
    for result in got:
        assert len(result.residuals) == 7
        assert np.array_equal(result.residuals, expected.residuals)
        assert np.array_equal(result.W.data, expected.W.data)


def exact_zero_system(rng, tau):
    """A weighted system whose A_ff row 0 is 1 at column 1 and -1 at
    column 2 and whose pattern rows 0, 1 and 2 share their columns: a W
    with equal rows 1 and 2 makes every product entry of row 0 an exact
    zero, which SpGEMM drops, so that product misses row 0's slots.
    The pattern's index arrays are int32, as the kernels read them.
    Returns the system and its reference apply."""
    A = rand_spd_sparse(rng, 60)
    split = BlockSplit.from_c_points(60, np.sort(rng.permutation(60)[:20]))
    rows = [np.flatnonzero(rng.random(split.n_c) < 0.3) for _ in range(split.n_f)]
    rows = [r if len(r) else np.array([i % split.n_c]) for i, r in enumerate(rows)]
    rows[0] = rows[2] = rows[1]
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int32)
    pattern = SparsityPattern(split.n_f, split.n_c, indptr,
                              np.concatenate(rows).astype(np.int32))
    B = prepare_candidates(A, rng.standard_normal((60, 2)))
    X = SpectralEquivalence(c2=1.7)
    sys = build_weighted_system(A, split, B, X, tau, pattern)
    reference = partial(reference_weighted_apply, X=X, x_diag=X.diagonal(sys.A_ff.diagonal()))
    A_ff = sys.A_ff.tolil()
    A_ff[0, :] = 0.0
    A_ff[0, 1], A_ff[0, 2] = 1.0, -1.0
    return dataclasses.replace(sys, A_ff=A_ff.tocsr()), reference


def products_sampled_per_apply(sys, compiled):
    """The products one apply samples: none where the kernel runs or at
    tau = 0, else one per row block."""
    return 0 if compiled or sys.tau == 0.0 else len(sys.rows.blocks)


@pytest.mark.parametrize("tau", [0.0, 1e-4, 1.0])
@pytest.mark.parametrize("steps", [
    ["generic", "generic", "equal-rows", "equal-rows", "generic", "generic"],
    ["equal-rows", "equal-rows", "equal-rows"],
    ["zero", "zero", "generic", "generic", "zero"],
    ["equal-rows", "generic", "generic", "generic"],
], ids=["drops-exact-zeros", "misses-a-slot", "empty", "changes-twice"])
def test_weighted_apply_bit_identical_as_layouts_change(steps, tau, monkeypatch):
    """Applies whose products change layout from step to step (exact-zero
    sums dropped, slots missed, an empty product) equal the sorted
    extraction on both paths; the compiled path samples no product, the
    Python path each block's product once per apply."""
    rng = np.random.default_rng(13)
    sys, reference = exact_zero_system(rng, tau)
    pat = sys.pattern
    row1, row2 = (slice(pat.indptr[i], pat.indptr[i + 1]) for i in (1, 2))
    calls = []  # per step, the dtype of each matrix sampled

    def counting(S, slot_rows, cols):
        calls[-1].append(S.dtype)
        return _slot_values(S, slot_rows, cols)

    monkeypatch.setattr(energymin, "_slot_values", counting)
    for compiled, path in both_paths():
        calls.clear()
        with path:
            for step in steps:
                w = np.zeros(pat.nnz) if step == "zero" else rng.standard_normal(pat.nnz)
                if step == "equal-rows":
                    w[row2] = w[row1]
                    assert (sys.A_ff @ pat.to_csr(w)).indptr[1] == 0  # row 0 stores nothing
                calls.append([])
                got = apply_weighted_operator(sys, w)
                assert np.array_equal(got, reference(sys, w))
        sampled = products_sampled_per_apply(sys, compiled)
        assert calls == [[np.float64] * sampled] * len(steps)


@pytest.mark.parametrize("mode, tau", [("constrained", 1.0), ("weighted", 0.0),
                                       ("weighted", 1e-4), ("weighted", 1.0)])
def test_every_apply_on_every_level_bit_identical_to_sorted_extraction(
        mode, tau, monkeypatch):
    """On both paths every apply of a setup equals the sampling oracle to
    the bit, and samples the products products_sampled_per_apply names."""
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3)).matrix
    sampled = []  # the count of the apply in progress, if any

    def counting(S, slot_rows, cols):
        if sampled:
            sampled[-1] += 1
        return _slot_values(S, slot_rows, cols)

    def checked(sys, values):
        sampled.append(0)
        got = apply_weighted_operator(sys, values)
        systems.append((sys, sampled.pop()))
        assert np.array_equal(got, reference_weighted_apply(sys, values,
                                                            SpectralEquivalence()))
        return got

    monkeypatch.setattr(energymin, "apply_weighted_operator", checked)
    for compiled, path in both_paths():
        systems = []
        with path, monkeypatch.context() as patch:
            patch.setattr(energymin, "_slot_values", counting)
            H = hierarchy.setup(A, hierarchy.SetupConfig(mode=mode, tau=tau,
                                                         pattern_degree=4))
        levels = list({id(sys): sys for sys, _ in systems}.values())
        assert len(levels) == H.n_levels - 1 >= 2
        # at tau = 0 the start's residual is round-off, so every level
        # stops at its start after the one apply that forms it
        if tau == 0.0:
            assert len(systems) == len(levels)
        else:
            assert len(systems) > 4 * len(levels)
        assert all(count == products_sampled_per_apply(sys, compiled)
                   for sys, count in systems)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=30), st.integers(1, 12))
def test_row_blocks_cover_the_rows_within_the_slot_limit(lengths, limit):
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "ROW_BLOCK_ENTRIES", limit)
        blocks = linalg.row_blocks(indptr)
    bounds = [0] + [hi for _, hi in blocks]
    assert blocks == list(zip(bounds[:-1], bounds[1:])) and bounds[-1] == len(lengths)
    for lo, hi in blocks:
        entries, local = linalg.block_entries(indptr, lo, hi)
        assert entries == slice(indptr[lo], indptr[hi])
        assert np.array_equal(local, np.repeat(np.arange(hi - lo), lengths[lo:hi]))
        assert hi > lo
        assert indptr[hi] - indptr[lo] <= limit or hi == lo + 1
        # greedy: the next row would not have fit
        assert hi == len(lengths) or indptr[hi + 1] - indptr[lo] > limit


@pytest.mark.parametrize("mode, tau", [("constrained", 1.0), ("weighted", 1e-4)])
def test_every_apply_in_small_row_blocks_bit_identical_to_one_block(mode, tau, monkeypatch):
    """With blocks of at most 64 slots, every apply on every level equals
    the apply that forms A_ff W at once, and the hierarchy, whose row
    projections run in groups of at most 64 slots too, equals the one
    built with the default block size."""
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3)).matrix
    cfg = hierarchy.SetupConfig(mode=mode, tau=tau, pattern_degree=4)
    default = hierarchy.setup(A, cfg)
    systems, built = [], {}

    def recorded(*args):
        sys = build_weighted_system(*args)
        built[id(sys)] = args
        return sys

    def checked(sys, values):
        got = apply_weighted_operator(sys, values)
        with monkeypatch.context() as one:
            one.setattr(linalg, "ROW_BLOCK_ENTRIES", sys.pattern.nnz)
            one_block = build_weighted_system(*built[id(sys)])
            assert one_block.rows.blocks == [(0, sys.pattern.nf)]
            assert np.array_equal(got, apply_weighted_operator(one_block, values))
        systems.append(sys)
        return got

    monkeypatch.setattr(linalg, "ROW_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(energymin, "build_weighted_system", recorded)
    monkeypatch.setattr(energymin, "apply_weighted_operator", checked)
    H = hierarchy.setup(A, cfg)
    levels = list({id(sys): sys for sys in systems}.values())
    assert len(levels) == H.n_levels - 1 >= 2
    assert all(len(sys.rows.blocks) > 2 for sys in levels)
    assert H.n_levels == default.n_levels
    for got, expected in zip(H.levels, default.levels):
        for name in ("A", "P"):
            M, E = getattr(got, name), getattr(expected, name)
            if E is not None:
                assert all(np.array_equal(getattr(M, k), getattr(E, k))
                           for k in ("indptr", "indices", "data"))


# one apply at aniso n=64, degree 2, in blocks of 256 slots, peaked at
# 1.35 slot vectors at tau 1e-4, 1.24 at tau 0 and 1.18 at tau 1, the
# output vector included; with the candidate term formed over every slot
# at once it peaked at 3.26 and 3.19 below tau 1
APPLY_PEAK_SLOT_VECTORS = 1.5


@pytest.mark.parametrize("tau", [0.0, 1e-4, 1.0])
def test_apply_holds_no_temporary_beyond_a_row_block(tau, monkeypatch):
    """One apply allocates its output and beyond it only W, V = W B_c
    and block-sized temporaries, on both paths."""
    monkeypatch.setattr(linalg, "ROW_BLOCK_ENTRIES", 256)
    A = assemble(ProblemSpec("rotated_anisotropic", 64, epsilon=1e-3)).matrix
    S = strength_graph(A, 0.4)
    split = cf_split(S)
    pattern = pattern_distance_k(S, split, 2)
    B = prepare_candidates(A, np.ones(A.shape[0]))
    sys = build_weighted_system(A, split, B, SpectralEquivalence(), tau, pattern)
    assert len(linalg.row_blocks(pattern.indptr)) > 50
    w = np.random.default_rng(0).standard_normal(pattern.nnz)
    for _, path in both_paths():
        with path:
            apply_weighted_operator(sys, w)  # the kernels are loaded before tracing
            tracemalloc.start()
            try:
                apply_weighted_operator(sys, w)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= APPLY_PEAK_SLOT_VECTORS * w.nbytes


@pytest.mark.parametrize("iters", [0, 1, 6])
@pytest.mark.parametrize("mode", ["constrained", "weighted"])
def test_level_zero_minimization_sampling_on_both_paths(mode, iters, monkeypatch):
    """One level-0 minimization samples A_fc's values for its right-hand
    side.  On the compiled path that is the one matrix it samples: no
    product A_ff W is formed.  The Python path samples the product of
    each of its iters + 1 applies (one row block here)."""
    A = assemble(ProblemSpec("rotated_anisotropic", 24, epsilon=1e-3)).matrix
    S = strength_graph(A, 0.4)
    split = cf_split(S)
    pattern = pattern_distance_k(S, split, 3)
    assert linalg.row_blocks(pattern.indptr) == [(0, split.n_f)]
    B = prepare_candidates(A, np.ones(A.shape[0]))
    calls = []

    def counting(*args):
        calls.append(args[0].dtype)
        return _slot_values(*args)

    monkeypatch.setattr(energymin, "_slot_values", counting)
    for compiled, path in both_paths():
        calls.clear()
        with path:
            if mode == "constrained":
                got = constrained_energymin(A, split, B, pattern, iters)
            else:
                got = weighted_energymin(A, split, B, SpectralEquivalence(), 1e-4, pattern,
                                         iters, use_preconditioner=True)
        assert len(got.residuals) == iters + 1
        assert calls == [np.float64] * (1 if compiled else iters + 2)


# ---------------- the shared CG loop ----------------

def reference_pcg_frobenius(sys, w0, max_iters, use_preconditioner=True):
    """Reference: a weighted-only preconditioned CG on slot values, with
    no projection; pcg_frobenius must reproduce it bit for bit.  Also
    returns the preconditioned norm of the right-hand side."""
    w = w0.copy()
    d = sys.Dprec if use_preconditioner else np.ones(len(w))
    bhat_norm = np.sqrt(abs(float(sys.Bhat @ (d * sys.Bhat))))
    r = sys.Bhat - apply_weighted_operator(sys, w)
    z = d * r
    rz = float(r @ z)
    history = [np.sqrt(max(rz, 0.0))]
    if history[0] == 0.0:
        return w, history, bhat_norm
    p = z.copy()
    for _ in range(max_iters):
        Lp = apply_weighted_operator(sys, p)
        pLp = float(p @ Lp)
        alpha = rz / pLp
        w += alpha * p
        r -= alpha * Lp
        z = d * r
        rz_new = float(r @ z)
        history.append(np.sqrt(max(rz_new, 0.0)))
        if history[-1] == 0.0:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new
    return w, history, bhat_norm


def reference_constrained_loop(A, split, B, pattern, iters):
    """Reference: a constrained-only projected CG on slot values that
    starts from the residual -(A_ff W0 + A_fc); pcg_frobenius, which
    starts from (-A_fc) - A_ff W0, must reproduce it bit for bit.  Also
    returns the preconditioned norm of what the projection removes from
    the initial residual."""
    A_ff, A_fc = split.f_blocks(A)
    B_f, B_c = B.split_rows(split)
    rows = _RowConstraints(B_c, pattern)
    slot_rows = np.repeat(np.arange(pattern.nf, dtype=np.int64), np.diff(pattern.indptr))
    dinv = 1.0 / A_ff.diagonal()[slot_rows]
    afc_vals = _slot_values(A_fc, slot_rows, pattern.cols)

    def energy_op(values):
        W = sparse.csr_matrix((values, pattern.cols, pattern.indptr),
                              shape=(pattern.nf, pattern.nc))
        return _slot_values(A_ff @ W, slot_rows, pattern.cols)

    w = rows.min_norm_solution(B_f)
    r_full = -(energy_op(w) + afc_vals)
    r = rows.project(r_full.copy())
    removed = r_full - r
    removed_norm = np.sqrt(abs(float(removed @ (dinv * removed))))
    z = rows.project(dinv * r)
    rz = float(r @ z)
    history = [np.sqrt(max(rz, 0.0))]
    if history[0] > 0.0:
        p = z.copy()
        for _ in range(iters):
            Lp = rows.project(energy_op(p))
            pLp = float(p @ Lp)
            alpha = rz / pLp
            w += alpha * p
            r -= alpha * Lp
            z = rows.project(dinv * r)
            rz_new = float(r @ z)
            history.append(np.sqrt(max(rz_new, 0.0)))
            if history[-1] == 0.0:
                break
            p = z + (rz_new / rz) * p
            rz = rz_new
    return w, history, removed_norm


def assert_route_matches_reference(mode, args, kwargs, got, round_off_stop=False):
    """W and the residual history of one route call, bit for bit, against
    the reference loop, which has no round-off stop.

    With round_off_stop, a call may stop before the reference does, but
    only at a residual within 1e-13 of the preconditioned norm of the
    round-off's source: what the projection removed (constrained) or the
    right-hand side (weighted); its history is then a prefix of the
    reference's, and W equals the reference's cut to the same steps."""
    steps = len(got.residuals) - 1
    if mode == "constrained":
        A, split, B, pattern, iters = args

        def reference(iters):
            return reference_constrained_loop(A, split, B, pattern, iters)
    else:
        A, split, B, X, tau, pattern, iters = args

        def reference(iters):
            sys = build_weighted_system(A, split, B, X, tau, pattern)
            return reference_pcg_frobenius(sys, initial_guess(split, B, pattern), iters,
                                           kwargs["use_preconditioner"])
    w, history, source_norm = reference(iters)
    if steps < len(history) - 1:
        assert round_off_stop
        assert got.residuals[-1] <= 1e-13 * source_norm
        w, _, _ = reference(steps)
    assert got.residuals == history[:steps + 1]
    assert np.array_equal(got.W.data, w)
    assert np.array_equal(got.W.indices, pattern.cols)


@pytest.mark.parametrize("mode", ["constrained", "weighted"])
def test_routes_bit_identical_to_reference_loops_on_every_level(mode, monkeypatch):
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3)).matrix
    route = f"{mode}_energymin"
    calls = []

    def recording(*args, **kwargs):
        got = getattr(energymin, route)(*args, **kwargs)
        calls.append((args, kwargs, got))
        return got

    monkeypatch.setattr(hierarchy, route, recording)
    H = hierarchy.setup(A, hierarchy.SetupConfig(mode=mode, pattern_degree=4))
    assert len(calls) == H.n_levels - 1 >= 3
    for args, kwargs, got in calls:
        assert_route_matches_reference(mode, args, kwargs, got)


@pytest.mark.parametrize("n_b", [1, 2, 3])
def test_routes_bit_identical_to_reference_loops_on_random_instances(n_b):
    rng = np.random.default_rng(20 + n_b)
    X = SpectralEquivalence(c2=1.3)
    short = stepped = early = 0
    for trial in range(8):
        # a sparse fill leaves rows with fewer slots than candidates
        A, split, pattern, B, _ = random_instance(rng, int(rng.integers(15, 30)),
                                                  n_b=n_b, fill=(0.3, 0.6)[trial % 2])
        short += np.any(np.diff(pattern.indptr) < n_b)
        iters = int(rng.integers(2, 12))
        if trial % 4 >= 2:  # CG exhausts its search space and stops at round-off
            iters = pattern.nnz + 1
        args = (A, split, B, pattern, iters)
        got = constrained_energymin(*args)
        assert_route_matches_reference("constrained", args, {}, got, round_off_stop=True)
        stepped += len(got.residuals) > 1
        early += 1 < len(got.residuals) < iters + 1
        tau = float(rng.choice([1e-4, 0.5, 1.0]))
        kwargs = {"use_preconditioner": trial % 3 != 0}
        args = (A, split, B, X, tau, pattern, iters)
        got = weighted_energymin(*args, **kwargs)
        assert_route_matches_reference("weighted", args, kwargs, got, round_off_stop=True)
        early += len(got.residuals) < iters + 1
    assert stepped >= 4 and early >= 2 and (short >= 2 or n_b == 1)


@st.composite
def small_energymin_problems(draw):
    """A small SPD matrix, a random CF split, a pattern with at least one
    slot per F row and n_b in {1, 2} random candidates."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(4, 14))
    n_b = draw(st.sampled_from([1, 2]))
    fill = draw(st.sampled_from([0.2, 0.5, 1.1]))
    rng = np.random.default_rng(seed)
    A = rand_spd_sparse(rng, n, density=draw(st.sampled_from([0.1, 0.3, 1.0])))
    nc = draw(st.integers(1, n - 1))
    split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:nc]))
    pattern = random_pattern(rng, split.n_f, split.n_c, fill)
    B = prepare_candidates(A, rng.standard_normal((n, n_b)))
    tau = draw(st.sampled_from([1e-4, 0.5, 1.0]))
    return A, split, pattern, B, tau


def assert_non_increasing(values):
    values = np.asarray(values)
    assert np.all(np.diff(values) <= 1e-12 * np.abs(values).max(initial=0.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_energymin_problems())
def test_shared_loop_decreases_objective_and_keeps_constraint(problem):
    """Both routes with a budget of one step per slot, which covers every
    search direction, so CG may run on to its round-off stop.  A row's
    minimum-norm solve goes through the Gram matrix C_i^T C_i, so the
    constraint holds to 1e-10 or to 100 eps cond(C_i)^2, whichever is
    larger.  Derandomized: about one random draw in 15000 with two
    candidates trips the defect that
    test_ill_conditioned_row_keeps_its_constraint shows."""
    A, split, pattern, B, tau = problem
    iters = pattern.nnz

    sys = build_weighted_system(A, split, B, SpectralEquivalence(), tau, pattern)
    values = []
    run_pcg(sys, initial_guess(split, B, pattern), iters,
            callback=lambda w: values.append(quadratic_value(sys, w)))
    assert_non_increasing(values)

    A_ff, A_fc = (M.toarray() for M in split.f_blocks(A))
    B_f, B_c = B.split_rows(split)
    n_b = B_c.shape[1]
    held, bound = [], []
    for i in range(pattern.nf):
        C = B_c[pattern.cols[pattern.indptr[i]:pattern.indptr[i + 1]]]
        if np.linalg.matrix_rank(C) == n_b:
            held.append(i)
            bound.append(max(1e-10, 100 * np.finfo(float).eps * np.linalg.cond(C) ** 2))
    bound = np.asarray(bound)[:, None] * np.abs(B_f).max()
    energies = []

    def check(w):
        W = pattern.to_csr(w).toarray()
        energies.append(0.5 * np.sum((A_ff @ W) * W) + np.sum(A_fc * W))
        assert np.all(np.abs(W[held] @ B_c - B_f[held]) <= bound)

    constrained_energymin(A, split, B, pattern, iters, callback=check)
    assert_non_increasing(energies)


def test_cg_stops_at_round_off_without_raising_the_objective():
    """Oscillatory K=1e6, level 0, degree 4, nine iterations: the projected
    residual is round-off after one step, and steps after it would
    raise the constrained objective."""
    A = assemble(ProblemSpec("oscillatory", 48, K=1e6)).matrix
    S = strength_graph(A, 0.4)
    split = cf_split(S)
    pattern = pattern_distance_k(S, split, 4)
    B = prepare_candidates(A, np.ones(A.shape[0]))
    A_ff, A_fc = split.f_blocks(A)
    afc_vals = _slot_values(A_fc, pattern.slot_rows, pattern.cols)
    energies = []

    def record(w):
        Ew = _slot_values(A_ff @ pattern.to_csr(w), pattern.slot_rows, pattern.cols)
        energies.append(0.5 * (w @ Ew) + afc_vals @ w)

    interp = constrained_energymin(A, split, B, pattern, 9, callback=record)
    assert len(interp.residuals) < 10
    assert_non_increasing(energies)


@pytest.mark.parametrize("spec", [ProblemSpec("rotated_anisotropic", 32, epsilon=1.0),
                                  ProblemSpec("oscillatory", 48, K=1e6)],
                         ids=["anisotropic", "oscillatory"])
def test_two_candidate_setup_at_zero_tolerance_completes(spec):
    """Constrained, the constant and a linear ramp, degree 1, nine
    iterations with no tolerance: level 1's residual reaches
    round-off after one step, and stepping on from there ended in a
    negative-curvature breakdown."""
    A = assemble(spec).matrix
    n = A.shape[0]
    candidates = np.column_stack([np.ones(n), np.linspace(0.0, 1.0, n)])
    H = hierarchy.setup(A, hierarchy.SetupConfig(pattern_degree=1, emin_iters=9,
                                                 candidates=candidates))
    assert H.n_levels == 4
    cf, _ = hierarchy.measure_convergence_factor(H)
    assert cf < 0.4


@pytest.mark.xfail(strict=True, reason="a row solved through pinv of C_i^T C_i keeps the "
                   "projection only to eps cond(C_i)^2, and CG steps on that round-off")
def test_ill_conditioned_row_keeps_its_constraint():
    """A draw of the shared-loop property: F row 0 has two slots for two
    candidates with cond(C_0) = 2.3e4, so the constraint fixes it, and
    row 1's one slot is fixed too.  The projected initial residual is
    the Gram solve's round-off, 7e-9, far above the 1e-13 round-off
    stop, and the one CG step breaks row 0's constraint by 0.13."""
    rng = np.random.default_rng(1470985453)
    A = rand_spd_sparse(rng, 6, density=0.3)
    split = BlockSplit.from_c_points(6, np.sort(rng.permutation(6)[:4]))
    pattern = random_pattern(rng, split.n_f, split.n_c, 0.2)
    B = prepare_candidates(A, rng.standard_normal((6, 2)))
    B_f, B_c = B.split_rows(split)
    C = B_c[pattern.cols[pattern.indptr[0]:pattern.indptr[1]]]
    bound = 100 * np.finfo(float).eps * np.linalg.cond(C) ** 2 * np.abs(B_f).max()
    interp = constrained_energymin(A, split, B, pattern, pattern.nnz)
    assert np.abs(interp.W.toarray()[0] @ B_c - B_f[0]).max() <= bound


def test_projected_start_at_round_off_takes_no_step():
    """Every F row holds exactly one slot for one candidate: the
    constraint fixes W, the search space is empty, and the projected
    residual is round-off."""
    rng = np.random.default_rng(60)
    n = 10
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, [0, 3, 6, 9])
    pattern = SparsityPattern(split.n_f, split.n_c, np.arange(split.n_f + 1),
                              rng.integers(0, split.n_c, split.n_f))
    B = prepare_candidates(A, rng.standard_normal(n))
    w0 = initial_guess(split, B, pattern)
    interp = constrained_energymin(A, split, B, pattern, 10)
    assert len(interp.residuals) == 1
    assert np.array_equal(interp.W.data, w0)
