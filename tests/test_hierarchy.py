import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import cho_solve

from sparse_helpers import csr_from_triplets, invalid_operators, lap1d, rand_spd_sparse
from tracemin_amg import hierarchy
from tracemin_amg.coarsening import strength_graph
from tracemin_amg.experiments import measure_report
from tracemin_amg.hierarchy import (SetupConfig, galerkin_product,
                                    measure_convergence_factor, setup, solve,
                                    vcycle)
from tracemin_amg.problems import ProblemSpec, assemble
from tracemin_amg.relaxation import symmetrized_mtilde
from tracemin_amg.theory import two_grid_error_norm


def poisson2d(n):
    return assemble(ProblemSpec("rotated_anisotropic", n, epsilon=1.0)).matrix


def test_galerkin_identity_interpolation():
    A = lap1d(5)
    P = sparse.identity(5, format="csr")
    assert_allclose(galerkin_product(P, A).toarray(), A.toarray())


def test_galerkin_all_ones_column():
    A = lap1d(4)
    P = sparse.csr_matrix(np.ones((4, 1)))
    Ac = galerkin_product(P, A)
    assert Ac.shape == (1, 1)
    assert_allclose(Ac[0, 0], A.toarray().sum())


def test_galerkin_matches_dense_oracle():
    rng = np.random.default_rng(0)
    n, nc = 20, 7
    dense_a = rng.standard_normal((n, n))
    dense_a = dense_a + dense_a.T
    dense_p = rng.standard_normal((n, nc))
    dense_p[rng.random((n, nc)) < 0.6] = 0.0
    A = sparse.csr_matrix(dense_a)
    P = sparse.csr_matrix(dense_p)
    expected = dense_p.T @ dense_a @ dense_p
    assert np.abs(galerkin_product(P, A).toarray() - expected).max() \
        <= 1e-12 * np.abs(expected).max()


def test_galerkin_shape_mismatch():
    with pytest.raises(ValueError):
        galerkin_product(sparse.identity(3, format="csr"), lap1d(4))


def test_setup_small_matrix_single_level():
    A = lap1d(8)
    H = setup(A, SetupConfig(max_coarse=10))
    assert H.n_levels == 1
    x, history = solve(H, np.ones(8), tol=1e-12, max_iters=5)
    assert_allclose(A @ x, np.ones(8), atol=1e-10)


def test_setup_level_sizes_on_path():
    H = setup(lap1d(9), SetupConfig(mode="constrained", pattern_degree=1, max_coarse=3))
    assert H.level_sizes() == [9, 5, 3]


def test_setup_operator_complexity_at_least_one():
    H = setup(poisson2d(16), SetupConfig())
    assert H.operator_complexity() >= 1.0


def test_diagonal_operator_is_one_exactly_solved_level(monkeypatch):
    """A diagonal A has nothing to coarsen: it is the coarsest level after
    one strength graph (a higher threshold only removes edges, so no
    retry could coarsen it), CG solves it in one iteration and the
    stationary measurement, which ends at an exact zero, reports cf 0."""
    thetas = []

    def recording(A, theta_strength):
        thetas.append(theta_strength)
        return strength_graph(A, theta_strength)

    monkeypatch.setattr(hierarchy, "strength_graph", recording)
    A = csr_from_triplets([(i, i, 1.0) for i in range(50)], 50, 50)
    H = setup(A, SetupConfig(max_coarse=10))
    assert H.n_levels == 1 and thetas == [0.4]
    b = np.arange(1.0, 51.0)
    x, history = solve(H, b, tol=1e-12, accel="cg")
    assert len(history) == 2
    assert_allclose(A @ x, b, rtol=1e-12)
    assert measure_report(H).cf == 0.0


def test_setup_galerkin_consistency():
    H = setup(poisson2d(12), SetupConfig(pattern_degree=2))
    for k in range(H.n_levels - 1):
        expected = (H.levels[k].P.T @ H.levels[k].A @ H.levels[k].P).toarray()
        actual = H.levels[k + 1].A.toarray()
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


def test_vcycle_zero_input():
    H = setup(poisson2d(8), SetupConfig())
    n = H.levels[0].A.shape[0]
    out = vcycle(H, 0, np.zeros(n))
    assert np.all(out == 0.0)


def test_vcycle_single_level_exact():
    A = lap1d(6)
    H = setup(A, SetupConfig(max_coarse=10))
    b = np.arange(1.0, 7.0)
    x = vcycle(H, 0, b)
    assert_allclose(A @ x, b, atol=1e-12)


def test_vcycle_contracts_energy():
    A = poisson2d(32)
    H = setup(A, SetupConfig(mode="constrained", pattern_degree=2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(A.shape[0])
        y = x + vcycle(H, 0, -(A @ x))
        assert y @ (A @ y) < x @ (A @ x)


def test_vcycle_fixed_point_at_solution():
    A = poisson2d(10)
    H = setup(A, SetupConfig())
    rng = np.random.default_rng(2)
    x_star = rng.standard_normal(A.shape[0])
    b = A @ x_star
    r = b - A @ x_star
    x = x_star + vcycle(H, 0, r)
    assert np.abs(x - x_star).max() <= 1e-13 * np.abs(x_star).max()


def test_solve_constant_solution():
    A = poisson2d(16)
    H = setup(A, SetupConfig())
    b = A @ np.ones(A.shape[0])
    x, history = solve(H, b, tol=1e-10, max_iters=50)
    assert np.abs(x - 1.0).max() <= 1e-7


def test_solve_zero_budget_returns_initial():
    A = poisson2d(8)
    H = setup(A, SetupConfig())
    b = np.ones(A.shape[0])
    x, history = solve(H, b, tol=0.0, max_iters=0)
    assert np.all(x == 0.0)
    assert len(history) == 1


def test_solve_stationary_iteration_count():
    # pinned from the first implementation run: 14 iterations at n=64
    A = poisson2d(64)
    H = setup(A, SetupConfig(mode="constrained", pattern_degree=2))
    b = A @ np.ones(A.shape[0])
    x, history = solve(H, b, tol=1e-8, max_iters=25)
    assert history[-1] <= 1e-8 * history[0]
    assert len(history) - 1 <= 25


def test_solve_cg_accelerated_a_norm_monotone():
    A = poisson2d(16)
    H = setup(A, SetupConfig())
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal(A.shape[0])
    b = A @ x_star
    errors = []
    for k in range(0, 12):
        x, _ = solve(H, b, tol=0.0, max_iters=k, accel="cg")
        e = x - x_star
        errors.append(np.sqrt(e @ (A @ e)))
    for a, b_ in zip(errors, errors[1:]):
        assert b_ <= a * (1 + 1e-10)


def test_solve_rejects_unknown_acceleration():
    H = setup(lap1d(6), SetupConfig(max_coarse=10))
    with pytest.raises(ValueError):
        solve(H, np.ones(6), accel="chebyshev")


@pytest.mark.parametrize("b_shape, x0_shape, message", [
    ((226,), None, "b has shape (226,)"),
    ((225,), (3,), "x0 has shape (3,)"),
    ((225, 1), None, "b has shape (225, 1)"),
], ids=["long-b", "short-x0", "column-b"])
def test_solve_rejects_vectors_of_the_wrong_shape(b_shape, x0_shape, message):
    H = setup(poisson2d(16), SetupConfig())
    x0 = None if x0_shape is None else np.ones(x0_shape)
    with pytest.raises(ValueError, match=re.escape(
            f"{message}; expected a vector of length 225, the dimension of A")):
        solve(H, np.ones(b_shape), x0=x0)


def test_two_grid_matches_dense_error_norm():
    A = assemble(ProblemSpec("rotated_anisotropic", 12, epsilon=1.0)).matrix
    H = setup(A, SetupConfig(mode="constrained", pattern_degree=2, max_levels=2))
    cf, _ = measure_convergence_factor(H, seed=0, iters=40)
    lvl = H.levels[0]
    Ad = lvl.A.toarray()
    M = np.diag(np.diag(Ad)) / lvl.relaxation.omega
    M2 = symmetrized_mtilde(Ad, M)  # two sweeps of symmetric M in one operator
    predicted = two_grid_error_norm(Ad, M2, lvl.P.toarray())
    assert abs(cf - predicted) <= 0.02


def test_measure_convergence_factor_reproducible():
    A = poisson2d(12)
    H = setup(A, SetupConfig())
    cf1, hist1 = measure_convergence_factor(H, seed=7)
    cf2, hist2 = measure_convergence_factor(H, seed=7)
    assert cf1 == cf2 and hist1 == hist2


def test_cached_diagonal_keeps_solves_bit_identical():
    A = assemble(ProblemSpec("rotated_anisotropic", 16, epsilon=1e-3)).matrix
    H = setup(A, SetupConfig(pattern_degree=2))
    assert H.n_levels >= 2
    for lvl in H.levels[:-1]:
        assert np.array_equal(lvl.diagonal, lvl.A.diagonal())
    assert H.levels[-1].diagonal is None
    b = np.random.default_rng(3).standard_normal(A.shape[0])

    _, cached = solve(H, b, accel="cg")
    cached_cf = measure_convergence_factor(H, seed=5)
    for lvl in H.levels:
        lvl.diagonal = None  # sweeps read diag(A) from the matrix again
    _, recomputed = solve(H, b, accel="cg")
    assert cached == recomputed
    assert cached_cf == measure_convergence_factor(H, seed=5)


def test_coarsest_level_builds_no_smoother(monkeypatch):
    """The coarsest level is only solved directly: setup estimates a
    Jacobi omega on every other level and none on the coarsest."""
    calls = []
    original = hierarchy.auto_jacobi_omega

    def counting(A, **kwargs):
        calls.append(A.shape[0])
        return original(A, **kwargs)

    monkeypatch.setattr(hierarchy, "auto_jacobi_omega", counting)
    H = setup(poisson2d(16), SetupConfig(pattern_degree=2))
    assert H.n_levels >= 3
    assert len(calls) == H.n_levels - 1
    assert calls == H.level_sizes()[:-1]
    coarsest = H.levels[-1]
    assert coarsest.relaxation is None and coarsest.diagonal is None


def test_single_level_cycle_complexity_counts_configured_sweeps():
    A = poisson2d(8)
    H = setup(A, SetupConfig(max_levels=1, sweeps=3))
    assert H.n_levels == 1
    assert H.cycle_complexity() == 7.0


def reference_galerkin(P, A):
    """P^T A P through CSC, with the skew recomputed on every call."""
    Ac = (P.T @ (A @ P)).tocsr()
    skew = abs(A - A.T)
    if skew.nnz == 0 or skew.max() <= 1e-14 * abs(A).max():
        Ac = ((Ac + Ac.T) * 0.5).tocsr()
    Ac.sort_indices()
    return Ac


def assert_same_csr(X, Y):
    assert np.array_equal(X.indptr, Y.indptr)
    assert np.array_equal(X.indices, Y.indices)
    assert np.array_equal(X.data, Y.data)


def test_galerkin_bit_identical_to_csc_product_on_every_level(monkeypatch):
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3)).matrix
    calls = []

    def recording_galerkin(P, A):
        Ac = galerkin_product(P, A)
        calls.append((P, A, Ac))
        return Ac

    monkeypatch.setattr(hierarchy, "galerkin_product", recording_galerkin)
    H = setup(A, SetupConfig(pattern_degree=4))
    assert len(calls) == H.n_levels - 1 >= 3
    for P, A_l, Ac in calls:
        assert_same_csr(Ac, reference_galerkin(P, A_l))
        assert (Ac != Ac.T).nnz == 0


@pytest.mark.parametrize("case", sorted(invalid_operators()))
def test_setup_rejects_invalid_operator_by_name(case):
    A, cause = invalid_operators()[case]
    with pytest.raises(ValueError, match=cause):
        setup(A, SetupConfig())


def test_setup_rejects_nonfinite_candidates():
    candidates = np.ones(120)
    candidates[4] = np.nan
    with pytest.raises(ValueError, match="candidates have a non-finite entry"):
        setup(lap1d(120), SetupConfig(candidates=candidates))


def test_setup_symmetrizes_coarse_levels_of_a_round_off_skewed_operator():
    A = lap1d(120).tolil()
    A[0, 1] = -1.0 - 1e-13  # skew 1e-13 is within SYMMETRY_RTOL * max|a_ij|
    H = setup(A.tocsr(), SetupConfig(max_coarse=10))
    assert H.n_levels >= 3
    for lvl in H.levels[1:]:
        assert (lvl.A != lvl.A.T).nnz == 0


def test_setup_bounds_the_dense_coarsest_level(monkeypatch):
    monkeypatch.setattr(hierarchy, "MAX_DENSE_COARSE_BYTES", 8 * 50 * 50)
    setup(lap1d(50), SetupConfig(max_levels=1))  # 20000 bytes: at the limit
    with pytest.raises(ValueError, match=re.escape(
            "coarsest level has 51 rows: its dense Cholesky factorization needs "
            "20808 bytes, over the 20000-byte limit")):
        setup(lap1d(51), SetupConfig(max_levels=1))


def test_dense_limit_spares_a_level_without_coupling(monkeypatch):
    # a diagonal coarsest level is solved by division, with no dense copy
    monkeypatch.setattr(hierarchy, "MAX_DENSE_COARSE_BYTES", 8 * 50 * 50)
    A = csr_from_triplets([(i, i, 1.0) for i in range(51)], 51, 51)
    H = setup(A, SetupConfig(max_coarse=10))
    assert H.n_levels == 1
    b = np.arange(1.0, 52.0)
    x, history = solve(H, b, tol=1e-12, accel="cg")
    assert len(history) == 2 and history[-1] == 0.0
    assert np.array_equal(x, b)


def test_coarsest_factorization_keeps_one_dense_copy():
    """The coarsest level is factorized in place: the traced peak of a
    one-level setup stays well below two dense copies."""
    n = 1500
    A = lap1d(n)
    tracemalloc.start()
    try:
        setup(A, SetupConfig(max_levels=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


@pytest.mark.parametrize("field, value", [
    ("tau", -0.1), ("tau", 1.5), ("tau", float("nan")), ("tau", "0.1"), ("tau", True),
    ("theta_strength", -0.1), ("theta_strength", 1.5), ("theta_strength", "0.4"),
    ("sweeps", 0), ("jacobi_omega", 0.0), ("jacobi_omega", -1.0),
    ("jacobi_omega", "fast"), ("emin_iters", -1),
    ("sweeps", 1.5), ("sweeps", True), ("pattern_degree", 2.5), ("pattern_degree", 2.0),
    ("emin_iters", 2.5), ("max_coarse", 10.0), ("max_levels", True),
])
def test_setup_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        SetupConfig(**{field: value})


def test_setup_config_accepts_range_ends():
    for kwargs in ({"tau": 0.0}, {"tau": 1.0}, {"theta_strength": 0.0},
                   {"theta_strength": 1.0}, {"sweeps": 1}, {"jacobi_omega": 3},
                   {"jacobi_omega": np.float64(0.5)}, {"emin_iters": 0}):
        SetupConfig(**kwargs)


def reference_vcycle(H, level, b):
    """The V(1,1) cycle that computes every pre-smoothing residual,
    including b - A x at the zero start."""
    lvl = H.levels[level]
    if level == H.n_levels - 1:
        return cho_solve(H.coarsest_factorization, b)

    def smooth(x):
        x = x.copy()
        for _ in range(lvl.relaxation.sweeps):
            x += lvl.relaxation.omega * (b - lvl.A @ x) / lvl.diagonal
        return x

    x = smooth(np.zeros(len(b)))
    r_coarse = lvl.P.T @ (b - lvl.A @ x)
    x = x + lvl.P @ reference_vcycle(H, level + 1, r_coarse)
    return smooth(x)


@pytest.mark.parametrize("sweeps", [1, 2, 3])
def test_zero_start_vcycle_bit_identical_to_reference(sweeps, monkeypatch):
    A = assemble(ProblemSpec("rotated_anisotropic", 24, epsilon=1e-3)).matrix
    H = setup(A, SetupConfig(pattern_degree=2, sweeps=sweeps))
    assert H.n_levels >= 3
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    _, cg = solve(H, b, accel="cg")
    _, stationary = measure_convergence_factor(H, seed=9)
    monkeypatch.setattr(hierarchy, "vcycle", reference_vcycle)
    _, reference_cg = solve(H, b, accel="cg")
    _, reference_stationary = measure_convergence_factor(H, seed=9)
    assert len(cg) > 5 and len(stationary) == 31
    assert np.array_equal(cg, reference_cg)
    assert np.array_equal(stationary, reference_stationary)


def test_setup_stops_at_a_diagonal_coarse_level():
    """Hypothesis found it: one coupling in a 6 x 6 diagonal matrix.  The
    F point interpolates from its one C neighbor, so the 5 x 5 coarse
    level is diagonal: larger than max_coarse, it is still the coarsest
    level, since it has nothing left to coarsen."""
    A = csr_from_triplets([(i, i, 2.0) for i in range(6)] + [(0, 1, -1.0), (1, 0, -1.0)],
                          6, 6)
    H = setup(A, SetupConfig(pattern_degree=1, max_coarse=1, max_levels=3))
    assert H.level_sizes() == [6, 5]
    b = np.arange(1.0, 7.0)
    x, _ = solve(H, b, tol=1e-12, accel="cg")
    assert_allclose(A @ x, b, rtol=1e-10)


@st.composite
def small_problems(draw):
    """A random SPD matrix with at most 40 rows or a P1 benchmark
    operator on a mesh of at most 8 intervals, and a 2- or 3-level
    setup configuration."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        A = rand_spd_sparse(rng, draw(st.integers(6, 40)),
                            density=draw(st.sampled_from([0.1, 0.3, 1.0])))
    else:
        kind = draw(st.sampled_from(["rotated_anisotropic", "oscillatory"]))
        A = assemble(ProblemSpec(kind, draw(st.integers(3, 8)),
                                 epsilon=draw(st.sampled_from([1.0, 1e-3])),
                                 K=draw(st.sampled_from([1.0, 1e6])))).matrix
    cfg = SetupConfig(mode=draw(st.sampled_from(["constrained", "weighted"])),
                      tau=draw(st.sampled_from([1e-4, 0.5])),
                      pattern_degree=draw(st.integers(1, 3)),
                      max_levels=draw(st.integers(2, 3)),
                      max_coarse=draw(st.integers(1, A.shape[0] // 3)))
    return A, cfg


@settings(max_examples=30, deadline=None)
@given(small_problems())
def test_vcycle_is_an_spd_preconditioner_and_galerkin_levels_spd(problem):
    """Dense oracles: the V-cycle operator, assembled column by column,
    is symmetric and positive definite; every coarse level equals the
    dense P^T A P, is exactly symmetric and has positive eigenvalues.
    A sparse random G can leave a level without any coupling; coarsening
    may stop early only there, so such a coarsest level is diagonal."""
    A, cfg = problem
    H = setup(A, cfg)
    coarsest = H.levels[-1].A
    if H.n_levels < cfg.max_levels and coarsest.shape[0] > cfg.max_coarse:
        assert (coarsest - sparse.diags(coarsest.diagonal())).count_nonzero() == 0
    for fine, coarse in zip(H.levels, H.levels[1:]):
        Ac, P = coarse.A.toarray(), fine.P.toarray()
        dense = P.T @ fine.A.toarray() @ P
        assert np.abs(Ac - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.array_equal(Ac, Ac.T)
        assert np.linalg.eigvalsh(Ac)[0] > 0.0
    n = A.shape[0]
    B = np.column_stack([vcycle(H, 0, e) for e in np.eye(n)])
    assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()
    assert np.linalg.eigvalsh((B + B.T) / 2.0)[0] > 0.0


@settings(max_examples=30, deadline=None)
@given(small_problems())
def test_two_grid_contraction_matches_the_dense_oracle(problem):
    """With two levels and one sweep, the V-cycle's error propagator
    E = I - B A, with B assembled from vcycle columns, has the A-norm of
    the dense two-grid propagator with Jacobi M = diag(A) / omega.  A
    draw without coupling is one level, solved exactly: E = 0."""
    A, cfg = problem
    H = setup(A, dataclasses.replace(cfg, max_levels=2, sweeps=1))
    Ad = A.toarray()
    n = Ad.shape[0]
    B = np.column_stack([vcycle(H, 0, e) for e in np.eye(n)])
    w, V = np.linalg.eigh(Ad)
    Ah, Ahi = (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T
    norm = np.linalg.norm(Ah @ (np.eye(n) - B @ Ad) @ Ahi, 2)
    if H.n_levels == 1:
        assert norm <= 1e-12
        return
    lvl = H.levels[0]
    M = np.diag(np.diag(Ad)) / lvl.relaxation.omega
    expected = two_grid_error_norm(Ad, M, lvl.P.toarray())
    assert abs(norm - expected) <= 1e-10 * expected
