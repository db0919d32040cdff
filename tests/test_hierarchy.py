import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from sparse_helpers import csr_from_triplets, lap1d
from tracemin_amg import hierarchy
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


def test_setup_stagnation_error():
    A = csr_from_triplets([(i, i, 1.0) for i in range(50)], 50, 50)
    with pytest.raises(RuntimeError, match="stagnat"):
        setup(A, SetupConfig(max_coarse=10))


def test_setup_galerkin_consistency():
    H = setup(poisson2d(12), SetupConfig(pattern_degree=2))
    for k in range(H.n_levels - 1):
        expected = (H.levels[k].P.T @ H.levels[k].A @ H.levels[k].P).toarray()
        actual = H.levels[k + 1].A.toarray()
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


def test_vcycle_zero_input():
    H = setup(poisson2d(8), SetupConfig())
    n = H.levels[0].A.shape[0]
    out = vcycle(H, 0, np.zeros(n), np.zeros(n))
    assert np.all(out == 0.0)


def test_vcycle_single_level_exact():
    A = lap1d(6)
    H = setup(A, SetupConfig(max_coarse=10))
    b = np.arange(1.0, 7.0)
    x = vcycle(H, 0, np.zeros(6), b)
    assert_allclose(A @ x, b, atol=1e-12)


def test_vcycle_contracts_energy():
    A = poisson2d(32)
    H = setup(A, SetupConfig(mode="constrained", pattern_degree=2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(A.shape[0])
        y = x + vcycle(H, 0, np.zeros_like(x), -(A @ x))
        assert y @ (A @ y) < x @ (A @ x)


def test_vcycle_fixed_point_at_solution():
    A = poisson2d(10)
    H = setup(A, SetupConfig())
    rng = np.random.default_rng(2)
    x_star = rng.standard_normal(A.shape[0])
    b = A @ x_star
    r = b - A @ x_star
    x = x_star + vcycle(H, 0, np.zeros_like(x_star), r)
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
    cf, _ = measure_convergence_factor(H, seed=0, iters=40, window=10)
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


def test_galerkin_nonsymmetric_operator_not_symmetrized():
    A = sparse.random(30, 30, density=0.2, random_state=6, format="csr") \
        + sparse.identity(30, format="csr")
    P = sparse.random(30, 9, density=0.3, random_state=7, format="csr")
    Ac = galerkin_product(P, A)
    expected = (P.T @ (A @ P)).tocsr()
    expected.sort_indices()
    assert_same_csr(Ac, expected)
    assert_same_csr(Ac, reference_galerkin(P, A))
    assert (Ac != Ac.T).nnz > 0
    dense_p = P.toarray()
    assert_allclose(Ac.toarray(), dense_p.T @ A.toarray() @ dense_p, rtol=1e-13, atol=1e-14)
