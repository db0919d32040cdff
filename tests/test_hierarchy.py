import dataclasses
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import cho_solve

from sparse_helpers import (both_paths, csr_from_triplets, invalid_operators, lap1d,
                            python_path, rand_spd_sparse, run_isolated)
from tracemin_amg import energymin, hierarchy, kernels
from tracemin_amg.coarsening import cf_split, strength_graph
from tracemin_amg.energymin import prepare_candidates
from tracemin_amg.experiments import measure_report, smoothed_constant
from tracemin_amg.hierarchy import (SetupConfig, galerkin_product,
                                    measure_convergence_factor, setup, solve,
                                    vcycle)
from tracemin_amg.linalg import check_symmetric, row_blocks
from tracemin_amg.problems import ProblemSpec, assemble
from tracemin_amg.relaxation import auto_jacobi_omega, symmetrized_mtilde
from tracemin_amg.theory import ktg, two_grid_error_norm


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
    with pytest.raises(ValueError, match=re.escape(
            "b has shape (4,); expected a vector of length 3, the column count of P")):
        galerkin_product(sparse.csr_matrix(np.eye(4)[:, :3]), lap1d(4), np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_galerkin_names_a_non_finite_candidate(bad):
    """A NaN in b would lump a different set of couplings and an inf would
    overflow inside the lump rule; both are refused by name, with
    solve's message, before any product is formed."""
    A = poisson2d(16)
    P = setup(A, SetupConfig(max_levels=2)).levels[0].P
    b = np.ones(P.shape[1])
    b[5] = bad
    with pytest.raises(ValueError, match=re.escape("b has a non-finite entry (NaN or inf)")):
        galerkin_product(P, A, b)


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


def oscillatory8_hierarchy():
    A = assemble(ProblemSpec("oscillatory", 8)).matrix
    return A, setup(A, SetupConfig(max_coarse=10))


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": -1.0, "accel": "cg"}, "tol must be >= 0; got -1.0"),
    ({"tol": float("nan"), "accel": "cg"}, "tol must be a finite real number; got nan"),
    ({"max_iters": 2.5}, "max_iters must be an integer; got 2.5"),
    ({"max_iters": -1}, "max_iters must be >= 0; got -1"),
    ({"b": np.where(np.arange(49) == 3, np.nan, 1.0), "accel": "cg"},
     "b has a non-finite entry (NaN or inf)"),
    ({"x0": np.full(49, np.inf)}, "x0 has a non-finite entry (NaN or inf)"),
], ids=["negative-tol", "nan-tol", "float-max-iters", "negative-max-iters", "nan-b",
        "inf-x0"])
def test_solve_rejects_a_bad_argument_by_name(kwargs, message):
    """A bad tolerance, budget, right-hand side or start is refused
    before the first cycle, not met by a CG warning, a TypeError or a
    cho_solve error."""
    _, H = oscillatory8_hierarchy()
    kwargs = {"b": np.ones(49), **kwargs}
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(H, **kwargs)


def test_cg_warns_when_the_preconditioner_loses_definiteness(monkeypatch):
    # a zero preconditioner makes the first search direction zero
    A, H = oscillatory8_hierarchy()
    monkeypatch.setattr(hierarchy, "vcycle", lambda H, level, r: np.zeros_like(r))
    b = np.ones(A.shape[0])
    with pytest.warns(RuntimeWarning, match="preconditioned CG lost positive definiteness"):
        x, history = solve(H, b, accel="cg")
    assert np.all(x == 0.0) and history == [np.linalg.norm(b)]


def test_cg_warns_when_the_residual_keeps_growing(monkeypatch):
    # I + K with K skew keeps r^T z = |r|^2 > 0 and p^T A p > 0, but the
    # nonsymmetric preconditioner breaks CG's orthogonality: the
    # residual grows from the first step on
    A, H = oscillatory8_hierarchy()
    G = np.random.default_rng(0).standard_normal(A.shape)
    M = np.eye(A.shape[0]) + G - G.T
    monkeypatch.setattr(hierarchy, "vcycle", lambda H, level, r: M @ r)
    with pytest.warns(RuntimeWarning, match=f"preconditioned CG diverging: residual "
                                            f"grew over {hierarchy.CF_WINDOW}"):
        _, history = solve(H, np.ones(A.shape[0]), tol=0.0, accel="cg")
    assert len(history) == hierarchy.CF_WINDOW + 1
    assert all(a < b for a, b in zip(history, history[1:]))


SOLVE_PROBLEMS = {"aniso": ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3),
                  "osc": ProblemSpec("oscillatory", 32, K=1e6)}


@pytest.fixture(scope="module")
def solve_hierarchies():
    """(A, H) of each SOLVE_PROBLEMS entry, with the automatic Jacobi
    weight and with omega 3.0, which makes both drivers diverge."""
    built = {}
    for name, spec in SOLVE_PROBLEMS.items():
        A = assemble(spec).matrix
        for omega in ("auto", 3.0):
            built[name, omega] = A, setup(A, SetupConfig(jacobi_omega=omega))
    return built


def reference_solve(H, b, tol, max_iters, accel):
    """solve's two drivers as two loops, each with its own V-cycle call
    and stop rule: the bit reference of the one loop."""
    A = H.levels[0].A
    x = np.zeros(A.shape[0])
    r = b - A @ x
    history = [float(np.linalg.norm(r))]
    target = tol * history[0]
    growth = 0
    if accel == "stationary":
        for _ in range(max_iters):
            x = x + hierarchy.vcycle(H, 0, r)
            r = b - A @ x
            history.append(float(np.linalg.norm(r)))
            if history[-1] <= target:
                break
            growth = growth + 1 if history[-1] > history[-2] else 0
            if growth >= hierarchy.CF_WINDOW:
                warnings.warn(f"V-cycle iteration diverging: residual grew over "
                              f"{hierarchy.CF_WINDOW} consecutive iterations", RuntimeWarning)
                break
        return x, history
    z = hierarchy.vcycle(H, 0, r)
    rz = float(r @ z)
    p = z.copy()
    for _ in range(max_iters):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            warnings.warn("preconditioned CG lost positive definiteness", RuntimeWarning)
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        history.append(float(np.linalg.norm(r)))
        if history[-1] <= target:
            break
        growth = growth + 1 if history[-1] > history[-2] else 0
        if growth >= hierarchy.CF_WINDOW:
            warnings.warn(f"preconditioned CG diverging: residual grew over "
                          f"{hierarchy.CF_WINDOW} consecutive iterations", RuntimeWarning)
            break
        z = hierarchy.vcycle(H, 0, r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, history


DIVERGING = {"stationary": "V-cycle iteration diverging", "cg": "preconditioned CG diverging"}


@pytest.mark.parametrize("accel", ["stationary", "cg"])
@pytest.mark.parametrize("problem", sorted(SOLVE_PROBLEMS))
@pytest.mark.parametrize("omega, max_iters", [("auto", 100), ("auto", 3), (3.0, 100)],
                         ids=["to-tol", "max-iters-3", "diverging"])
def test_solve_is_bit_identical_to_the_two_loop_drivers(solve_hierarchies, problem, accel,
                                                        omega, max_iters):
    A, H = solve_hierarchies[problem, omega]
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    kwargs = {"b": b, "tol": 1e-8, "max_iters": max_iters, "accel": accel}
    if omega == "auto":
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, history = solve(H, **kwargs)
            x_ref, history_ref = reference_solve(H, **kwargs)
    else:
        message = f"{DIVERGING[accel]}: residual grew over {hierarchy.CF_WINDOW} consecutive"
        with pytest.warns(RuntimeWarning, match=message):
            x, history = solve(H, **kwargs)
        with pytest.warns(RuntimeWarning, match=message):
            x_ref, history_ref = reference_solve(H, **kwargs)
    assert history == history_ref
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("accel", ["stationary", "cg"])
@pytest.mark.parametrize("max_iters", [100, 1, 5], ids=["to-tol", "max-iters-1", "max-iters-5"])
def test_solve_applies_one_fine_vcycle_per_iteration(solve_hierarchies, monkeypatch,
                                                     accel, max_iters):
    """A solve of k iterations applies k fine-level V-cycles, a CG solve
    that max_iters ends included: none follows the last iteration."""
    A, H = solve_hierarchies["aniso", "auto"]
    levels = []
    vcycle = hierarchy.vcycle

    def counted(H, level, b):
        levels.append(level)
        return vcycle(H, level, b)

    monkeypatch.setattr(hierarchy, "vcycle", counted)
    _, history = solve(H, np.random.default_rng(3).standard_normal(A.shape[0]),
                       tol=1e-8, max_iters=max_iters, accel=accel)
    iterations = len(history) - 1
    assert iterations == max_iters or history[-1] <= 1e-8 * history[0]
    assert levels.count(0) == iterations


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


@pytest.mark.parametrize("max_levels, message", [
    (25, r"^level \d+ \(\d+ rows\): operator is not positive definite: "
         r"energy-minimization CG breakdown at iteration \d+: curvature -"),
    (2, r"^coarsest level 1 \(\d+ rows\): operator is not positive definite: "
        r".*leading minor"),
], ids=["minimization", "coarsest"])
def test_indefinite_coarse_level_is_named(monkeypatch, max_levels, message):
    """Lumping at theta = 2e-3, four times NON_GALERKIN_THETA, leaves coarse
    levels of this problem indefinite.  The minimization that breaks down
    on one, or the factorization of the coarsest, is a ValueError that
    names the level and its row count."""
    monkeypatch.setattr(hierarchy, "NON_GALERKIN_THETA", 2e-3)
    A = assemble(ProblemSpec("rotated_anisotropic", 64, epsilon=1e-3)).matrix
    with pytest.raises(ValueError, match=message):
        setup(A, SetupConfig(pattern_degree=4, max_coarse=10, max_levels=max_levels))


@pytest.mark.parametrize("tau", [0.0, 1e-300, 1e-20])
def test_weighted_setup_near_tau_zero_keeps_every_start(tau):
    """Near tau = 0 the residual at the constraint-spreading start is
    round-off of the right-hand side, so every level keeps its start.
    Steps on that round-off moved the weights by garbage, and at tau 0
    left level 1 singular on its candidate."""
    A = poisson2d(16)
    H = setup(A, SetupConfig(mode="weighted", tau=tau, candidates=smoothed_constant(A, 5)))
    assert H.n_levels == 3
    assert [len(lvl.emin_residuals) for lvl in H.levels[:-1]] == [1, 1]


@pytest.mark.parametrize("mode", ["constrained", "weighted"])
def test_failure_on_a_coarse_level_names_the_level(mode):
    """A candidate that is 1 at the F points and 0 at the C points of level
    0's split is not zero, but its injection onto level 1 is: the error
    names level 1.  Level 0's messages name the caller's input as they
    are."""
    A = poisson2d(16)
    v = np.zeros(A.shape[0])
    v[cf_split(strength_graph(A, 0.4)).f_points] = 1.0
    with pytest.raises(ValueError, match=r"^level 1 \(113 rows\): candidate 0 is zero$"):
        setup(A, SetupConfig(mode=mode, candidates=v))
    with pytest.raises(ValueError, match=r"^candidate 0 is zero$"):
        setup(A, SetupConfig(mode=mode, candidates=np.zeros(A.shape[0])))


def test_non_positive_diagonal_on_a_middle_level_names_the_level(monkeypatch):
    """The strength graph's diagonal check on a coarse level, here one whose
    first diagonal entry is made negative, names the level."""
    def negated_first_diagonal(P, A, b=None):
        Ac = galerkin_product(P, A, b)
        Ac[0, 0] = -Ac[0, 0]
        return Ac

    monkeypatch.setattr(hierarchy, "galerkin_product", negated_first_diagonal)
    A = poisson2d(16)
    with pytest.raises(ValueError, match=r"^level 1 \(113 rows\): non-positive diagonal "
                                         r"entry: a_ii = -[0-9.e+-]+ at row 0$"):
        setup(A, SetupConfig())


def test_uncoupled_coarsest_level_checks_its_diagonal():
    """A coarsest level without off-diagonal entries is solved by division,
    so its diagonal is checked before it is held."""
    A = csr_from_triplets([(0, 0, 2.0), (1, 1, -0.5), (2, 2, 1.0)], 3, 3)
    with pytest.raises(ValueError, match=r"^coarsest level 4 \(3 rows\): operator is not "
                                         r"positive definite: non-positive diagonal entry: "
                                         r"a_ii = -0.5 at row 1$"):
        hierarchy._coarsest_factorization(A, 4)


def test_single_level_cycle_complexity_counts_configured_sweeps():
    A = poisson2d(8)
    H = setup(A, SetupConfig(max_levels=1, sweeps=3))
    assert H.n_levels == 1
    assert H.cycle_complexity() == 7.0


EPS = np.finfo(np.float64).eps


def mirrored_upper(M):
    """The symmetric canonical CSR whose upper triangle, diagonal
    included, is the square sparse M's, assembled from COO triplets."""
    C = sparse.triu(M, format="coo")
    off = C.row != C.col
    S = sparse.csr_matrix((np.concatenate([C.data, C.data[off]]),
                           (np.concatenate([C.row, C.col[off]]),
                            np.concatenate([C.col, C.row[off]]))), shape=M.shape)
    S.sort_indices()
    return S


def unfiltered_galerkin(P, A, b=None):
    """P^T A P through CSC, with the skew recomputed on every call and
    every entry of the product stored, its upper triangle mirrored where
    A is symmetric to round-off; b, setup's coarse candidate, is not
    read."""
    Ac = (P.T @ (A @ P)).tocsr()
    skew = abs(A - A.T)
    if skew.nnz == 0 or skew.max() <= 1e-14 * abs(A).max():
        return mirrored_upper(Ac)
    Ac.sort_indices()
    return Ac


def round_off_bound(Ac):
    """eps sqrt(|a_ii a_jj|) at each stored entry of Ac, in COO order."""
    C = Ac.tocoo()
    d = np.abs(Ac.diagonal())
    return C, EPS * np.sqrt(d[C.row] * d[C.col])


def reference_galerkin(P, A):
    """unfiltered_galerkin without the off-diagonal entries below
    eps sqrt(|a_ii a_jj|)."""
    C, bound = round_off_bound(unfiltered_galerkin(P, A))
    keep = (C.row == C.col) | (np.abs(C.data) >= bound)
    Ac = sparse.csr_matrix((C.data[keep], (C.row[keep], C.col[keep])), shape=C.shape)
    Ac.sort_indices()
    return Ac


def assert_same_csr(X, Y):
    assert np.array_equal(X.indptr, Y.indptr)
    assert np.array_equal(X.indices, Y.indices)
    assert np.array_equal(X.data, Y.data)


def round_off_galerkin(P, A, b):
    """galerkin_product with no candidate: the round-off rule alone, the
    one setup applies with two or more candidates."""
    return galerkin_product(P, A)


def galerkin_calls(monkeypatch, A, cfg):
    """Set up A with the round-off rule alone and return (P, A_l, P^T A_l
    P) for every Galerkin product, each checked to be exactly symmetric
    and bit-equal to reference_galerkin."""
    calls = []

    def recording_galerkin(P, A, b):
        Ac = round_off_galerkin(P, A, b)
        calls.append((P, A, Ac))
        return Ac

    monkeypatch.setattr(hierarchy, "galerkin_product", recording_galerkin)
    H = setup(A, cfg)
    assert len(calls) == H.n_levels - 1 >= 3
    for P, A_l, Ac in calls:
        assert_same_csr(Ac, reference_galerkin(P, A_l))
        assert (Ac != Ac.T).nnz == 0
    return calls


def test_galerkin_bit_identical_to_csc_product_on_every_level(monkeypatch):
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3)).matrix
    galerkin_calls(monkeypatch, A, SetupConfig(pattern_degree=4))


OSC_CONFIG = SetupConfig(mode="weighted", tau=1e-1, pattern_degree=4)


def test_galerkin_drops_sub_round_off_couplings_bit_identically(monkeypatch):
    """On the oscillatory problem the degree-4 weighted P carries weights
    far below round-off of their row's largest, so level 1 has couplings
    below eps sqrt(a_ii a_jj); they are dropped exactly as the CSC
    reference drops them."""
    A = assemble(ProblemSpec("oscillatory", 32, K=1e6)).matrix
    calls = galerkin_calls(monkeypatch, A, OSC_CONFIG)
    P, A_0, A_1 = calls[0]
    assert unfiltered_galerkin(P, A_0).nnz > A_1.nnz


def test_dropping_sub_round_off_couplings_keeps_cf_and_lowers_oc(monkeypatch):
    A = assemble(ProblemSpec("oscillatory", 32, K=1e6)).matrix
    monkeypatch.setattr(hierarchy, "galerkin_product", round_off_galerkin)
    H = setup(A, OSC_CONFIG)
    report = measure_report(H, seed=3)
    monkeypatch.setattr(hierarchy, "galerkin_product", unfiltered_galerkin)
    H_full = setup(A, OSC_CONFIG)
    full = measure_report(H_full, seed=3)
    assert H.level_sizes() == H_full.level_sizes()
    assert abs(report.cf - full.cf) <= 1e-10 * full.cf
    assert report.oc < full.oc


def two_candidate_problem():
    """Rotated anisotropic n=64 with the constant and a ramp as candidates."""
    A = assemble(ProblemSpec("rotated_anisotropic", 64, epsilon=1e-3)).matrix
    ramp = np.linspace(-1.0, 1.0, A.shape[0])
    return A, np.column_stack([np.ones_like(ramp), ramp])


@pytest.mark.parametrize("cfg", [SetupConfig(pattern_degree=4),
                                 SetupConfig(mode="weighted", tau=1e-1, pattern_degree=4)],
                         ids=["constrained", "weighted"])
def test_two_candidate_setup_keeps_the_round_off_hierarchy_bit_for_bit(cfg, monkeypatch):
    """Lumping keeps one candidate, so with two setup passes no candidate
    to galerkin_product and drops only round-off couplings.  Its
    hierarchy equals, bit for bit, one built by the CSC reference of
    that rule with energy minimization in row blocks of 2^17 slots: the
    rule and the block size the non-Galerkin coarse levels came with."""
    A, candidates = two_candidate_problem()
    cfg = dataclasses.replace(cfg, candidates=candidates)
    passed = []

    def recording_galerkin(P, A, b):
        passed.append(b)
        return galerkin_product(P, A, b)

    monkeypatch.setattr(hierarchy, "galerkin_product", recording_galerkin)
    H = setup(A, cfg)
    assert len(passed) == H.n_levels - 1 >= 3 and all(b is None for b in passed)
    nc = H.levels[0].P.shape[1]
    assert H.levels[0].P.nnz - nc > 2**14  # level 0's slots span several blocks
    monkeypatch.setattr(hierarchy, "galerkin_product",
                        lambda P, A, b: reference_galerkin(P, A))
    monkeypatch.setattr(energymin, "PRODUCT_BLOCK_SLOTS", 2**17)
    reference = setup(A, cfg)
    assert H.level_sizes() == reference.level_sizes()
    for lvl, ref in zip(H.levels, reference.levels):
        assert_same_csr(lvl.A, ref.A)
        if lvl.P is not None:
            assert_same_csr(lvl.P, ref.P)


def test_lumping_keeps_a_coupling_of_a_near_zero_candidate_entry():
    """b_2 is tiny beside its neighbours.  The weak couplings a_02 and
    a_24 lie below theta sqrt(a_ii a_jj), but lumped onto a_22 each would
    add a_2j b_j / b_2, about -10, and leave a_22 negative, as a rule that
    asks only that and b_i b_j > 0 did.  The rule bounds both sides, so
    they stay, and so does a_57, where b_5 b_7 < 0; the other weak
    couplings are lumped, every diagonal stays positive, A_c stays SPD
    and A_c b = A b."""
    n, weak = 8, -1e-5
    entries = [(i, i, 2.0 - 2.0 * weak) for i in range(n)]
    entries += [(i, i + 1, -1.0) for i in range(n - 1)]
    entries += [(i, i + 2, weak) for i in range(n - 2)]
    entries += [(j, i, v) for i, j, v in entries if i != j]
    A = csr_from_triplets(entries, n, n)
    b = np.linspace(1.0, 2.0, n)
    b[2], b[7] = 1e-6, -1.5
    Ac = galerkin_product(sparse.identity(n, format="csr"), A, b)
    for i, j in ((0, 2), (2, 4), (5, 7)):
        assert Ac[i, j] == Ac[j, i] == weak
    for i, j in ((1, 3), (3, 5), (4, 6)):
        assert Ac[i, j] == Ac[j, i] == 0.0
    assert Ac.nnz == A.nnz - 2 * 3
    assert (Ac != Ac.T).nnz == 0
    assert np.all(Ac.diagonal() > 0.0)
    assert np.linalg.eigvalsh(Ac.toarray())[0] > 0.0
    assert_allclose(Ac @ b, A @ b, rtol=0.0, atol=1e-14)


def b_scaled_slack(Ac, b):
    """s_i = a_ii |b_i| - sum_{j != i} |a_ij| |b_j| of a CSR Ac, through
    one SpMV of its off-diagonal magnitudes."""
    off = abs(Ac - sparse.diags(Ac.diagonal())).tocsr()
    return Ac.diagonal() * abs(b) - off @ abs(b)


def two_pass_galerkin(P, A, b=None):
    """The bit reference of galerkin_product's drop and lump rules, in
    two passes over the mirrored upper triangle of SciPy's CSR product
    R (A P): per row block, the round-off mask, then the candidate
    rule through a masked CSR copy of the block and one SpMV into an
    n_c-long vector of lumped sums, then one CSR assignment of the
    diagonal and one of the dropped entries.  A product whose b-scaled
    slack is >= 0 on every row, with every b_i != 0, lumps its negative
    couplings at NON_GALERKIN_THETA_NEGATIVE."""
    Ac = mirrored_upper(P.T.tocsr() @ (A @ P))
    d = Ac.diagonal()
    t = np.sqrt(np.abs(d) * EPS)

    def reciprocal(theta):
        return np.divide(1.0, theta * d * b, out=np.zeros_like(d),
                         where=(d > 0.0) & (b != 0.0))
    r = r_neg = None
    if b is not None:
        r = reciprocal(hierarchy.NON_GALERKIN_THETA)
        if np.all(b != 0.0) and np.all(b_scaled_slack(Ac, b) >= 0.0):
            r_neg = reciprocal(hierarchy.NON_GALERKIN_THETA_NEGATIVE)
    drop = np.empty(Ac.nnz, dtype=bool)
    moved = None if b is None else np.zeros_like(d)
    bounds = row_blocks(Ac.indptr, hierarchy.GALERKIN_BLOCK_ENTRIES)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        first, last = Ac.indptr[lo], Ac.indptr[hi]
        block = sparse.csr_matrix((Ac.data[first:last], Ac.indices[first:last],
                                   Ac.indptr[lo:hi + 1] - first),
                                  shape=(hi - lo, Ac.shape[1]))
        counts = np.diff(block.indptr)
        bound = np.repeat(t[lo:hi], counts)
        bound *= t[block.indices]
        np.less(np.abs(block.data), bound, out=drop[first:last])
        if b is None:
            continue
        lump = ~drop[first:last]
        for row_factor, col_factor in ((r, b), (b, r)):
            q = np.repeat(row_factor[lo:hi], counts)
            q *= col_factor[block.indices]
            if r_neg is not None:  # a negative coupling's q at its own theta
                neg_row, neg_col = (r_neg, b) if row_factor is r else (b, r_neg)
                q_neg = np.repeat(neg_row[lo:hi], counts) * neg_col[block.indices]
                q = np.where(block.data < 0.0, q_neg, q)
            q *= np.abs(block.data)
            lump &= (q > 0.0) & (q <= 1.0)
        moved[lo:hi] = sparse.csr_matrix((block.data * lump, block.indices, block.indptr),
                                         shape=block.shape) @ b
        drop[first:last] |= lump
    if b is not None:
        rows = np.flatnonzero(moved)
        Ac[rows, rows] = d[rows] + moved[rows] / b[rows]
    if drop.any():
        Ac.data[drop] = 0.0
        Ac.eliminate_zeros()
    return Ac


def graded_problem(seed, n=40, nc=15):
    """A random sparse SPD A and a sparse P whose entries span 20 orders
    of magnitude, so the coarse product has couplings below round-off of
    its diagonals, couplings below theta of them and larger ones."""
    rng = np.random.default_rng(seed)
    A = rand_spd_sparse(rng, n, density=0.02)
    dense_p = rng.choice([-1.0, 1.0], (n, nc)) * 10.0 ** rng.uniform(-20.0, 0.0, (n, nc))
    dense_p[rng.random((n, nc)) > 0.3] = 0.0
    return A, sparse.csr_matrix(dense_p), rng


def graded_candidate(kind, rng, nc):
    """A coarse candidate of one sign pattern, or None."""
    if kind is None:
        return None
    b = rng.uniform(0.5, 2.0, nc)
    if kind == "negative":
        b = -b
    elif kind == "mixed":
        b[rng.random(nc) < 0.3] *= -1.0
    elif kind == "zeros":
        b[rng.random(nc) < 0.3] = 0.0
    return b


B_KINDS = ["positive", "negative", "mixed", "zeros", None]


@pytest.mark.parametrize("theta", [hierarchy.NON_GALERKIN_THETA, 0.5],
                         ids=["theta", "large-theta"])
@pytest.mark.parametrize("kind", B_KINDS, ids=str)
def test_galerkin_is_bit_identical_to_the_two_pass_rule(kind, theta, monkeypatch):
    """On random graded problems and candidates of every sign pattern, the
    one-pass rule stores the same entries, bit for bit, as the two-pass
    reference; over the seeds both rules drop entries and, with b, lumps
    move diagonals.  At theta 0.5 a row's lumps are of its diagonal's
    size, so the order of their sum and the division by b_i show in the
    bits of the diagonal; at NON_GALERKIN_THETA they are below its last
    bits."""
    monkeypatch.setattr(hierarchy, "NON_GALERKIN_THETA", theta)
    round_off = lumped = 0
    for seed in range(20):
        A, P, rng = graded_problem(seed)
        b = graded_candidate(kind, rng, P.shape[1])
        Ac = galerkin_product(P, A, b)
        assert_same_csr(Ac, two_pass_galerkin(P, A, b))
        full = two_pass_galerkin(P, A)
        round_off += unfiltered_galerkin(P, A).nnz - full.nnz
        lumped += full.nnz - Ac.nnz
    assert round_off > 0
    assert (lumped > 0) == (kind is not None)


@pytest.mark.parametrize("kind", B_KINDS, ids=str)
def test_galerkin_blocks_of_a_few_entries_keep_the_bits(kind, monkeypatch):
    """With blocks of at most 4 entries every row of more than 4 stored
    entries is a block by itself; the result equals the two-pass
    reference at that block size and the one-pass rule at the default."""
    cases = []
    for seed in range(5):
        A, P, rng = graded_problem(seed)
        b = graded_candidate(kind, rng, P.shape[1])
        cases.append((P, A, b, galerkin_product(P, A, b)))
    monkeypatch.setattr(hierarchy, "GALERKIN_BLOCK_ENTRIES", 4)
    for P, A, b, default in cases:
        Ac = galerkin_product(P, A, b)
        assert np.diff(Ac.indptr).max() > 4
        assert_same_csr(Ac, two_pass_galerkin(P, A, b))
        assert_same_csr(Ac, default)


def test_galerkin_decides_a_boundary_coupling_as_the_two_pass_rule(monkeypatch):
    """b_1 = 1 + 24/997 and this a_01 put q_01 one ulp above 1 in the
    rule's order, (r_0 b_1) |a_01|, and at exactly 1 in the order r_0
    (b_1 |a_01|): a_01 is kept, as the two-pass reference keeps it."""
    monkeypatch.setattr(hierarchy, "NON_GALERKIN_THETA", 5e-4)
    a, b = 0.0009764936336924585, np.array([1.0, 1.0 + 24 / 997])
    r_0 = 1.0 / (5e-4 * 2.0 * b[0])
    assert (r_0 * b[1]) * a > 1.0 == r_0 * (b[1] * a)
    A = sparse.csr_matrix(np.array([[2.0, a], [a, 1e3]]))
    P = sparse.identity(2, format="csr")
    Ac = galerkin_product(P, A, b)
    assert_same_csr(Ac, two_pass_galerkin(P, A, b))
    assert_same_csr(Ac, A)


def test_galerkin_row_whose_lumps_cancel_keeps_its_diagonal():
    """Row 0 lumps w b_1 and -w b_2, which cancel to exactly 0: its
    diagonal is left as it is, both couplings are still dropped, and
    rows 1 and 2 each take their one lump, 2 + w and 2 - w."""
    n, w = 4, 1e-5
    entries = [(i, i, 2.0) for i in range(n)] + [(2, 3, -1.0), (3, 2, -1.0)]
    entries += [(0, 1, w), (1, 0, w), (0, 2, -w), (2, 0, -w)]
    A = csr_from_triplets(entries, n, n)
    b = np.ones(n)
    P = sparse.identity(n, format="csr")
    Ac = galerkin_product(P, A, b)
    assert_same_csr(Ac, two_pass_galerkin(P, A, b))
    assert Ac.nnz == n + 2
    assert Ac[0, 1] == Ac[0, 2] == 0.0
    assert Ac.diagonal().tolist() == [2.0, 2.0 + w, 2.0 - w, 2.0]
    assert_allclose(Ac @ b, A @ b, rtol=0.0, atol=1e-15)


@st.composite
def spd_and_graded_interpolation(draw):
    """A random sparse SPD matrix and a sparse P whose entries span 20
    orders of magnitude, so that some coarse couplings fall below
    round-off of the coarse diagonal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 30))
    nc = draw(st.integers(1, n))
    A = rand_spd_sparse(rng, n, density=draw(st.sampled_from([0.05, 0.2, 0.5])))
    dense_p = rng.choice([-1.0, 1.0], (n, nc)) * 10.0 ** rng.uniform(-20.0, 0.0, (n, nc))
    dense_p[rng.random((n, nc)) > draw(st.sampled_from([0.1, 0.3, 0.6]))] = 0.0
    return A, sparse.csr_matrix(dense_p)


@settings(max_examples=100, deadline=None)
@given(spd_and_graded_interpolation())
def test_galerkin_keeps_exactly_the_couplings_above_round_off(case):
    """The result is exactly symmetric, keeps every diagonal entry and
    every off-diagonal one at or above eps sqrt(|a_ii a_jj|) bit for
    bit, and drops the rest, which lie below that bound.  Against the
    dense P^T A P it differs by at most the bound plus the round-off of
    forming the product, n eps (|P|^T |A| |P|)_ij."""
    A, P = case
    Ac = galerkin_product(P, A)
    assert (Ac != Ac.T).nnz == 0
    full = unfiltered_galerkin(P, A)
    C, bound = round_off_bound(full)
    stored = Ac.toarray()[C.row, C.col]
    dropped = (C.row != C.col) & (np.abs(C.data) < bound)
    assert np.all(stored[dropped] == 0.0)
    assert np.array_equal(stored[~dropped], C.data[~dropped])
    assert Ac.nnz == np.count_nonzero(C.data[~dropped])
    d = np.abs(Ac.diagonal())
    Pd = P.toarray()
    limit = EPS * np.sqrt(np.outer(d, d)) \
        + A.shape[0] * EPS * (abs(Pd).T @ abs(A.toarray()) @ abs(Pd))
    assert np.all(np.abs(Ac.toarray() - Pd.T @ A.toarray() @ Pd) <= limit)


@st.composite
def round_off_skewed_problems(draw):
    """spd_and_graded_interpolation's A and P, or that A with each entry
    above the diagonal moved by up to 4 ulp, a skew setup accepts."""
    A, P = draw(spd_and_graded_interpolation())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        upper = sparse.triu(A, k=1, format="csr")
        upper.data *= rng.uniform(-4.0, 4.0, upper.nnz) * EPS
        A = (A + upper).tocsr()
    return A, P


@settings(max_examples=100, deadline=None)
@given(round_off_skewed_problems())
def test_galerkin_is_exactly_symmetric_and_near_the_dense_product(case):
    """A_c is exactly symmetric, also for an A skewed at round-off, whose
    P^T A P is not, and lies within round-off of the dense P^T A P: the
    drop bound eps sqrt(|a_ii a_jj|), plus the product's round-off n eps
    (|P|^T |A| |P|)_ij, plus, below the diagonal, where A_c mirrors the
    entry above it, the skew (|P|^T |A - A^T| |P|)_ij."""
    A, P = case
    Ac = galerkin_product(P, A)
    assert (Ac != Ac.T).nnz == 0
    d = np.abs(Ac.diagonal())
    Pd, Ad = np.abs(P.toarray()), A.toarray()
    limit = EPS * np.sqrt(np.outer(d, d)) + A.shape[0] * EPS * (Pd.T @ np.abs(Ad) @ Pd) \
        + Pd.T @ np.abs(Ad - Ad.T) @ Pd
    assert np.all(np.abs(Ac.toarray() - P.toarray().T @ Ad @ P.toarray()) <= limit)


@st.composite
def b_dominant_products(draw):
    """A random sparse symmetric A, its couplings of both signs spanning
    six orders of magnitude, a candidate b of mixed sign and a positive
    diagonal that makes diag(b) A diag(b) weakly diagonally dominant: row
    i has slack a_ii |b_i| - sum_{j != i} |a_ij| |b_j| of 2^-20, 10^-2 or
    1 times that sum.  With `broken`, one row's diagonal is halved past
    its sum, or one b_i is zero, and the product is not certified."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    upper = sparse.random(n, n, density=draw(st.sampled_from([0.1, 0.3, 1.0])),
                          random_state=rng, format="coo",
                          data_rvs=lambda k: rng.choice([-1.0, 1.0], k)
                          * 10.0 ** rng.uniform(-6.0, 0.0, k))
    upper = sparse.triu(upper, k=1)
    C = (upper + upper.T).tocsr()
    b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-1.0, 1.0, n)
    mass = abs(C) @ abs(b)
    diagonal = np.where(mass > 0.0, mass, 1.0) \
        * (1.0 + rng.choice([2.0**-20, 1e-2, 1.0], n)) / abs(b)
    broken = draw(st.sampled_from([None, "diagonal", "zero"]))
    k = draw(st.integers(0, n - 1))
    if broken == "diagonal" and mass[k] > 0.0:
        diagonal[k] = 0.5 * mass[k] / abs(b[k])
    elif broken == "zero":
        b[k] = 0.0
    else:
        broken = None
    return (C + sparse.diags(diagonal)).tocsr(), b, broken is None


@settings(max_examples=100, deadline=None)
@given(b_dominant_products())
def test_certified_lumping_keeps_a_dominant_product_semidefinite(case):
    """Lumping a negative coupling keeps the b-scaled slack of both rows,
    so a product that is weakly dominant once scaled by b stays positive
    semidefinite at any threshold for its negative couplings; it keeps
    A_c b = A b, and the result is the two-pass reference's bit for bit.
    A product that is not certified lumps by NON_GALERKIN_THETA alone: its
    bits do not depend on NON_GALERKIN_THETA_NEGATIVE."""
    A, b, dominant = case
    identity = sparse.identity(A.shape[0], format="csr")
    results = []
    certified = []  # the Python path's verdicts; the kernel certifies in C
    paths = both_paths()
    for _, path in paths:
        with path, pytest.MonkeyPatch.context() as mp:
            b_dominant = hierarchy._b_dominant
            mp.setattr(hierarchy, "_b_dominant",
                       lambda *args: certified.append(b_dominant(*args)) or certified[-1])
            for theta in (hierarchy.NON_GALERKIN_THETA, 2e-3, 0.1, 1.0):
                mp.setattr(hierarchy, "NON_GALERKIN_THETA_NEGATIVE", theta)
                Ac = galerkin_product(identity, A, b)
                assert_same_csr(Ac, two_pass_galerkin(identity, A, b))
                results.append(Ac)
    assert certified == [dominant] * 4 * sum(not compiled for compiled, _ in paths)
    norm = abs(A).sum(axis=1).max()
    for Ac in results:
        assert (Ac != Ac.T).nnz == 0
        assert_allclose(Ac @ b, A @ b, rtol=0.0, atol=1e-13 * (abs(A) @ abs(b)).max())
        if dominant:
            assert np.linalg.eigvalsh(Ac.toarray())[0] >= -1e-13 * norm
        else:
            assert_same_csr(Ac, results[0])


OPERATOR_CHECKS = {"setup": lambda A: setup(A, SetupConfig()),
                   "strength_graph": lambda A: strength_graph(A, 0.25),
                   "auto_jacobi_omega": auto_jacobi_omega,
                   "check_symmetric": check_symmetric,
                   "ktg": lambda A: ktg(A, np.eye(A.shape[0]), np.ones((A.shape[0], 1)))}
# setup sees every invalid operator; the diagonal ones also reach the
# other two owners of the positive-diagonal rule, with the same message,
# the complex one the other caller of linalg.real_csr, and the non-finite
# ones the owner of the finiteness rule and a caller of it outside setup
CHECKED_OPERATORS = [(case, "setup") for case in sorted(invalid_operators())] + [
    (case, check) for case in ("negative-diagonal", "zero-diagonal")
    for check in ("strength_graph", "auto_jacobi_omega")] + [
    ("complex-hermitian", "strength_graph")] + [
    (case, check) for case in ("nan", "inf") for check in ("check_symmetric", "ktg")]


@pytest.mark.parametrize("case, check", CHECKED_OPERATORS, ids=[
    case if check == "setup" else f"{case}-{check}" for case, check in CHECKED_OPERATORS])
def test_setup_rejects_invalid_operator_by_name(case, check):
    A, cause = invalid_operators()[case]
    with pytest.raises(ValueError, match=cause):
        OPERATOR_CHECKS[check](A)


def test_setup_of_a_scaled_operator_keeps_its_hierarchy():
    """Singularity is judged against A's own scale, so s A builds A's
    levels and interpolation however small or large s is."""
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3)).matrix
    H = setup(A, SetupConfig())
    for s in (1e-30, 1e30):
        scaled = setup(s * A, SetupConfig())
        assert scaled.n_levels == H.n_levels
        for lvl, got in zip(H.levels[:-1], scaled.levels[:-1]):
            assert abs(got.P - lvl.P).max() <= 1e-12 * abs(lvl.P).max()


def test_setup_refuses_a_round_off_singular_operator():
    """A Neumann operator in floating point maps the constant to round-off
    of its diagonal, not to zero; at every scale it is refused."""
    A = assemble(ProblemSpec("rotated_anisotropic", 16, epsilon=1e-3)).matrix.tolil()
    A.setdiag(0.0)
    A = A.tocsr()
    A.setdiag(-np.asarray(A.sum(axis=1)).ravel())
    assert 0.0 < np.abs(A @ np.ones(A.shape[0])).max() < 1e-15
    for s in (1.0, 3.0, 1e6):
        with pytest.raises(ValueError, match="A is singular on candidate 0"):
            setup(s * A, SetupConfig())


def test_dense_operator_builds_the_sparse_operators_hierarchy():
    """linalg.real_csr reads a dense 2-D array as float64 CSR, so setup and
    strength_graph build from A.toarray() what they build from A, to the
    bit, and still refuse a complex or a 1-D array by name."""
    A = assemble(ProblemSpec("rotated_anisotropic", 24, epsilon=1e-3)).matrix
    assert np.all(A.data != 0.0)  # the dense form keeps every stored entry
    cfg = SetupConfig(pattern_degree=2)
    H, dense = setup(A, cfg), setup(A.toarray(), cfg)
    assert H.n_levels == dense.n_levels >= 3
    for lvl, got in zip(H.levels, dense.levels):
        for name in ("A", "P"):
            want, have = getattr(lvl, name), getattr(got, name)
            assert (want is None) == (have is None)
            if want is not None:
                for field in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(want, field), getattr(have, field))
        assert lvl.emin_residuals == got.emin_residuals
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(strength_graph(A, 0.25), field),
                              getattr(strength_graph(A.toarray(), 0.25), field))
    with pytest.raises(ValueError, match=r"A is complex \(complex128\)"):
        setup(A.toarray() + 0j, cfg)
    with pytest.raises(ValueError, match=r"A must be a matrix; got an array of shape \(4,\)"):
        strength_graph(np.ones(4), 0.25)


READ_MALFORMED_OPERATORS = """
import numpy as np
from scipy import sparse
from tracemin_amg.coarsening import strength_graph
from tracemin_amg.hierarchy import SetupConfig, setup

def operator(layout, index, shape):
    major = shape[0] if layout is sparse.csr_matrix else shape[1]
    indptr = [0, 2, 3] + [4] * (major - 2)
    return layout((np.array([2.0, -1.0, 2.0, 2.0]), np.array([0, index, 1, 2], dtype=np.int32),
                   np.array(indptr, dtype=np.int32)), shape=shape)

# the wide CSC operator's index 4 lies inside its 5 columns but past its 3 rows
cases = {"csr": operator(sparse.csr_matrix, 10**9, (3, 3)),
         "csc": operator(sparse.csc_matrix, 10**9, (3, 3)),
         "csc-wide": operator(sparse.csc_matrix, 4, (3, 5))}
calls = {"setup": lambda A: setup(A, SetupConfig(max_coarse=1)),
         "strength_graph": lambda A: strength_graph(A, 0.25)}
for name, A in cases.items():
    for call, read in calls.items():
        try:
            read(A)
            print(name, call, "returned", flush=True)
        except Exception as err:
            print(name, call, type(err).__name__, err, flush=True)
"""


def test_malformed_operator_is_refused_by_name_before_it_is_read():
    """linalg.real_csr checks a CSR or CSC operator's arrays before it
    converts or reads them (linalg.check_compressed): an index past the
    minor dimension, which for CSC is the row count, is refused by name.
    In a subprocess: unchecked, SciPy's own conversions and products read
    and wrote out of bounds, and setup faulted (SIGSEGV)."""
    done = run_isolated(READ_MALFORMED_OPERATORS)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        f"{name} {call} ValueError A stores index {index} outside [0, 3)"
        for name, index in (("csr", 10**9), ("csc", 10**9), ("csc-wide", 4))
        for call in ("setup", "strength_graph")]


def test_setup_reads_an_integer_matrix_as_float64():
    A = sparse.csr_matrix([[2, -1], [-1, 2]])
    H = setup(A, SetupConfig(max_coarse=1))
    assert H.level_sizes() == [2, 1]
    assert H.levels[0].A.dtype == np.float64
    assert strength_graph(A, 0.25).nnz == 2


@pytest.mark.parametrize("shape", [(120, 0), (120, 1, 1), (119,)],
                         ids=["no-column", "three-dimensional", "short"])
def test_candidates_of_the_wrong_shape_are_named(shape):
    pattern = re.escape(f"candidates have shape {shape}")
    with pytest.raises(ValueError, match=pattern):
        setup(lap1d(120), SetupConfig(candidates=np.ones(shape)))
    with pytest.raises(ValueError, match=pattern):
        prepare_candidates(lap1d(120), np.ones(shape))


def test_setup_keeps_its_own_copy_of_the_candidates():
    candidates = np.ones(120)
    H = setup(lap1d(120), SetupConfig(candidates=candidates))
    candidates[0] = 2.0
    assert np.all(H.fine_candidates == 1.0)


def test_setup_rejects_nonfinite_candidates():
    candidates = np.ones(120)
    candidates[4] = np.nan
    with pytest.raises(ValueError, match="candidates have a non-finite entry"):
        setup(lap1d(120), SetupConfig(candidates=candidates))


def test_a_zero_candidate_is_refused_by_its_column():
    candidates = np.column_stack([np.ones(120), np.zeros(120)])
    for raw, k in ((np.zeros(120), 0), (candidates, 1)):
        with pytest.raises(ValueError, match=f"candidate {k} is zero"):
            prepare_candidates(lap1d(120), raw)
        with pytest.raises(ValueError, match=f"candidate {k} is zero"):
            setup(lap1d(120), SetupConfig(candidates=raw))


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


def csr_bytes(M):
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


# tracemalloc's setup peak over the hierarchy's A and P bytes measured
# 1.60 on the case below (2.11 while setup held arrays it no longer
# read); the bound is 1.60 + 0.1.  Lumped coarse levels shrank the
# hierarchy 3.88 -> 2.78 MB, and smaller row blocks and the early free
# of Bhat took the peak 5.94 -> 4.38 MB, a ratio of 1.58.  Lumping at
# theta 5e-4 shrank the hierarchy to 2.27 MB with P stored in CSC; a
# per-row preconditioner, candidate rows gathered per block, a P
# assembled without COO arrays, no copy of P in the Galerkin product and
# the drop tests in row blocks took the peak to 3.59 MB, a ratio of 1.58
# within the full suite.  Run alone in a fresh process the test read
# 1.69-1.71 (compiled path) and 1.68 (Python path), its peak in the
# Galerkin lump loop, so it failed about half the time.  Galerkin row
# blocks of 2^13 entries and a per-slot preconditioner took the peak to
# 3.48 MB run alone, a ratio of 1.53 (compiled) and 1.51 (Python).  A
# Galerkin product that forms only the upper triangle of R (A P), on the
# Python path one row block of R at a time, and coarse operators that no
# longer keep the product's arrays alive behind the views eliminate_zeros
# leaves, read 1.30 (compiled, 2.95 MB) and 1.50 (Python, 3.40 MB) alone
SETUP_FOOTPRINT_RATIO = 1.70


class PeakHolder:
    """A sys.setprofile hook that reads tracemalloc's traced size at every
    call and return, Python or C, and keeps the largest it saw with where
    it was read: the running Python function, a C function's caller, and
    the innermost tracemin_amg function that called it.  Memory that one
    C call allocates and frees shows in tracemalloc's peak alone, so the
    largest size read is at most that peak.  Only names are kept: a kept
    frame or C method would keep its arrays alive."""

    def __init__(self):
        self.size, self.where = 0, None

    def __call__(self, frame, event, arg):
        size = tracemalloc.get_traced_memory()[0]
        if size > self.size:
            caller = frame
            while caller is not None and "tracemin_amg" not in caller.f_code.co_filename:
                caller = caller.f_back
            self.size, self.where = size, (
                f"{frame.f_code.co_name}:{frame.f_lineno}",
                f"{caller.f_code.co_name}:{caller.f_lineno}" if caller else None,
                event, getattr(arg, "__qualname__", None))

    def describe(self):
        running, package, event, called = self.where
        at = f"the {event} of {called}" if event.startswith("c_") else f"its {event}"
        return f"{running} at {at}, within tracemin_amg's {package}"


def traced_setup(A, cfg, hook=None):
    """setup(A, cfg) and tracemalloc's peak during it, with `hook` as the
    profile function."""
    tracemalloc.start()
    sys.setprofile(hook)
    try:
        H = setup(A, cfg)
    finally:
        sys.setprofile(None)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return H, peak


def test_setup_peak_stays_near_the_hierarchy_footprint():
    """What setup allocates at its peak, over the bytes of the finished
    hierarchy's operators and interpolations (the fine A included,
    though it is built before the trace starts).  The peak is measured
    without a hook, whose frames add about 0.08 MB; a failure sets up
    again under PeakHolder and names where the peak sits."""
    A = assemble(ProblemSpec("rotated_anisotropic", 64, epsilon=1e-3)).matrix
    cfg = SetupConfig(mode="constrained", pattern_degree=4)
    H, peak = traced_setup(A, cfg)
    held = sum(csr_bytes(lvl.A) + (csr_bytes(lvl.P) if lvl.P is not None else 0)
               for lvl in H.levels)
    if peak > SETUP_FOOTPRINT_RATIO * held:
        holder = PeakHolder()
        traced_setup(A, cfg, holder)
        pytest.fail(f"setup's traced peak {peak / 1e6:.3f} MB is {peak / held:.3f} times "
                    f"the hierarchy's {held / 1e6:.3f} MB, over {SETUP_FOOTPRINT_RATIO}; "
                    f"the largest size read at a call or return, {holder.size / 1e6:.3f} "
                    f"MB, was held in {holder.describe()}")


def test_galerkin_product_of_a_one_sided_pattern_takes_the_sparse_sum(monkeypatch):
    """SciPy's product forms c_01 of P^T A P as round-off and c_10 as an
    exact zero, which it drops, so its pattern is not symmetric.  The
    operator handed to the drop rule is, on both paths, the sparse sum of
    the product's upper triangle U and the transpose of U's strict upper
    triangle: it stores the upper entry on both sides, exactly symmetric;
    with P's columns swapped the upper entry is the exact zero, and
    neither side is stored.  Both paths give the two-pass reference's
    bits, with and without a candidate."""
    A = sparse.csr_matrix(np.array([[-0.3, 3.0, 0.7], [3.0, -0.1, 0.1], [0.7, 0.1, -1.0]]))
    dense_p = np.array([[3.0, 0.3], [-1.0, -0.1], [-0.1, 1.0]])
    mirrored = []
    drop_and_lump = kernels.drop_and_lump
    monkeypatch.setattr(kernels, "drop_and_lump",
                        lambda Ac, *args: mirrored.append(Ac.copy()) or drop_and_lump(Ac, *args))
    for upper_stored, P in ((True, sparse.csc_matrix(dense_p)),
                            (False, sparse.csc_matrix(dense_p[:, ::-1]))):
        M = P.T.tocsr() @ (A @ P)
        assert M.nnz == 3 and (M[0, 1] != 0.0) == upper_stored == (M[1, 0] == 0.0)
        U = sparse.triu(M, format="csr")
        summed = (U + sparse.triu(U, k=1).T).tocsr()
        summed.sort_indices()
        for b in (None, np.array([1.0, 2.0])):
            got = []
            for _, path in both_paths():
                mirrored.clear()
                with path:
                    got.append(galerkin_product(P, A, b))
                Ac, = mirrored
                assert (Ac != Ac.T).nnz == 0
                assert Ac.nnz == (4 if upper_stored else 2)
                assert Ac[1, 0] == Ac[0, 1] == M[0, 1]
                assert_same_csr(Ac, summed)
            assert_same_csr(got[0], got[1])
            assert_same_csr(got[0], two_pass_galerkin(P, A, b))


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
    ("jacobi_omega", "fast"), ("jacobi_omega", float("inf")), ("jacobi_omega", True),
    ("emin_iters", -1),
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


@pytest.mark.parametrize("mode, extra", [("constrained", 1), ("weighted", 3)])
def test_iteration_budget_defaults_by_mode_and_an_explicit_value_wins(mode, extra):
    for degree in (1, 2, 4):
        cfg = SetupConfig(mode=mode, pattern_degree=degree)
        assert cfg.iteration_budget() == degree + extra
        for iters in (0, 1, degree + 3, 9):
            assert dataclasses.replace(cfg, emin_iters=iters).iteration_budget() == iters


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("spec", [ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3),
                                  ProblemSpec("oscillatory", 32, K=1e6)],
                         ids=["anisotropic", "oscillatory"])
def test_default_constrained_budget_costs_at_most_one_pcg_iteration(spec, degree):
    """The default budget, pattern_degree + 1, against pattern_degree + 3
    on the smoothed constant as the benchmark builds it: the cheaper
    budget costs PCG to 1e-8 at most one iteration."""
    A = assemble(spec).matrix
    cfg = SetupConfig(pattern_degree=degree, candidates=smoothed_constant(A, 5))
    b = np.random.default_rng(3).standard_normal(A.shape[0])

    def pcg_iterations(iters):
        H = setup(A, dataclasses.replace(cfg, emin_iters=iters))
        return len(solve(H, b, tol=1e-8, accel="cg")[1]) - 1

    assert pcg_iterations(None) <= pcg_iterations(degree + 3) + 1


WORK_COUNT_PROBLEMS = {"aniso": ProblemSpec("rotated_anisotropic", 64, epsilon=1e-3),
                       "osc": ProblemSpec("oscillatory", 64, K=1e6)}


WORK_COUNTS = pytest.mark.parametrize("problem, mode, degree, cg_iters, w_slots, pcg_iters", [
    ("aniso", "constrained", 2, [3, 3, 3, 3], [15376, 1285, 1865, 770], 15),
    ("aniso", "weighted", 4, [7, 7, 7, 7], [52093, 2493, 10004, 1227], 55),
    ("osc", "constrained", 2, [0, 3, 3, 3], [7812, 7626, 1910, 471], 8),
    ("osc", "weighted", 4, [3, 7, 7, 7], [30500, 25550, 5919, 1165], 7),
], ids=["aniso-constrained-2", "aniso-weighted-4", "osc-constrained-2", "osc-weighted-4"])


@WORK_COUNTS
def test_setup_and_solve_work_counts_are_pinned(problem, mode, degree, cg_iters, w_slots,
                                                pcg_iters):
    """The work of one setup and solve at n=64, default candidate and tau,
    counted rather than timed, so it gates on any machine: per level the
    minimization's CG iterations and the slots of W (P's entries beyond
    the C points' unit rows), per setup the PCG iterations to 1e-8.  A
    change that moves a count says so and why."""
    A = assemble(WORK_COUNT_PROBLEMS[problem]).matrix
    H = setup(A, SetupConfig(mode=mode, pattern_degree=degree))
    assert [len(lvl.emin_residuals) - 1 for lvl in H.levels[:-1]] == cg_iters
    assert [lvl.P.nnz - lvl.P.shape[1] for lvl in H.levels[:-1]] == w_slots
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    assert len(solve(H, b, tol=1e-8, accel="cg")[1]) - 1 == pcg_iters


@WORK_COUNTS
def test_work_counts_are_pinned_on_the_python_path(problem, mode, degree, cg_iters,
                                                   w_slots, pcg_iters):
    """The same counts where the kernel loader reports no kernel."""
    with python_path():
        test_setup_and_solve_work_counts_are_pinned(problem, mode, degree, cg_iters,
                                                    w_slots, pcg_iters)


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
    setup configuration with the constant or a random normal candidate."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        A = rand_spd_sparse(rng, draw(st.integers(6, 40)),
                            density=draw(st.sampled_from([0.1, 0.3, 1.0])))
    else:
        kind = draw(st.sampled_from(["rotated_anisotropic", "oscillatory"]))
        A = assemble(ProblemSpec(kind, draw(st.integers(3, 8)),
                                 epsilon=draw(st.sampled_from([1.0, 1e-3])),
                                 K=draw(st.sampled_from([1.0, 1e6])))).matrix
    candidates = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        candidates = rng.standard_normal(A.shape[0])
    cfg = SetupConfig(mode=draw(st.sampled_from(["constrained", "weighted"])),
                      tau=draw(st.sampled_from([1e-4, 0.5])),
                      pattern_degree=draw(st.integers(1, 3)),
                      max_levels=draw(st.integers(2, 3)),
                      max_coarse=draw(st.integers(1, A.shape[0] // 3)),
                      candidates=candidates)
    return A, cfg


@settings(max_examples=30, deadline=None)
@given(small_problems())
# candidate entry 28 is -1.58e-10: level 2's diagonal spans 15.9 to
# 2.2e20, where eigvalsh of A_2 itself reads -3.3e4, round-off at its norm
@example((assemble(ProblemSpec("rotated_anisotropic", 7)).matrix,
          SetupConfig(pattern_degree=2, max_levels=3, max_coarse=1,
                      candidates=np.random.default_rng(1056).standard_normal(36))))
def test_vcycle_is_an_spd_preconditioner_and_galerkin_levels_spd(problem):
    """Dense oracles: the V-cycle operator, assembled column by column,
    is symmetric and positive definite.  Every coarse level is exactly
    symmetric and positive definite, judged on D^-1/2 A_c D^-1/2 (a
    congruence; the eigenvalues of A_c itself carry round-off of its
    norm, which a diagonal spanning many orders makes large), and keeps
    the candidate: A_c b equals the dense (P^T A P) b to round-off, b the
    injected candidate.
    It differs from P^T A P off the diagonal only where it stores no
    entry, and no such entry exceeds theta sqrt(a_ii a_jj) of P^T A P,
    theta = NON_GALERKIN_THETA, or NON_GALERKIN_THETA_NEGATIVE for a
    negative one where P^T A P is weakly diagonally dominant once scaled
    by b, all up to the round-off of forming the product, n eps (|P|^T
    |A| |P|)_ij.  A sparse random G can leave a level without any coupling;
    coarsening may stop early only there, so such a coarsest level is
    diagonal."""
    A, cfg = problem
    H = setup(A, cfg)
    coarsest = H.levels[-1].A
    if H.n_levels < cfg.max_levels and coarsest.shape[0] > cfg.max_coarse:
        assert (coarsest - sparse.diags(coarsest.diagonal())).count_nonzero() == 0
    b = H.fine_candidates[:, 0]
    for fine, coarse in zip(H.levels, H.levels[1:]):
        b = b[fine.split.c_points]
        Ac, P, Af = coarse.A.toarray(), fine.P.toarray(), fine.A.toarray()
        dense = P.T @ Af @ P
        round_off = Af.shape[0] * EPS * (abs(P).T @ abs(Af) @ abs(P))
        assert np.array_equal(Ac, Ac.T)
        assert np.all(np.diag(Ac) > 0.0)
        scale = 1.0 / np.sqrt(np.diag(Ac))
        assert np.linalg.eigvalsh(scale[:, None] * Ac * scale)[0] > 0.0
        assert np.all(np.abs(Ac @ b - dense @ b) <= 1e-12 * (abs(dense) @ abs(b)))
        off = ~np.eye(len(b), dtype=bool)
        dropped = off & (Ac == 0.0)
        d = np.diag(dense)
        assert np.all(np.abs(Ac - dense)[off & ~dropped] <= round_off[off & ~dropped])
        slack = d * abs(b) - (abs(dense) * off) @ abs(b)
        certified = np.all(b != 0.0) and np.all(slack >= -(round_off @ abs(b)))
        theta = np.where(certified & (dense < 0.0), hierarchy.NON_GALERKIN_THETA_NEGATIVE,
                         hierarchy.NON_GALERKIN_THETA)
        assert np.all((np.abs(dense) - theta * np.sqrt(np.outer(d, d)))[dropped]
                      <= round_off[dropped])
    n = A.shape[0]
    B = np.column_stack([vcycle(H, 0, e) for e in np.eye(n)])
    assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()
    assert np.linalg.eigvalsh((B + B.T) / 2.0)[0] > 0.0


def test_smoother_weight_keeps_the_vcycle_positive_definite():
    """A draw of the property above (rand_spd_sparse, n = 26, from
    default_rng(373)) whose 10 power steps read rho_10 = 1.19 of
    D^{-1/2} A D^{-1/2}, while its rho is 1.63: the weight 1.5 / rho_10
    put omega rho at 2.06, the Jacobi sweep amplified the highest modes
    and the V-cycle had an eigenvalue of -2.3e-3.  The Ritz value of the
    same power steps caps omega rho at 1.8."""
    rng = np.random.default_rng(373)
    A = rand_spd_sparse(rng, int(rng.integers(6, 41)), density=0.3)
    H = setup(A, SetupConfig(mode="constrained", pattern_degree=1, max_levels=2,
                             max_coarse=1))
    lvl = H.levels[0]
    d = 1.0 / np.sqrt(lvl.diagonal)
    rho = np.linalg.eigvalsh(A.toarray() * np.outer(d, d))[-1]
    assert 1.5 / lvl.relaxation.omega < 0.85 * rho  # rho_10 is far below rho
    assert lvl.relaxation.omega * rho == pytest.approx(1.8, rel=1e-3)
    B = np.column_stack([vcycle(H, 0, e) for e in np.eye(A.shape[0])])
    assert np.linalg.eigvalsh((B + B.T) / 2.0)[0] > 0.0


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("spec, mode", [
    (ProblemSpec("rotated_anisotropic", 64, epsilon=1e-3), "constrained"),
    (ProblemSpec("oscillatory", 64, K=1e6), "constrained"),
    (ProblemSpec("oscillatory", 64, K=1e6), "weighted"),
], ids=["aniso", "osc", "osc-weighted"])
def test_lumped_levels_stay_positive_definite_at_twice_theta(spec, mode, degree, factor,
                                                             monkeypatch):
    """Margin of both lumping thresholds: at NON_GALERKIN_THETA and
    NON_GALERKIN_THETA_NEGATIVE, and at twice both, every coarse level of
    the benchmark's setup (the smoothed constant; weighted at the default
    tau 1e-4) has a dense Cholesky factorization, and V-cycle PCG reaches
    1e-8.  On osc the certificate holds on some products, so their
    negative couplings are lumped at the second threshold; on aniso it
    holds on none.  At theta = 2e-3 (4 NON_GALERKIN_THETA) for both
    signs, rotated anisotropic n=256, degree 4 stops in setup on an
    indefinite level 5.  The certificate's verdicts are read on the
    Python path, and the compiled path builds the same levels."""
    for name in ("NON_GALERKIN_THETA", "NON_GALERKIN_THETA_NEGATIVE"):
        monkeypatch.setattr(hierarchy, name, factor * getattr(hierarchy, name))
    certified = []
    b_dominant = hierarchy._b_dominant
    monkeypatch.setattr(hierarchy, "_b_dominant",
                        lambda *args: certified.append(b_dominant(*args)) or certified[-1])
    A = assemble(spec).matrix
    cfg = SetupConfig(mode=mode, pattern_degree=degree, candidates=smoothed_constant(A, 5))
    with python_path():
        H = setup(A, cfg)
    assert H.n_levels >= 3
    assert any(certified) == (spec.kind == "oscillatory")
    for got, lvl in zip(setup(A, cfg).levels, H.levels, strict=True):
        assert_same_csr(got.A, lvl.A)
    for lvl in H.levels[1:]:
        np.linalg.cholesky(lvl.A.toarray())
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    _, history = solve(H, b, tol=1e-8, accel="cg")
    assert history[-1] <= 1e-8 * history[0]


@settings(max_examples=30, deadline=None)
@given(small_problems())
def test_two_grid_contraction_matches_the_dense_oracle(problem):
    """With two levels and one sweep, the V-cycle's error propagator
    E = I - B A, with B assembled from vcycle columns, has the A-norm of
    the dense two-grid propagator with Jacobi M = diag(A) / omega.  That
    propagator solves P^T A P on the coarse level, so the setup drops only
    round-off couplings.  A draw without coupling is one level, solved
    exactly: E = 0."""
    A, cfg = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hierarchy, "galerkin_product", round_off_galerkin)
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


def reversed_rows(M):
    """The CSR M with each row's entries stored in reverse column order."""
    M = sparse.csr_matrix(M, copy=True)
    M.sort_indices()
    order = np.concatenate([np.arange(M.indptr[i + 1] - 1, M.indptr[i] - 1, -1)
                            for i in range(M.shape[0])]).astype(np.intp)
    return sparse.csr_matrix((M.data[order], M.indices[order], M.indptr.copy()),
                             shape=M.shape)


def array_states(*arrays):
    """Each array's bytes, dtype, shape and flags, to compare before and after."""
    return [(a.tobytes(), a.dtype, a.shape,
             {k: a.flags[k] for k in ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA",
                                      "WRITEABLE", "ALIGNED", "WRITEBACKIFCOPY")})
            for a in arrays]


@settings(max_examples=4, deadline=None)
@given(st.integers(12, 20), st.sampled_from([1.0, 1e-3]), st.integers(0, 2**16))
def test_the_public_calls_leave_their_inputs_as_they_found_them(n, epsilon, seed):
    """setup, solve, strength_graph, cf_split and galerkin_product leave
    every input array's bytes and flags as they found them, on both
    paths, given unsorted CSR rows and an A whose skew is nonzero but
    within check_symmetric's tolerance."""
    rng = np.random.default_rng(seed)
    A = assemble(ProblemSpec("rotated_anisotropic", n, epsilon=epsilon)).matrix
    upper = np.flatnonzero(A.indices > np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)))
    A.data[upper[0]] *= 1.0 + 1e-14
    A = reversed_rows(A)
    assert 0.0 < abs(A - A.T).max() and not A.has_sorted_indices
    candidates, b, x0 = rng.standard_normal((3, A.shape[0]))
    for _, path in both_paths():
        with path:
            inputs = [A.indptr, A.indices, A.data, candidates, b, x0]
            before = array_states(*inputs)
            H = setup(A, SetupConfig(mode="constrained", candidates=candidates))
            solve(H, b, max_iters=3, x0=x0)
            assert array_states(*inputs) == before
            S = reversed_rows(strength_graph(A, 0.25))
            P = reversed_rows(H.levels[0].P)
            coarse = rng.uniform(0.5, 2.0, P.shape[1])
            inputs = [A.indptr, A.indices, A.data, S.indptr, S.indices, S.data,
                      P.indptr, P.indices, P.data, coarse]
            before = array_states(*inputs)
            strength_graph(A, 0.25)
            cf_split(S)
            galerkin_product(P, A)
            galerkin_product(P, A, coarse)
            assert array_states(*inputs) == before
