"""Acceptance gate: twelve checks covering the exact identities of the
method (shuffle conjugation, operator self-adjointness, unique-solution
oracle, two-grid sharpness, optimal interpolation, matrix-equation
preconditioning, energy-stability bounds) and the desk-scale solver
trends (h-independence, constraint dominance, the iteration plateau,
preconditioner benefit, and the adaptivity study).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
check.
"""

import time
import warnings
from functools import partial

import numpy as np

from sparse_helpers import (dense_operator_and_rhs, jacobi_m, rand_spd, rand_spd_sparse,
                            random_pattern, vec_positions)
from tracemin_amg.coarsening import BlockSplit
from tracemin_amg.energymin import (apply_weighted_operator, build_weighted_system,
                                    pcg_frobenius, prepare_candidates)
from tracemin_amg.experiments import adaptive_constraints
from tracemin_amg.hierarchy import (SetupConfig, measure_convergence_factor, setup)
from tracemin_amg.linalg import perfect_shuffle
from tracemin_amg.problems import ProblemSpec, assemble
from tracemin_amg.relaxation import SpectralEquivalence
from tracemin_amg.sylvester import MatrixEquation, sylvester_cg
from tracemin_amg.theory import (ktg, optimal_interpolation, stability_bounds,
                                 two_grid_error_norm)

warnings.filterwarnings("ignore", category=RuntimeWarning)


def report(index, ok, detail):
    print(f"\n[criterion {index:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {index}: {detail}"


def random_system(rng, n, tau, n_b=2):
    A = rand_spd_sparse(rng, n)
    split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:max(1, n // 3)]))
    pattern = random_pattern(rng, split.n_f, split.n_c)
    B = prepare_candidates(A, rng.standard_normal((n, n_b)))
    return build_weighted_system(A, split, B, SpectralEquivalence(), tau, pattern)


def measured_cf(A, mode, tau, degree, iters=None, theta=0.4, max_levels=25,
                candidates=None, seed=0):
    cfg = SetupConfig(mode=mode, tau=tau, pattern_degree=degree, emin_iters=iters,
                      theta_strength=theta, max_levels=max_levels, candidates=candidates)
    H = setup(A, cfg)
    cf, _ = measure_convergence_factor(H, seed=seed)
    return cf, H


def test_criterion_01_shuffle_conjugation_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    exact = 0
    for _ in range(200):
        nf, nc = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        P = rng.integers(-9, 10, (nf, nf))
        Q = rng.integers(-9, 10, (nc, nc))
        Y = perfect_shuffle(nf, nc).matrix().astype(np.int64)
        exact += np.array_equal(Y @ np.kron(P, Q) @ Y.T, np.kron(Q, P))
    elapsed = time.perf_counter() - start
    report(1, exact == 200 and elapsed < 1.0,
           f"shuffle conjugation exact in {exact}/200 integer instances "
           f"({elapsed:.2f} s)")


def test_criterion_02_weighted_operator_self_adjoint_positive():
    rng = np.random.default_rng(102)
    worst_sym, min_curv = 0.0, np.inf
    for _ in range(100):
        n = int(rng.integers(8, 20))
        for tau in (0.0, 0.5, 1.0):
            sys = random_system(rng, n, tau)
            w = rng.standard_normal(sys.pattern.nnz)
            z = rng.standard_normal(sys.pattern.nnz)
            Lw = apply_weighted_operator(sys, w)
            Lz = apply_weighted_operator(sys, z)
            scale = np.linalg.norm(w) * np.linalg.norm(z)
            worst_sym = max(worst_sym, abs(Lw @ z - w @ Lz) / scale)
            min_curv = min(min_curv, Lw @ w)
    report(2, worst_sym <= 1e-12 and min_curv > 0.0,
           f"self-adjointness defect {worst_sym:.2e} <= 1e-12, "
           f"min curvature {min_curv:.2e} > 0 (100 instances, tau in {{0, 0.5, 1}})")


def test_criterion_03_pcg_matches_vectorized_dense_solve():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 76))            # n_f <= 50
        tau = float(rng.choice([1.0, 0.6, 0.1]))
        sys = random_system(rng, n, tau)
        # SpectralEquivalence() is the X random_system builds with
        L, b, _ = dense_operator_and_rhs(sys, SpectralEquivalence())
        expected = np.linalg.solve(L, b)[vec_positions(sys)]
        w, _ = pcg_frobenius(partial(apply_weighted_operator, sys), sys.Bhat,
                             np.zeros(sys.pattern.nnz), sys.Dprec, 4 * sys.pattern.nnz)
        worst = max(worst, np.linalg.norm(w - expected)
                    / max(np.linalg.norm(expected), 1e-30))
    elapsed = time.perf_counter() - start
    report(3, worst <= 1e-8 and elapsed < 10.0,
           f"worst relative deviation from the dense solve {worst:.2e} <= 1e-8 "
           f"(20 instances, {elapsed:.1f} s)")


def test_criterion_04_two_grid_sharpness():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 13))
        A = rand_spd(rng, n)
        M = jacobi_m(A)
        P = rng.standard_normal((n, int(rng.integers(1, n - 1))))
        gap = abs(two_grid_error_norm(A, M, P) - (1.0 - 1.0 / ktg(A, M, P)))
        worst = max(worst, gap)
    report(4, worst <= 1e-8,
           f"|  ||E_TG||_A - (1 - 1/K_TG) | <= {worst:.2e} over 50 instances")


def test_criterion_05_optimal_interpolation_bound():
    # the reported bound 1 - lambda_{nc+1} is the squared A-norm of the
    # one-relaxation propagator, which equals the symmetric two-grid norm
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(7, 13))
        nc = int(rng.integers(1, n - 2))
        A = rand_spd(rng, n)
        M = jacobi_m(A)
        P_opt, bound = optimal_interpolation(A, M, nc)
        worst = max(worst, abs(two_grid_error_norm(A, M, P_opt) - bound))
    report(5, worst <= 1e-8,
           f"| ||E_TG(P_opt)||_A - (1 - lambda_nc+1) | <= {worst:.2e} over 20 instances")


def test_criterion_06_matrix_equation_preconditioner():
    rng = np.random.default_rng(106)
    diag_ok = True
    for _ in range(10):
        n, m = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        eq = MatrixEquation(np.diag(rng.uniform(0.5, 4.0, n)),
                            np.diag(rng.uniform(0.5, 4.0, m)),
                            np.diag(rng.uniform(0.5, 4.0, n)),
                            np.diag(rng.uniform(0.5, 4.0, m)),
                            rng.standard_normal((n, m)))
        W, _ = sylvester_cg(eq, max_iters=1, tol=0.0)
        resid = np.linalg.norm(eq.apply(W) - eq.F)
        diag_ok &= resid <= 1e-13 * np.linalg.norm(eq.F)
    worst = 0.0
    for _ in range(10):
        n, m = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        eq = MatrixEquation.sylvester(rand_spd(rng, n), rand_spd(rng, m),
                                      rng.standard_normal((n, m)))
        W, _ = sylvester_cg(eq, max_iters=300, tol=1e-13)
        op = np.kron(eq.B, eq.A) + np.kron(eq.D, eq.C)
        expected = np.linalg.solve(op, eq.F.reshape(-1, order="F"))
        dev = np.linalg.norm(W.reshape(-1, order="F") - expected) \
            / np.linalg.norm(expected)
        worst = max(worst, dev)
    report(6, diag_ok and worst <= 1e-8,
           f"diagonal data exact after one iteration: {diag_ok}; "
           f"SPD case vs Kronecker oracle {worst:.2e} <= 1e-8")


def test_criterion_07_energy_stability_chain():
    rng = np.random.default_rng(107)
    worst_lo, worst_hi = -np.inf, -np.inf
    for _ in range(50):
        n = int(rng.integers(8, 15))
        nc = int(rng.integers(2, n - 2))
        A = rand_spd(rng, n)
        split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:nc]))
        P = np.vstack([rng.standard_normal((n - nc, nc)), np.eye(nc)])
        rep = stability_bounds(A, SpectralEquivalence(), split, P)
        worst_lo = max(worst_lo, rep.pr_energy - rep.trace_schur)
        worst_hi = max(worst_hi, rep.trace_schur - rep.trace_plain)
    report(7, worst_lo <= 1e-10 and worst_hi <= 1e-10,
           f"chain slack nonnegative over 50 instances "
           f"(worst violations {worst_lo:.2e}, {worst_hi:.2e})")


def test_criterion_08_solver_baseline_h_independence():
    start = time.perf_counter()
    cfs = {}
    for n in (32, 64):
        A = assemble(ProblemSpec("rotated_anisotropic", n, epsilon=1.0)).matrix
        cfs[n], _ = measured_cf(A, "constrained", 0.0, 2)
    elapsed = time.perf_counter() - start
    ok = cfs[64] <= 0.5 and abs(cfs[32] - cfs[64]) <= 0.1 and elapsed < 30.0
    report(8, ok, f"CF(32) = {cfs[32]:.3f}, CF(64) = {cfs[64]:.3f}, "
                  f"gap {abs(cfs[32] - cfs[64]):.3f} <= 0.1, CF <= 0.5 ({elapsed:.1f} s)")


def test_criterion_09_constraint_dominance():
    details = []
    ok = True
    for eps in (1.0, 0.001):
        A = assemble(ProblemSpec("rotated_anisotropic", 64, epsilon=eps)).matrix
        con = min(measured_cf(A, "constrained", 0.0, 2, iters=k)[0]
                  for k in range(1, 20))
        weighted = [measured_cf(A, "weighted", 0.1, 2, iters=k)[0]
                    for k in range(1, 20)]
        best_w = min(weighted)
        passed = best_w >= con + 0.2 or best_w >= 1.0
        ok &= passed
        details.append(f"eps={eps}: constrained {con:.3f}, weighted(tau=0.1) "
                       f"{best_w:.3f} (gap {best_w - con:+.3f})")
    report(9, ok, "; ".join(details))


def test_criterion_10_iteration_plateau_vs_residual():
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=0.001)).matrix
    cfs, resid = {}, {}
    for iters in (10, 19):
        cf, H = measured_cf(A, "constrained", 0.0, 4, iters=iters)
        cfs[iters] = cf
        resid[iters] = H.levels[0].emin_residuals[-1]
    ok = abs(cfs[10] - cfs[19]) <= 0.05 and resid[19] * 10.0 <= resid[10]
    report(10, ok, f"CF(10) = {cfs[10]:.3f} vs CF(19) = {cfs[19]:.3f} "
                   f"(gap {abs(cfs[10]-cfs[19]):.3f} <= 0.05); residual "
                   f"{resid[10]:.2e} -> {resid[19]:.2e} "
                   f"({resid[10]/max(resid[19], 1e-300):.0f}x smaller)")


def test_criterion_11_preconditioner_benefit():
    A = assemble(ProblemSpec("oscillatory", 32, K=1e6)).matrix
    wins = 0
    for seed in range(10):
        wpd = {}
        cands = adaptive_constraints(A, None, 10, seed=seed)
        for pre in (True, False):
            cfg = SetupConfig(mode="weighted", tau=1e-7, pattern_degree=3,
                              emin_iters=8, use_preconditioner=pre,
                              candidates=cands.vectors)
            H = setup(A, cfg)
            cf, _ = measure_convergence_factor(H, seed=seed)
            cc = H.cycle_complexity()
            wpd[pre] = -cc / np.log10(cf) if 0.0 < cf < 1.0 else np.inf
        wins += wpd[True] <= wpd[False]
    report(11, wins >= 9,
           f"diagonal preconditioning lowered WPD in {wins}/10 seeded runs")


def test_criterion_12_adaptivity_trend():
    # the adaptivity study runs at the classical strength threshold 0.25
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=0.001)).matrix

    def chain(n_vecs, imp, max_levels):
        cands = adaptive_constraints(A, None, imp, seed=0)
        cf, H = measured_cf(A, "constrained", 0.0, 4, theta=0.25,
                            max_levels=max_levels, candidates=cands.vectors)
        for _ in range(n_vecs - 1):
            cands = adaptive_constraints(A, H, imp, seed=0)
            cf, H = measured_cf(A, "constrained", 0.0, 4, theta=0.25,
                                max_levels=max_levels, candidates=cands.vectors)
        return cf

    ok = True
    details = []
    for imp in (2, 10, 25):
        cf1 = chain(1, imp, 25)
        for n_vecs in (2, 3):
            cfk = chain(n_vecs, imp, 25)
            ok &= cfk >= cf1 - 0.05
        details.append(f"imp={imp}: CF(1)={cf1:.3f}")
    tg = chain(1, 25, 2)
    ml = chain(1, 25, 25)
    gap = abs(tg - ml)
    ok &= gap <= 0.05
    report(12, ok, "; ".join(details) +
           f"; extra vectors never improve CF by > 0.05; converged two-grid "
           f"{tg:.3f} vs multilevel {ml:.3f} (gap {gap:.3f} <= 0.05)")
