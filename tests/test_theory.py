import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sparse_helpers import jacobi_m, rand_spd
from tracemin_amg.coarsening import BlockSplit
from tracemin_amg.relaxation import SpectralEquivalence, symmetrized_mtilde
from tracemin_amg.theory import (TheoryReport, approximation_constants, full_report,
                                 ideal_interpolation, ktg,
                                 optimal_interpolation, stability_bounds,
                                 two_grid_error_norm)


def lap1d(n):
    return 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def random_instance(rng, n=None):
    n = int(rng.integers(6, 13)) if n is None else n
    A = rand_spd(rng, n)
    M = jacobi_m(A)
    nc = int(rng.integers(1, n - 1))
    P = rng.standard_normal((n, nc))
    return A, M, P


def a_norm_oracle(A, E):
    """Spectral radius of E, equal to ||E||_A for A-symmetric E."""
    return np.abs(np.linalg.eigvals(E)).max()


def test_etg_zero_for_exact_relaxation():
    rng = np.random.default_rng(0)
    A, _, P = random_instance(rng, 8)
    assert two_grid_error_norm(A, A, P) <= 1e-12


def test_etg_matches_spectral_radius_oracle():
    rng = np.random.default_rng(1)
    A, M, P = random_instance(rng, 10)
    n = A.shape[0]
    I = np.eye(n)
    pi_a = P @ np.linalg.solve(P.T @ A @ P, P.T @ A)
    E = (I - np.linalg.solve(M.T, A)) @ (I - pi_a) @ (I - np.linalg.solve(M, A))
    assert abs(two_grid_error_norm(A, M, P) - a_norm_oracle(A, E)) <= 1e-10


def test_etg_near_exact_coarse_space():
    # P spans all but the worst eigenvector of the relaxed problem: the
    # two-grid norm equals the contribution of the missed mode
    rng = np.random.default_rng(2)
    n = 9
    A = rand_spd(rng, n)
    M = jacobi_m(A)
    Mt = symmetrized_mtilde(A, M)
    from tracemin_amg.linalg import dense_sym_eig
    lam, V = dense_sym_eig(A, Mt)
    P = V[:, :n - 1]
    e = two_grid_error_norm(A, M, P)
    assert abs(e - (1.0 - lam[n - 1])) <= 1e-10


def test_etg_rejects_rank_deficient_p():
    rng = np.random.default_rng(3)
    A, M, _ = random_instance(rng, 8)
    P = np.ones((8, 2))
    with pytest.raises(ValueError, match="rank"):
        two_grid_error_norm(A, M, P)


def test_ktg_sharpness_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A, M, P = random_instance(rng)
        e = two_grid_error_norm(A, M, P)
        k = ktg(A, M, P)
        assert abs(e - (1.0 - 1.0 / k)) <= 1e-8


def test_ktg_optimal_coarse_space():
    rng = np.random.default_rng(5)
    n = 11
    A = rand_spd(rng, n)
    M = jacobi_m(A)
    Mt = symmetrized_mtilde(A, M)
    from tracemin_amg.linalg import dense_sym_eig
    lam, V = dense_sym_eig(A, Mt)
    nc = 4
    assert abs(ktg(A, M, V[:, :nc]) - 1.0 / lam[nc]) <= 1e-8


def test_ktg_exact_relaxation_limit():
    rng = np.random.default_rng(6)
    A, _, P = random_instance(rng, 8)
    assert abs(ktg(A, A, P) - 1.0) <= 1e-10
    assert two_grid_error_norm(A, A, P) <= 1e-10


def test_ktg_degenerate_full_range():
    rng = np.random.default_rng(7)
    A, M, _ = random_instance(rng, 6)
    with pytest.raises(ValueError):
        ktg(A, M, np.eye(6))


def test_ideal_interpolation_decoupled_blocks():
    A = np.diag([2.0, 3.0, 4.0, 5.0])
    split = BlockSplit.from_c_points(4, [2, 3])
    P = ideal_interpolation(A, split)
    assert_allclose(P, np.vstack([np.zeros((2, 2)), np.eye(2)]))


def test_ideal_interpolation_laplacian_half_half():
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    P = ideal_interpolation(A, split)
    assert_allclose(P[:2], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], atol=1e-14)


def test_ideal_interpolation_trace_minimality():
    rng = np.random.default_rng(8)
    n, nc = 10, 4
    A = rand_spd(rng, n)
    split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:nc]))
    perm = split.cf_permutation()
    Ap = A[np.ix_(perm, perm)]
    P_ideal = ideal_interpolation(A, split)
    t_ideal = np.trace(P_ideal.T @ Ap @ P_ideal)
    for _ in range(100):
        P = np.vstack([rng.standard_normal((n - nc, nc)), np.eye(nc)])
        assert t_ideal <= np.trace(P.T @ Ap @ P) + 1e-10


def test_optimal_interpolation_exact_relaxation():
    rng = np.random.default_rng(9)
    A = rand_spd(rng, 8)
    _, bound = optimal_interpolation(A, A, 3)
    assert abs(bound) <= 1e-10


def test_optimal_interpolation_formula_at_nc_n_minus_one():
    rng = np.random.default_rng(10)
    A = rand_spd(rng, 7)
    M = jacobi_m(A)
    Mt = symmetrized_mtilde(A, M)
    from tracemin_amg.linalg import dense_sym_eig
    lam, _ = dense_sym_eig(A, Mt)
    _, bound = optimal_interpolation(A, M, 6)
    assert abs(bound - (1.0 - lam[6])) <= 1e-12


def test_optimal_interpolation_attains_bound():
    rng = np.random.default_rng(11)
    A = rand_spd(rng, 12)
    M = jacobi_m(A)
    P_opt, bound = optimal_interpolation(A, M, 4)
    # the bound is the squared one-relaxation two-grid norm, which equals
    # the symmetric (pre + post) norm that two_grid_error_norm measures
    assert abs(two_grid_error_norm(A, M, P_opt) - bound) <= 1e-8


def test_stability_bounds_diagonal_matrix():
    rng = np.random.default_rng(12)
    A = np.diag(rng.uniform(0.5, 3.0, 8))
    split = BlockSplit.from_c_points(8, [4, 5, 6, 7])
    P = np.vstack([np.zeros((4, 4)), np.eye(4)])
    report = stability_bounds(A, SpectralEquivalence(), split, P)
    assert abs(report.pr_energy - 1.0) <= 1e-12


def test_a_split_with_no_f_point_leaves_the_f_block_unmeasured():
    """With every point C (a diagonal matrix has no strong coupling),
    kappa_s and c2_meas stay None, as ktg does when P spans the space."""
    A = 2.0 * np.eye(3)
    split = BlockSplit.from_c_points(3, [0, 1, 2])
    P = ideal_interpolation(A, split)
    report = full_report(A, jacobi_m(A), SpectralEquivalence(), split, P)
    assert report.kappa_s is None and report.c2_meas is None and report.ktg is None
    assert abs(report.etg_norm) <= 1e-12
    assert_allclose([report.pr_energy, report.trace_schur, report.trace_plain],
                    [1.0, 3.0, 3.0], rtol=1e-12)
    assert report.beta_wap == 0.0 and report.beta_sap == 0.0


def test_stability_bounds_chain_nonnegative_slack():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 14
        nc = int(rng.integers(2, 8))
        A = rand_spd(rng, n)
        split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:nc]))
        P = np.vstack([rng.standard_normal((n - nc, nc)), np.eye(nc)])
        report = stability_bounds(A, SpectralEquivalence(), split, P)
        assert report.pr_energy <= report.trace_schur + 1e-10
        assert report.trace_schur <= report.trace_plain + 1e-10
        assert 0.0 < report.kappa_s <= report.c2_meas


def test_stability_bounds_ideal_projection_norm():
    rng = np.random.default_rng(14)
    n, nc = 12, 5
    A = rand_spd(rng, n)
    split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:nc]))
    P = ideal_interpolation(A, split)
    report = stability_bounds(A, SpectralEquivalence(), split, P)
    # oracle: ||pi||_A^2 for pi = P R, via the A-symmetrized singular value
    perm = split.cf_permutation()
    Ap = A[np.ix_(perm, perm)]
    R = np.hstack([np.zeros((nc, n - nc)), np.eye(nc)])
    w, V = np.linalg.eigh(Ap)
    Ah = (V * np.sqrt(w)) @ V.T
    Ahi = (V / np.sqrt(w)) @ V.T
    expected = np.linalg.norm(Ah @ (P @ R) @ Ahi, 2) ** 2
    assert abs(report.pr_energy - expected) <= 1e-10 * expected


def test_approximation_constants_square_p():
    rng = np.random.default_rng(15)
    A = rand_spd(rng, 7)
    P = rng.standard_normal((7, 7))
    beta_wap, beta_sap = approximation_constants(A, P)
    assert beta_wap == 0.0 and beta_sap == 0.0


def test_approximation_constants_piecewise_constant_trend():
    # piecewise constants: fine for two-level convergence (bounded weak
    # constant), not multilevel (growing strong constant)
    waps, saps = [], []
    for n in (16, 32, 64):
        A = lap1d(n)
        P = np.kron(np.eye(n // 2), np.array([[1.0], [1.0]]))
        bw, bs = approximation_constants(A, P)
        waps.append(bw)
        saps.append(bs)
    assert saps[0] < saps[1] < saps[2]
    assert saps[2] > 4 * saps[0]
    assert max(waps) <= 2 * min(waps)


def test_approximation_constants_ideal_consistency():
    rng = np.random.default_rng(16)
    n, nc = 12, 5
    A = rand_spd(rng, n)
    split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:nc]))
    perm = split.cf_permutation()
    Ap = A[np.ix_(perm, perm)]
    P = ideal_interpolation(A, split)
    beta_wap, beta_sap = approximation_constants(Ap, P)
    lam_min = np.linalg.eigvalsh(Ap)[0]
    norm_a = np.linalg.norm(Ap, 2)
    assert np.isfinite(beta_sap)
    assert beta_sap >= beta_wap * lam_min / norm_a - 1e-10


def test_wap_bounds_chain_with_measured_constants():
    # c1 (X-form) <= K_TG <= c2 (X-form) for X = diag(A) and measured
    # equivalence constants of X against the symmetrized relaxation
    rng = np.random.default_rng(17)
    from tracemin_amg.linalg import dense_sym_eig
    for _ in range(10):
        A, M, P = random_instance(rng)
        Mt = symmetrized_mtilde(A, M)
        X = np.diag(np.diag(A))
        w_eq, _ = dense_sym_eig(Mt, X)
        c1, c2 = w_eq[0], w_eq[-1]
        G = X - X @ P @ np.linalg.solve(P.T @ X @ P, P.T @ X)
        w_x, _ = dense_sym_eig((G + G.T) / 2, A)
        k_x = w_x[-1]
        k = ktg(A, M, P)
        assert c1 * k_x <= k * (1 + 1e-10)
        assert k <= c2 * k_x * (1 + 1e-10)


def test_full_report_populates_all_fields():
    rng = np.random.default_rng(18)
    n, nc = 10, 4
    A = rand_spd(rng, n)
    split = BlockSplit.from_c_points(n, np.sort(rng.permutation(n)[:nc]))
    P = ideal_interpolation(A, split)
    M = jacobi_m(A)
    report = full_report(A, M, SpectralEquivalence(), split, P)
    fields = dataclasses.fields(TheoryReport)
    assert len(fields) == 9
    lines = str(report).split("\n")
    assert len(lines) == len(fields)
    for field, line in zip(fields, lines):
        assert getattr(report, field.name) is not None
        assert re.fullmatch(r".{18} [ -][0-9]\.[0-9]{12}e[+-][0-9]{2}", line)
        assert line.startswith(field.metadata["label"])


def test_report_prints_only_computed_fields_and_needs_a_label_for_each():
    assert str(TheoryReport()) == ""
    assert str(TheoryReport(ktg=2.0, beta_sap=-0.5)) == \
        "K_TG                2.000000000000e+00\nbeta_sap           -5.000000000000e-01"
    unlabelled = dataclasses.make_dataclass("Unlabelled", [("extra", float, None)],
                                            bases=(TheoryReport,))
    with pytest.raises(KeyError, match="label"):
        str(unlabelled(extra=1.0))
