import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy import sparse

from sparse_helpers import csr_from_triplets, lap1d
from tracemin_amg.linalg import (POWER_STEPS, Permutation, check_symmetric, dense_sym_eig,
                                 estimate_spectral_norm, perfect_shuffle,
                                 read_matrix_market, write_matrix_market)
from tracemin_amg.problems import ProblemSpec, assemble


# csr_from_triplets (sparse_helpers.py) builds the fixtures of five test
# modules; these checks keep it canonical: sorted, duplicates summed,
# bounds checked.
def test_csr_from_triplets_tridiagonal():
    A = csr_from_triplets([(0, 0, 2), (0, 1, -1), (1, 0, -1), (1, 1, 2)], 2, 2)
    assert_allclose(A.toarray(), [[2, -1], [-1, 2]])
    assert np.array_equal(A.indptr, [0, 2, 4])


def test_csr_from_triplets_sums_duplicates():
    A = csr_from_triplets([(0, 0, 1), (0, 0, 1)], 1, 1)
    assert A.nnz == 1
    assert A[0, 0] == 2.0


def test_csr_from_triplets_empty():
    A = csr_from_triplets([], 3, 3)
    assert np.array_equal(A.indptr, [0, 0, 0, 0])
    assert A.nnz == 0


def test_csr_from_triplets_rejects_out_of_range():
    with pytest.raises(ValueError):
        csr_from_triplets([(0, 3, 1.0)], 2, 3)
    with pytest.raises(ValueError):
        csr_from_triplets([(-1, 0, 1.0)], 2, 3)


def test_matrix_market_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    dense = np.triu(rng.standard_normal((5, 5)))
    dense = dense + dense.T
    trips = [(i, j, dense[i, j]) for i in range(5) for j in range(5) if dense[i, j]]
    A = csr_from_triplets(trips, 5, 5)
    path = tmp_path / "mat.mtx"
    write_matrix_market(path, A, symmetry="symmetric")
    header = path.read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix coordinate real")
    B = read_matrix_market(path)
    assert_allclose(B.toarray(), A.toarray(), rtol=1e-15)


def test_permutation_validates_bijection():
    with pytest.raises(ValueError):
        Permutation(3, np.array([0, 0, 2]))


@pytest.mark.parametrize("nf", [2.5, True])
def test_perfect_shuffle_names_a_dimension_that_is_not_an_integer(nf):
    with pytest.raises(ValueError, match=f"nf must be an integer; got {nf}"):
        perfect_shuffle(nf, 2)


@pytest.mark.parametrize("form", [np.asarray, sparse.csr_matrix])
def test_check_symmetric_takes_dense_and_sparse_alike(form):
    with pytest.raises(ValueError, match=r"must be square; got shape \(2, 3\)"):
        check_symmetric(form(np.ones((2, 3))))
    with pytest.raises(ValueError, match="not symmetric: max skew 5.000e-01"):
        check_symmetric(form([[2.0, -1.0], [-0.5, 2.0]]))
    check_symmetric(form([[2.0, -1.0], [-1.0 - 1e-13, 2.0]]))  # within SYMMETRY_RTOL


def test_read_matrix_market_returns_float64(tmp_path):
    path = tmp_path / "int.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n2 2 4\n")
    A = read_matrix_market(path)
    assert A.dtype == np.float64
    assert_allclose(A.toarray(), [[3.0, 0.0], [0.0, 4.0]])


def test_perfect_shuffle_degenerate_is_identity():
    for nf, nc in ((1, 5), (4, 1)):
        Y = perfect_shuffle(nf, nc)
        assert np.array_equal(Y.forward, np.arange(nf * nc))


def test_perfect_shuffle_2x2():
    Y = perfect_shuffle(2, 2)
    assert np.array_equal(Y.forward, [0, 2, 1, 3])


def test_perfect_shuffle_reorders_vectorizations():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((3, 5))
    Y = perfect_shuffle(3, 5)
    assert_allclose(W.reshape(-1)[Y.forward], W.reshape(-1, order="F"))


def test_perfect_shuffle_swaps_kronecker_factors():
    rng = np.random.default_rng(2)
    P = rng.integers(-5, 6, (3, 3))
    Q = rng.integers(-5, 6, (2, 2))
    Y = perfect_shuffle(3, 2).matrix()
    assert np.array_equal(Y @ np.kron(P, Q) @ Y.T, np.kron(Q, P))


def test_perfect_shuffle_inverse_is_transposed_shape():
    for nf in range(1, 9):
        for nc in range(1, 9):
            inverse = np.argsort(perfect_shuffle(nf, nc).forward)
            assert np.array_equal(inverse, perfect_shuffle(nc, nf).forward)


def test_dense_sym_eig_identity():
    w, V = dense_sym_eig(np.eye(3))
    assert_allclose(w, [1, 1, 1])
    assert_allclose(V @ V.T, np.eye(3), atol=1e-14)


def test_dense_sym_eig_analytic_2x2():
    w, _ = dense_sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(w, [1.0, 3.0], atol=1e-14)


def test_dense_sym_eig_laplacian_spectrum():
    n = 4
    A = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    w, _ = dense_sym_eig(A)
    expected = [2 - 2 * np.cos(k * np.pi / (n + 1)) for k in range(1, n + 1)]
    assert_allclose(w, expected, atol=1e-12)


def test_dense_sym_eig_generalized_residual():
    rng = np.random.default_rng(6)
    G = rng.standard_normal((9, 9))
    A = G + G.T
    H = rng.standard_normal((9, 9))
    B = H @ H.T + 9 * np.eye(9)
    w, V = dense_sym_eig(A, B)
    norm_a = np.linalg.norm(A, 2)
    for k in range(9):
        resid = A @ V[:, k] - w[k] * (B @ V[:, k])
        assert np.linalg.norm(resid) <= 1e-10 * norm_a
    assert_allclose(V.T @ B @ V, np.eye(9), atol=1e-10)


def test_dense_sym_eig_rejects_asymmetric():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        dense_sym_eig(A)


def test_dense_sym_eig_rejects_indefinite_b():
    A = np.eye(3)
    B = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        dense_sym_eig(A, B)


def jacobi_scaled(A):
    """D^{-1/2} A D^{-1/2} as a dense array, the operator behind the
    smoother weight."""
    d = 1.0 / np.sqrt(A.diagonal())
    return A.toarray() * np.outer(d, d)


def spectral_norm_cases():
    G = np.random.default_rng(8).standard_normal((60, 60))
    return {"lap1d-20": lap1d(20).toarray(), "lap1d-200": lap1d(200).toarray(),
            "random-spd": G @ G.T,
            "aniso-32": jacobi_scaled(assemble(ProblemSpec(
                "rotated_anisotropic", 32, epsilon=1e-3)).matrix),
            "osc-32": jacobi_scaled(assemble(ProblemSpec("oscillatory", 32, K=1e6)).matrix)}


# the fraction of rho below which the estimate of a positive semidefinite
# operator may not fall; these cases measure 0.93 to 0.97
SPECTRAL_NORM_FRACTION = 0.85
# and the Ritz estimate's, which these cases measure at 0.983 to 1
RITZ_FRACTION = 0.97


@pytest.mark.parametrize("case", sorted(spectral_norm_cases()))
def test_estimate_spectral_norm_is_a_close_lower_bound(case):
    """The estimate is a Rayleigh quotient, never above rho, and after
    POWER_STEPS power steps it is within 15% of rho on these operators.
    The Ritz value of the steps' Krylov space is at least the estimate,
    whose last vector lies in that space, and within 3% of rho."""
    M = spectral_norm_cases()[case]
    rho = np.abs(np.linalg.eigvalsh(M)).max()
    estimate, ritz = estimate_spectral_norm(lambda v: M @ v, M.shape[0])
    assert SPECTRAL_NORM_FRACTION * rho <= estimate <= rho * (1 + 1e-12)
    assert max(estimate, RITZ_FRACTION * rho) <= ritz * (1 + 1e-9)
    assert ritz <= rho * (1 + 1e-9)


def test_ritz_estimate_is_the_krylov_projection_top():
    """On an operator with a three-dimensional space the power steps'
    Krylov space is the whole space, so the Ritz value is rho, while the
    Rayleigh quotient is still below it.  On a diagonal operator with a
    slowly converging top, the Ritz value is the largest eigenvalue of
    the operator projected on the Krylov space, formed here by a dense
    QR of its basis, to the 0.2% that the dropped Gram directions cost,
    and above the Rayleigh quotient by far more."""
    M = np.diag([3.0, 1.0, 0.5])
    estimate, ritz = estimate_spectral_norm(lambda v: M @ v, 3)
    assert estimate < 3.0 and ritz == pytest.approx(3.0, rel=1e-9)
    d = np.linspace(0.0, 1.0, 200)
    v = np.random.default_rng(12345).standard_normal(200)
    Q, _ = np.linalg.qr(np.column_stack([d ** j * v for j in range(POWER_STEPS)]))
    projected = np.linalg.eigvalsh(Q.T @ (d[:, None] * Q))[-1]
    estimate, ritz = estimate_spectral_norm(lambda x: d * x, 200)
    assert 0.997 * projected <= ritz <= projected * (1 + 1e-9)
    assert estimate < 0.97 * ritz


def test_estimate_spectral_norm_of_indefinite_and_zero_operators():
    # |v^T M v| <= rho for any unit v, but eigenvalues of both signs can
    # cancel in it, so an indefinite operator gets the bound alone
    G = np.random.default_rng(9).standard_normal((60, 60))
    M = G + G.T
    estimate, ritz = estimate_spectral_norm(lambda v: M @ v, 60)
    rho = np.abs(np.linalg.eigvalsh(M)).max()
    assert 0.0 < estimate <= rho * (1 + 1e-12)
    assert estimate <= ritz * (1 + 1e-9) and ritz <= rho * (1 + 1e-9)
    assert estimate_spectral_norm(np.zeros_like, 5) == (0.0, 0.0)
