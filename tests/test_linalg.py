import numpy as np
import pytest
from numpy.testing import assert_allclose

from sparse_helpers import csr_from_triplets
from tracemin_amg.linalg import (Permutation, dense_sym_eig, perfect_shuffle,
                                 read_matrix_market, write_matrix_market)


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
