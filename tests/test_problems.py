import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy import sparse

from tracemin_amg import problems
from tracemin_amg.problems import ProblemSpec, assemble, oscillatory_coefficient


def full_stiffness(spec):
    """The pre-elimination stiffness matrix over all (n+1)^2 mesh nodes,
    from the stencil sums assemble starts from."""
    return problems._stencil_csr(problems._stencil_values(spec), spec.n + 1)


def reference_full_stiffness(spec):
    """The COO assembly the stencil sums replaced: each triangle family
    scattered as an int64 COO matrix with 9 entries per element (cells
    x-major), converted to CSR, and the two families added."""
    n = spec.n
    h = 1.0 / n
    nnodes = (n + 1) ** 2
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a = (i + j * (n + 1)).ravel()
    conns = (np.column_stack([a, a + 1, a + n + 2]), np.column_stack([a, a + n + 2, a + n + 1]))
    if spec.kind == "rotated_anisotropic":
        tensor = problems.diffusion_tensor(spec.epsilon, spec.theta)
        k_lower, k_upper = problems._element_matrices(tensor, h)
        mats = [np.broadcast_to(k, (len(c), 3, 3)) for k, c in zip((k_lower, k_upper), conns)]
    else:
        coeff = oscillatory_coefficient(spec)
        k_lower, k_upper = problems._element_matrices(np.eye(2), h)
        mats = [coeff[c].mean(axis=1)[:, None, None] * k
                for k, c in zip((k_lower, k_upper), conns)]

    def scatter(local_mats, conn):
        rows = np.repeat(conn, 3, axis=1).ravel()
        cols = np.tile(conn, (1, 3)).ravel()
        vals = local_mats.reshape(len(conn), 9).ravel()
        return sparse.coo_matrix((vals, (rows, cols)), shape=(nnodes, nnodes))

    A = (scatter(mats[0], conns[0]) + scatter(mats[1], conns[1])).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def reference_assemble(spec):
    """The reference full matrix with its boundary rows and columns
    dropped by two fancy-index copies."""
    n = spec.n
    ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    interior = ((ix > 0) & (ix < n) & (iy > 0) & (iy < n)).ravel(order="F")
    keep = np.flatnonzero(interior)
    A = reference_full_stiffness(spec)[keep][:, keep].tocsr()
    A.sort_indices()
    return A


@pytest.mark.parametrize("n", [2, 3, 17, 64])
@pytest.mark.parametrize("spec", [
    dict(kind="rotated_anisotropic", epsilon=1e-3),
    dict(kind="rotated_anisotropic", epsilon=1.0, theta=0.3),
    dict(kind="rotated_anisotropic", epsilon=0.37, theta=1.1),
    dict(kind="oscillatory", K=1e6),
    dict(kind="oscillatory", K=3.7),
], ids=["aniso", "isotropic", "aniso-theta", "osc", "osc-inexact-K"])
def test_assembly_bit_identical_to_coo_oracle(spec, n):
    spec = ProblemSpec(n=n, **spec)
    for got, expected in ((full_stiffness(spec), reference_full_stiffness(spec)),
                          (assemble(spec).matrix, reference_assemble(spec))):
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def naive_assembly(spec):
    """Independent per-element oracle: explicit loops, gradients computed
    from vertex coordinates on each triangle."""
    n = spec.n
    h = 1.0 / n
    nodes = {}
    for j in range(n + 1):
        for i in range(n + 1):
            nodes[i + j * (n + 1)] = (i * h, j * h)
    A = np.zeros(((n + 1) ** 2, (n + 1) ** 2))
    if spec.kind == "rotated_anisotropic":
        c, s = math.cos(spec.theta), math.sin(spec.theta)
        Q = np.array([[c, -s], [s, c]])
        tensor = Q.T @ np.diag([1.0, spec.epsilon]) @ Q
        coeff = None
    else:
        tensor = np.eye(2)
        coeff = oscillatory_coefficient(spec)
    for j in range(n):
        for i in range(n):
            a = i + j * (n + 1)
            b, cc, d = a + 1, a + 1 + (n + 1), a + (n + 1)
            for tri in ([a, b, cc], [a, cc, d]):
                pts = np.array([nodes[v] for v in tri])
                # gradients of barycentric basis from the coordinate matrix
                T = np.column_stack([pts[1] - pts[0], pts[2] - pts[0]])
                area = abs(np.linalg.det(T)) / 2.0
                grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
                grads = grads_ref @ np.linalg.inv(T)
                scale = coeff[tri].mean() if coeff is not None else 1.0
                k_loc = scale * area * grads @ tensor @ grads.T
                for p in range(3):
                    for q in range(3):
                        A[tri[p], tri[q]] += k_loc[p, q]
    return A


def interior_index(n, i, j):
    return (i - 1) + (j - 1) * (n - 1)


def test_isotropic_interior_stencil_is_five_point():
    n = 8
    problem = assemble(ProblemSpec("rotated_anisotropic", n, epsilon=1.0, theta=0.3))
    A = problem.matrix.toarray()
    mid = interior_index(n, 4, 4)
    row = A[mid]
    assert_allclose(row[mid], 4.0, atol=1e-13)
    for di, dj, val in [(1, 0, -1.0), (-1, 0, -1.0), (0, 1, -1.0), (0, -1, -1.0),
                        (1, 1, 0.0), (-1, -1, 0.0)]:
        assert_allclose(row[interior_index(n, 4 + di, 4 + dj)], val, atol=1e-13)


def test_isotropic_full_matrix_rows_sum_to_zero():
    spec = ProblemSpec("rotated_anisotropic", 6, epsilon=1.0, theta=0.7)
    A = full_stiffness(spec)
    sums = np.asarray(A.sum(axis=1)).ravel()
    interior = []
    for j in range(1, 6):
        for i in range(1, 6):
            interior.append(i + j * 7)
    assert np.abs(sums[interior]).max() < 1e-13


def test_fully_anisotropic_axis_aligned_stencil():
    n = 6
    problem = assemble(ProblemSpec("rotated_anisotropic", n, epsilon=0.0, theta=0.0))
    A = problem.matrix.toarray()
    mid = interior_index(n, 3, 3)
    row = A[mid]
    expected = np.zeros_like(row)
    expected[mid] = 2.0
    expected[interior_index(n, 2, 3)] = -1.0
    expected[interior_index(n, 4, 3)] = -1.0
    assert_allclose(row, expected, atol=1e-13)


def test_oscillatory_with_unit_coefficient_matches_isotropic():
    A1 = assemble(ProblemSpec("oscillatory", 5, K=1.0)).matrix
    A2 = assemble(ProblemSpec("rotated_anisotropic", 5, epsilon=1.0, theta=0.0)).matrix
    assert_allclose(A1.toarray(), A2.toarray(), atol=1e-13)


def test_oscillatory_positive_definite():
    A = assemble(ProblemSpec("oscillatory", 8, K=1e4)).matrix.toarray()
    w = np.linalg.eigvalsh((A + A.T) / 2)
    assert w[0] > 0.0


def test_oscillatory_matches_naive_oracle():
    spec = ProblemSpec("oscillatory", 4, K=1e3)
    A = full_stiffness(spec).toarray()
    expected = naive_assembly(spec)
    assert_allclose(A, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_rotated_matches_naive_oracle():
    spec = ProblemSpec("rotated_anisotropic", 4, epsilon=0.01, theta=0.42)
    A = full_stiffness(spec).toarray()
    expected = naive_assembly(spec)
    assert_allclose(A, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("spec", [
    ProblemSpec("rotated_anisotropic", 7, epsilon=0.3),
    ProblemSpec("oscillatory", 7, K=100.0),
])
def test_assemblies_are_symmetric(spec):
    A = assemble(spec).matrix
    skew = np.abs((A - A.T).toarray()).max()
    assert skew <= 1e-13 * np.abs(A.toarray()).max()


@pytest.mark.parametrize("epsilon", [1.0, 0.1, 0.001])
def test_positive_definite_small(epsilon):
    A = assemble(ProblemSpec("rotated_anisotropic", 12, epsilon=epsilon)).matrix.toarray()
    assert np.linalg.eigvalsh((A + A.T) / 2)[0] > 0.0


def test_epsilon_zero_definite_after_elimination():
    A = assemble(ProblemSpec("rotated_anisotropic", 8, epsilon=0.0)).matrix.toarray()
    assert np.linalg.eigvalsh((A + A.T) / 2)[0] > 0.0


def test_nnz_grows_linearly():
    # pre-elimination operator reaches the 10% band at m = 16; the
    # eliminated one lags a doubling because its grid is (n-1)^2
    m = 16
    full_m = full_stiffness(ProblemSpec("rotated_anisotropic", m, epsilon=0.4)).nnz
    full_2m = full_stiffness(ProblemSpec("rotated_anisotropic", 2 * m, epsilon=0.4)).nnz
    assert abs(full_2m / full_m - 4.0) <= 0.4
    m = 32
    nnz_m = assemble(ProblemSpec("rotated_anisotropic", m, epsilon=0.4)).matrix.nnz
    nnz_2m = assemble(ProblemSpec("rotated_anisotropic", 2 * m, epsilon=0.4)).matrix.nnz
    assert abs(nnz_2m / nnz_m - 4.0) <= 0.4


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec("rotated_anisotropic", 1)
    with pytest.raises(ValueError):
        ProblemSpec("rotated_anisotropic", 4, epsilon=1.5)
    with pytest.raises(ValueError):
        ProblemSpec("oscillatory", 4, K=0.0)
    with pytest.raises(ValueError):
        ProblemSpec("unknown", 4)
