import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sparse_helpers import invalid_operators, lap1d, rand_spd
from tracemin_amg.experiments import smoothed_constant
from tracemin_amg.hierarchy import SetupConfig, setup
from tracemin_amg.linalg import dense_sym_eig
from tracemin_amg.problems import ProblemSpec, assemble
from tracemin_amg.relaxation import (OMEGA_COEFFICIENT, Relaxation, SpectralEquivalence,
                                     auto_jacobi_omega, relax_sweep, symmetrized_mtilde)


def is_a_convergent(A, M):
    """True iff M + M^T - A is SPD, i.e. relaxation with M contracts
    the A-norm of the error."""
    A = np.asarray(A, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    S = M + M.T - A
    S = (S + S.T) / 2.0
    w, _ = dense_sym_eig(S)
    scale = np.linalg.norm(A, 2)
    return bool(w[0] > 1e-12 * scale)


def test_jacobi_single_sweep_from_zero():
    A = lap1d(4)
    b = np.array([1.0, 2.0, -1.0, 0.5])
    x = relax_sweep(Relaxation(omega=1.0, sweeps=1), A, np.zeros(4), b)
    assert_allclose(x, b / 2.0)


def test_relaxation_fixed_point():
    A = lap1d(6)
    x_exact = np.linspace(0.0, 1.0, 6)
    b = A @ x_exact
    x = relax_sweep(Relaxation(omega=1.0, sweeps=3), A, x_exact.copy(), b)
    assert_allclose(x, x_exact, atol=1e-14)


@pytest.mark.parametrize("x, b, message", [
    (np.zeros(3), np.ones(4), "b has shape (4,); expected a vector of length 3, "
                              "the dimension of A"),
    (np.zeros((3, 1)), np.ones(3), "x has shape (3, 1); expected a vector of length 3"),
], ids=["b", "x"])
def test_relax_sweep_names_a_vector_of_the_wrong_shape(x, b, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        relax_sweep(Relaxation(), lap1d(3), x, b)


def test_relax_sweep_rejects_zero_diagonal():
    """A zero or a negative diagonal entry is named as setup names it."""
    for case in ("zero-diagonal", "negative-diagonal"):
        A, cause = invalid_operators()[case]
        with pytest.raises(ValueError, match=cause):
            relax_sweep(Relaxation(), A, np.zeros(A.shape[0]), np.ones(A.shape[0]))


@pytest.mark.parametrize("kwargs, message", [
    ({"omega": 0.0}, "omega must be > 0; got 0.0"),
    ({"omega": float("inf")}, "omega must be a finite real number; got inf"),
    ({"omega": True}, "omega must be a finite real number; got True"),
    ({"sweeps": 0}, "sweeps must be >= 1; got 0"),
    ({"sweeps": 1.5}, "sweeps must be an integer; got 1.5"),
], ids=["zero-omega", "inf-omega", "bool-omega", "zero-sweeps", "float-sweeps"])
def test_relaxation_validation(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Relaxation(**kwargs)


def test_mtilde_equals_a_for_exact_relaxation():
    rng = np.random.default_rng(0)
    A = rand_spd(rng, 5)
    assert_allclose(symmetrized_mtilde(A, A), A, rtol=1e-12, atol=1e-12)


def test_mtilde_symmetric_m_formula():
    rng = np.random.default_rng(1)
    A = rand_spd(rng, 5)
    D = np.diag(np.diag(A))
    expected = D @ np.linalg.solve(2 * D - A, D)
    assert_allclose(symmetrized_mtilde(A, D), expected, rtol=1e-12)


def test_mtilde_product_identity():
    rng = np.random.default_rng(2)
    A = rand_spd(rng, 6)
    M = np.tril(A)
    Mt = symmetrized_mtilde(A, M)
    I = np.eye(6)
    lhs = I - np.linalg.solve(Mt, A)
    rhs = (I - np.linalg.solve(M, A)) @ (I - np.linalg.solve(M.T, A))
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_mtilde_symmetric_positive_definite():
    rng = np.random.default_rng(3)
    A = rand_spd(rng, 7)
    M = np.tril(A)  # Gauss-Seidel is A-convergent for SPD A
    assert is_a_convergent(A, M)
    Mt = symmetrized_mtilde(A, M)
    assert np.abs(Mt - Mt.T).max() <= 1e-12 * np.abs(Mt).max()
    assert np.linalg.eigvalsh((Mt + Mt.T) / 2)[0] > 0.0


def test_is_a_convergent_exact_and_half():
    rng = np.random.default_rng(4)
    A = rand_spd(rng, 5)
    assert is_a_convergent(A, A)
    assert not is_a_convergent(A, A / 2.0)


def test_is_a_convergent_jacobi_on_laplacian():
    A = lap1d(10).toarray()
    D = np.diag(np.diag(A))
    assert is_a_convergent(A, D)  # lambda_max(D^{-1}A) < 2


def test_a_convergent_sweep_decreases_energy():
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = int(rng.integers(5, 50))
        A = rand_spd(rng, n)
        M = np.tril(A)
        assert is_a_convergent(A, M)
        x = rng.standard_normal(n)
        y = x - np.linalg.solve(M, A @ x)  # one forward Gauss-Seidel sweep
        assert y @ (A @ y) < x @ (A @ x)


def test_spectral_equivalence_diagonal():
    A = lap1d(4)
    X = SpectralEquivalence(x_kind="diag")
    assert_allclose(X.diagonal(A.diagonal()), [2.0, 2.0, 2.0, 2.0])
    assert_allclose(SpectralEquivalence(x_kind="identity").diagonal(A.diagonal()), np.ones(4))
    with pytest.raises(ValueError):
        SpectralEquivalence(x_kind="other")
    with pytest.raises(ValueError):
        SpectralEquivalence(c2=0.0)


def test_auto_jacobi_omega_is_a_convergent():
    A = lap1d(20)
    omega = auto_jacobi_omega(A)
    M = np.diag(np.asarray(A.diagonal())) / omega
    assert is_a_convergent(A.toarray(), M)


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("spec", [ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3),
                                  ProblemSpec("oscillatory", 32, K=1e6)],
                         ids=["aniso", "osc"])
def test_auto_jacobi_omega_is_safe_on_every_level(spec, degree):
    """omega rho(D^{-1} A) < 2 on every relaxed level of a constrained
    hierarchy, so each Jacobi sweep contracts the A-norm of the error;
    and omega >= OMEGA_COEFFICIENT / rho, since the estimate is a lower
    bound on rho.  rho is the dense eigvalsh of D^{-1/2} A D^{-1/2}."""
    A = assemble(spec).matrix
    H = setup(A, SetupConfig(pattern_degree=degree, candidates=smoothed_constant(A, 5)))
    assert H.n_levels >= 3
    for lvl in H.levels[:-1]:
        d = 1.0 / np.sqrt(lvl.A.diagonal())
        rho = np.linalg.eigvalsh(lvl.A.toarray() * np.outer(d, d))[-1]
        assert lvl.relaxation.omega == auto_jacobi_omega(lvl.A)
        assert OMEGA_COEFFICIENT * (1 - 1e-12) <= lvl.relaxation.omega * rho < 2.0
