import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sparse_helpers import rand_spd
from tracemin_amg.linalg import perfect_shuffle
from tracemin_amg.sylvester import (MatrixEquation, hadamard_diag_preconditioner,
                                    sylvester_cg)


def test_preconditioner_formula_instantiation():
    eq = MatrixEquation(np.diag([1.0, 2.0]), np.diag([3.0]), np.eye(2),
                        np.diag([4.0]), np.zeros((2, 1)))
    D = hadamard_diag_preconditioner(eq)
    assert_allclose(D[:, 0], [1.0 / 7.0, 1.0 / 10.0])


def test_preconditioner_sylvester_special_case():
    rng = np.random.default_rng(0)
    A, D = rand_spd(rng, 4), rand_spd(rng, 3)
    eq = MatrixEquation.sylvester(A, D, np.zeros((4, 3)))
    P = hadamard_diag_preconditioner(eq)
    expected = 1.0 / np.add.outer(np.diag(A), np.diag(D))
    assert_allclose(P, expected, rtol=1e-14)


def test_preconditioner_zero_denominator_names_entry():
    A = np.diag([1.0, -2.0])
    B = np.diag([1.0, 1.0, 1.0])
    C = np.eye(2)
    D = np.diag([1.0, 2.0, 3.0])  # A_11 B_jj + C_11 D_jj = 0 at j = 1
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        hadamard_diag_preconditioner(MatrixEquation(A, B, C, D, np.zeros((2, 3))))


def test_diagonal_data_exact_in_one_iteration():
    rng = np.random.default_rng(1)
    A = np.diag(rng.uniform(0.5, 4.0, 5))
    B = np.diag(rng.uniform(0.5, 4.0, 4))
    C = np.diag(rng.uniform(0.5, 4.0, 5))
    D = np.diag(rng.uniform(0.5, 4.0, 4))
    F = rng.standard_normal((5, 4))
    W, history = sylvester_cg(MatrixEquation(A, B, C, D, F), max_iters=10, tol=1e-15)
    assert len(history) == 2  # one iteration after the initial residual
    resid = A @ W @ B + C @ W @ D - F
    assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(F)


def test_zero_rhs_gives_zero():
    rng = np.random.default_rng(2)
    eq = MatrixEquation.sylvester(rand_spd(rng, 3), rand_spd(rng, 3), np.zeros((3, 3)))
    W, history = sylvester_cg(eq)
    assert np.all(W == 0.0)
    assert history == [0.0]


def test_matches_kronecker_dense_oracle():
    rng = np.random.default_rng(3)
    n = m = 6
    A, D = rand_spd(rng, n), rand_spd(rng, m)
    F = rng.standard_normal((n, m))
    eq = MatrixEquation.sylvester(A, D, F)
    W, history = sylvester_cg(eq, max_iters=200, tol=1e-13)
    op = np.kron(eq.B, eq.A) + np.kron(eq.D, eq.C)
    expected = np.linalg.solve(op, F.reshape(-1, order="F")).reshape((n, m), order="F")
    assert np.abs(W - expected).max() <= 1e-8 * np.abs(expected).max()


def test_operator_matches_kronecker_form_via_shuffle():
    # the vectorized operator equals B kron A + D kron C on column-major
    # vec(W); the row-major form is its conjugation by the perfect shuffle
    rng = np.random.default_rng(4)
    n, m = 4, 3
    A, C = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    B, D = rng.standard_normal((m, m)), rng.standard_normal((m, m))
    W = rng.standard_normal((n, m))
    eq = MatrixEquation(A, B.T + B, C, D.T + D, np.zeros((n, m)))
    op = np.kron(eq.B, eq.A) + np.kron(eq.D, eq.C)
    lhs = eq.apply(W).reshape(-1, order="F")
    rhs = op @ W.reshape(-1, order="F")
    assert np.abs(lhs - rhs).max() <= 1e-13 * max(np.abs(rhs).max(), 1.0)
    Y = perfect_shuffle(n, m).matrix()
    op_rowmajor = Y.T @ op @ Y
    rhs_row = op_rowmajor @ W.reshape(-1)
    assert_allclose(eq.apply(W).reshape(-1), rhs_row, atol=1e-12)


def test_preconditioned_residual_monotone():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n, m = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        eq = MatrixEquation.sylvester(rand_spd(rng, n), rand_spd(rng, m),
                                      rng.standard_normal((n, m)))
        Dp = hadamard_diag_preconditioner(eq)
        prev = None
        for k in range(12):
            W, _ = sylvester_cg(eq, max_iters=k, tol=0.0)
            r = eq.F - eq.apply(W)
            norm = np.sqrt(np.sum(r * (Dp * r)))
            if prev is not None:
                assert norm <= prev * (1 + 1e-12)
            prev = norm


def test_indefinite_operator_aborts():
    # rhs lives in the negative eigenspace of the indefinite operator
    F = np.array([[0.0, 0.0], [1.0, 1.0]])
    eq = MatrixEquation.sylvester(np.diag([1.0, -5.0]), np.eye(2), F)
    with pytest.raises(RuntimeError, match="curvature"):
        sylvester_cg(eq, max_iters=10, tol=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        MatrixEquation(np.eye(3), np.eye(2), np.eye(3), np.eye(2), np.zeros((2, 2)))


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "F"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rejects_a_non_finite_entry_by_name(name, value):
    data = {"A": np.eye(2), "B": np.eye(3), "C": np.eye(2), "D": np.eye(3),
            "F": np.ones((2, 3))}
    data[name][1, 0] = value
    with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
        MatrixEquation(**data)


def test_rejects_an_rhs_that_is_not_2d():
    cause = re.escape("F must be a 2-D array; got shape (2,)")
    with pytest.raises(ValueError, match=cause):
        MatrixEquation(np.eye(2), np.eye(1), np.eye(2), np.eye(1), F=np.ones(2))
    with pytest.raises(ValueError, match=cause):
        MatrixEquation.sylvester(np.eye(2), np.eye(1), np.ones(2))


@pytest.mark.parametrize("kwargs, cause", [
    ({"tol": -1.0}, "tol must be >= 0; got -1.0"),
    ({"tol": float("nan")}, "tol must be a finite real number; got nan"),
    ({"tol": float("inf")}, "tol must be a finite real number; got inf"),
    ({"tol": "1e-8"}, "tol must be a finite real number; got '1e-8'"),
    ({"max_iters": -3}, "max_iters must be >= 0; got -3"),
    ({"max_iters": 5.0}, "max_iters must be an integer; got 5.0"),
    ({"max_iters": True}, "max_iters must be an integer; got True"),
], ids=["negative-tol", "nan-tol", "inf-tol", "string-tol", "negative-iters",
        "float-iters", "bool-iters"])
def test_rejects_a_bad_tol_or_max_iters_by_name(kwargs, cause):
    eq = MatrixEquation.sylvester(np.eye(2), np.eye(2), np.ones((2, 2)))
    with pytest.raises(ValueError, match=re.escape(cause)):
        sylvester_cg(eq, **kwargs)
