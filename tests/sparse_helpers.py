"""Small sparse matrices shared by the test modules."""

import numpy as np
from scipy import sparse


def csr_from_triplets(triplets, nrows, ncols):
    """Canonical CSR from (row, col, value) triplets: duplicates summed,
    column indices sorted, explicitly stored zeros kept."""
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    A = sparse.coo_matrix((np.asarray(vals, dtype=np.float64),
                           (np.asarray(rows, dtype=np.int64),
                            np.asarray(cols, dtype=np.int64))),
                          shape=(nrows, ncols)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def lap1d(n):
    """The 1-D Dirichlet Laplacian tridiag(-1, 2, -1) of size n."""
    trips = [(i, i, 2.0) for i in range(n)]
    trips += [(i, i + 1, -1.0) for i in range(n - 1)]
    trips += [(i + 1, i, -1.0) for i in range(n - 1)]
    return csr_from_triplets(trips, n, n)


def invalid_operators(n=120):
    """Matrices that setup must reject, each with a pattern of the cause
    its error names.  The 1-D Laplacians have n > 100 rows, so setup's
    default max_coarse lets the singular one reach its first level."""
    def edited(entries):
        A = lap1d(n).tolil()
        for (i, j), value in entries.items():
            A[i, j] = value
        return A.tocsr()

    return {
        "rectangular": (lap1d(n)[:, :-1], r"must be square; got shape \(120, 119\)"),
        "nan": (edited({(3, 3): np.nan}), "non-finite entry"),
        "inf": (edited({(3, 4): np.inf, (4, 3): np.inf}), "non-finite entry"),
        "nonsymmetric": (edited({(0, 1): -0.5}), "not symmetric: max skew 5.000e-01"),
        "skew-above-tolerance": (edited({(0, 1): -1.0 - 1e-11}), "not symmetric"),
        "zero-diagonal": (edited({(5, 5): 0.0}),
                          "non-positive diagonal entry: a_ii = 0 at row 5"),
        "negative-diagonal": (edited({(7, 7): -2.0}),
                              "non-positive diagonal entry: a_ii = -2 at row 7"),
        "neumann": (edited({(0, 0): 1.0, (n - 1, n - 1): 1.0}),
                    "singular on candidate 0"),
    }
