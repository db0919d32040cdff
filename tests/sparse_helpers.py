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
