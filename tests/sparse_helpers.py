"""Small matrices, patterns and dense oracles shared by the test modules."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import tracemin_amg
from tracemin_amg import kernels
from tracemin_amg.coarsening import SparsityPattern


@contextlib.contextmanager
def python_path():
    """The library's Python path inside the block: the kernel loader
    reports no kernel, so every compiled pass of setup runs its bit
    reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "library", lambda: None)
        yield


def both_paths():
    """(compiled, context manager) of the compiled path, the kernels as
    the loader finds them (compiled is False, and the path the Python
    one, where none can be built), and of the Python path."""
    return [(kernels.library() is not None, contextlib.nullcontext()),
            (False, python_path())]


def run_isolated(script):
    """Run `script` in a fresh interpreter that imports this checkout's
    package and these helpers, for calls that may fault: a crash then
    ends the subprocess, not the suite.  Returns the CompletedProcess."""
    paths = [Path(tracemin_amg.__file__).parents[1], Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)


def malformed_graphs():
    """Graphs that SciPy builds, with no full format check, although their
    CSR or CSC arrays point outside themselves, each with a pattern of
    the ValueError that refuses it.  The index 10^9 lies far past every
    array: the compiled pass, or SciPy's conversion of the CSC graph to
    CSR, would read and write there."""
    def graph(indices, indptr, shape, layout=sparse.csr_matrix):
        return layout((np.ones(len(indices), dtype=bool), np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int32)), shape=shape)

    return {
        "index-past-n": (graph([1, 10**9], [0, 2, 2, 2], (3, 3)),
                         r"index 1000000000 outside \[0, 3\)"),
        "csc-index-past-n": (graph([1, 10**9], [0, 2, 2, 2], (3, 3), sparse.csc_matrix),
                             r"index 1000000000 outside \[0, 3\)"),
        "negative-index": (graph([-1, 1], [0, 2, 2, 2], (3, 3)),
                           r"index -1 outside \[0, 3\)"),
        "falling-pointers": (graph([1, 0], [0, 2, 1, 2], (3, 3)), "index pointers fall"),
        "not-square": (graph([2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5], (5, 7)),
                       r"must be square; got shape \(5, 7\)"),
    }


def malformed_patterns(pattern):
    """SparsityPattern arguments (nf, nc, indptr, cols) made from a valid
    pattern with at least two slots in row 1 by breaking one of its rules,
    each with a pattern of the ValueError that refuses it.  Column
    nc - 1 + 10^8 lies far past every candidate array: unchecked, the
    compiled Gram pass read there."""
    nf, nc, indptr, cols = pattern.nf, pattern.nc, pattern.indptr, pattern.cols
    s = int(indptr[1])  # row 1's first slot, followed by another in row 1

    def column(k, value):
        broken = cols.copy()
        broken[k] = value
        return broken

    falling = indptr.copy()
    falling[1] = indptr[2] + 1
    return {
        "column-far-past-nc": ((nf, nc, indptr, column(s, nc - 1 + 10**8)),
                               rf"index {nc - 1 + 10**8} outside \[0, {nc}\)"),
        "column-nc": ((nf, nc, indptr, column(s, nc)), rf"index {nc} outside \[0, {nc}\)"),
        "negative-column": ((nf, nc, indptr, column(s, -1)), "index -1 outside"),
        "repeated-column": ((nf, nc, indptr, column(s + 1, cols[s])),
                            "columns do not rise strictly in row 1"),
        "falling-columns": ((nf, nc, indptr, column(s, cols[s + 1] + 1)),
                            "columns do not rise strictly in row 1"),
        "short-indptr": ((nf, nc, indptr[:-1], cols),
                         rf"indptr has {nf} entries; expected nf \+ 1"),
        "indptr-from-1": ((nf, nc, indptr + 1, cols), "indptr runs from 1 to"),
        "falling-indptr": ((nf, nc, falling, cols), "pattern's index pointers fall"),
        "indptr-past-cols": ((nf, nc, indptr, cols[:-1]),
                             rf"indptr runs from 0 to {len(cols)}; expected 0 to "
                             rf"len\(cols\) = {len(cols) - 1}"),
    }


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


def rand_spd_sparse(rng, n, density=0.3):
    """G G^T + n I in CSR for a standard normal G with about `density`
    of its entries kept."""
    G = rng.standard_normal((n, n))
    G[rng.random((n, n)) > density] = 0.0
    return sparse.csr_matrix(G @ G.T + n * np.eye(n))


def rand_spd(rng, n, shift=None):
    """The dense G G^T + shift I for a standard normal n x n G; shift
    defaults to n."""
    G = rng.standard_normal((n, n))
    return G @ G.T + (n if shift is None else shift) * np.eye(n)


def jacobi_m(A):
    """A diagonal relaxation of the dense A scaled to be A-convergent."""
    D = np.diag(np.diag(A))
    rho = np.abs(np.linalg.eigvals(np.linalg.solve(D, A))).max()
    return D * rho


def random_pattern(rng, nf, nc, fill=0.5):
    """Random pattern with at least one entry per row, with int32 index
    arrays as pattern_distance_k builds them (the compiled kernels read
    int32 indices alone)."""
    pairs = set()
    for i in range(nf):
        cols = np.flatnonzero(rng.random(nc) < fill)
        if len(cols) == 0:
            cols = [int(rng.integers(nc))]
        pairs.update((i, int(j)) for j in cols)
    rows = np.array(sorted(pairs))
    indptr = np.zeros(nf + 1, dtype=np.int32)
    np.add.at(indptr[1:], rows[:, 0], 1)
    return SparsityPattern(nf, nc, np.cumsum(indptr, dtype=np.int32),
                           rows[:, 1].astype(np.int32))


def vec_positions(sys):
    """The column-major vec(W) position of every slot of a weighted system,
    in int64: the int32 pattern indices would overflow at nf * nc >= 2^31."""
    return sys.pattern.cols.astype(np.int64) * sys.pattern.nf + sys.pattern.slot_rows


def dense_operator_and_rhs(sys, X):
    """Vectorized oracle: the restricted operator of a weighted system as
    a dense matrix on column-major vec(W), with unit diagonal outside the
    pattern, its right-hand side and the mask of the pattern; X is the
    SpectralEquivalence the system was built with."""
    nf, nc = sys.pattern.nf, sys.pattern.nc
    N = nf * nc
    A_ff = sys.A_ff.toarray()
    X_ff = np.diag(X.diagonal(A_ff.diagonal()))
    L = sys.tau * np.kron(np.eye(nc), A_ff) \
        + X.c2 * (1.0 - sys.tau) * np.kron(sys.B_c @ sys.B_c.T, X_ff)
    inside = np.zeros(N, dtype=bool)
    inside[vec_positions(sys)] = True
    L[~inside, :] = 0.0
    L[:, ~inside] = 0.0
    L[~inside, ~inside] = 1.0
    b = np.zeros(N)
    b[vec_positions(sys)] = sys.Bhat
    return L, b, inside


def invalid_operators(n=120):
    """Matrices that setup must reject, each with a pattern of the cause
    its error names.  The 1-D Laplacians have n > 100 rows, so setup's
    default max_coarse lets the singular one reach its first level."""
    def edited(entries, dtype=np.float64):
        A = lap1d(n).astype(dtype).tolil()
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
        "complex-hermitian": (edited({(0, 1): -1 + 1j, (1, 0): -1 - 1j}, complex),
                              r"A is complex \(complex128\)"),
        "neumann": (edited({(0, 0): 1.0, (n - 1, n - 1): 1.0}),
                    "singular on candidate 0"),
    }
