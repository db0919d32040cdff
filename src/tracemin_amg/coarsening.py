"""Strength of connection, CF splitting, and interpolation sparsity
patterns.

The strength measure is the symmetric scaling |a_ij| / sqrt(a_ii a_jj),
which stays in [0, 1] for SPD matrices; it only selects the strong
edges, and the graph is their symmetric boolean adjacency.  The
splitting is a greedy first pass: the vertex adjacent to the most F
points goes coarse next (ties to the lowest index), and its strong
neighbors become fine.  Starting from an all-zero measure this sweeps
a frontier outward from vertex 0.  One binary heap holds the measures:
a vertex w whose measure reaches m is pushed with the key w - m n, so
the smallest key is the highest measure, ties to the lowest index.
Measures only grow, so a popped key of an assigned vertex is stale and
dropped; with the heap empty, a forward cursor finds the lowest vertex
of measure 0.  Each edge pushes one key at most: O(nnz log N), not one
O(N) scan per C point.  The pass is kernels.greedy_split where it can
be compiled, else _greedy_pass, the same loop in Python.  The strength
graph's one-sided pass and the pattern have compiled kernels too, each
with its NumPy/SciPy code as bit reference and fallback.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import kernels
from .linalg import check_compressed, check_positive_diagonal, real_csr
from .problems import check_count, check_real

__all__ = [
    "BlockSplit",
    "SparsityPattern",
    "strength_graph",
    "cf_split",
    "pattern_distance_k",
]


@dataclass(frozen=True)
class BlockSplit:
    """A CF partition of 0..n-1 into the sorted index arrays c_points
    and f_points.  Interpolation reads the F rows of A through f_blocks.
    """

    c_points: np.ndarray
    f_points: np.ndarray

    @classmethod
    def from_c_points(cls, n, c_points):
        c = np.unique(np.asarray(c_points, dtype=np.int64))
        if len(c) and (c.min() < 0 or c.max() >= n):
            raise ValueError("C-point index out of range")
        is_c = np.zeros(n, dtype=bool)
        is_c[c] = True
        return cls(c, np.flatnonzero(~is_c))

    @property
    def n(self):
        return self.n_c + self.n_f

    @property
    def n_c(self):
        return len(self.c_points)

    @property
    def n_f(self):
        return len(self.f_points)

    def f_blocks(self, A):
        """(A_ff, A_fc): the F rows of A, extracted once, split by column."""
        Af = A[self.f_points]
        return Af[:, self.f_points].tocsr(), Af[:, self.c_points].tocsr()

    def cf_permutation(self):
        """Original indices in CF order (all F points, then all C points)."""
        return np.concatenate([self.f_points, self.c_points])


@dataclass(frozen=True)
class SparsityPattern:
    """Allowed (F-local, C-local) positions of the interpolation weights.

    Stored row-wise like CSR: F row i owns the slots indptr[i]:indptr[i+1]
    with sorted, distinct C-local columns `cols`.  A weight block over the
    pattern is a float64 array of slot values; slot_rows holds the row of
    every slot (int32, like the CSR indices), and to_csr turns slot values
    into the nf x nc matrix.

    empty_f_rows flags F points that reach no C point within the given
    graph distance; callers decide whether that is an error.
    """

    nf: int
    nc: int
    indptr: np.ndarray
    cols: np.ndarray
    slot_rows: np.ndarray = field(init=False, repr=False)
    empty_f_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.diff(self.indptr)
        object.__setattr__(self, "slot_rows",
                           np.repeat(np.arange(self.nf, dtype=np.int32), counts))
        object.__setattr__(self, "empty_f_rows", np.flatnonzero(counts == 0))

    def to_csr(self, values):
        """The weight block with `values` at the slots, explicit zeros kept.
        It shares the index arrays of a pattern_distance_k pattern."""
        return sparse.csr_matrix((values, self.cols, self.indptr), shape=self.shape)

    @property
    def shape(self):
        return (self.nf, self.nc)

    @property
    def nnz(self):
        return len(self.cols)


def strength_graph(A, theta_strength):
    """Symmetrically scaled strength-of-connection graph, as a symmetric
    canonical CSR adjacency with boolean data and no diagonal.

    Edge (i, j) survives iff
        |a_ij| / sqrt(a_ii a_jj) >= theta * max_k |a_ik| / sqrt(a_ii a_kk)
    and the scaled value is positive, and the result is symmetrized by
    union.  The measure is read straight from the CSR arrays of A (row
    maxima by a segmented reduction over the nonempty rows), so A's
    stored order does not matter.
    """
    check_real("theta_strength", theta_strength, 0.0, 1.0)
    A = real_csr(A)
    d = A.diagonal()
    check_positive_diagonal(d)

    S = _strong_couplings(A, d, theta_strength)
    S = S.maximum(S.T).tocsr()  # union symmetrization
    S.sort_indices()
    return S


def _strong_couplings(A, d, theta_strength):
    """The one-sided strength graph of CSR A with diagonal d: the entries
    of each row that pass the threshold, in A's stored order, as boolean
    data.  The pass is kernels.strong_couplings where it can run, which
    holds no per-entry value, else _strong_pass, its bit reference."""
    n = A.shape[0]
    arrays = kernels.strong_couplings(A, d, theta_strength)
    S_indptr, S_cols = _strong_pass(A, d, theta_strength) if arrays is None else arrays
    return sparse.csr_matrix((np.ones(len(S_cols), dtype=bool), S_cols, S_indptr),
                             shape=(n, n))


def _strong_pass(A, d, theta_strength):
    """_strong_couplings' (indptr, indices) in NumPy: the scaled values
    and their repeated row maxima die on return, before the union."""
    n = A.shape[0]
    indptr, cols = A.indptr, A.indices
    counts = np.diff(indptr)
    scale = np.repeat(d, counts)  # d_i at every stored a_ij
    scale *= d[cols]
    np.sqrt(scale, out=scale)
    vals = np.abs(A.data)
    vals /= scale
    del scale
    vals[np.repeat(np.arange(n, dtype=cols.dtype), counts) == cols] = 0.0

    row_max = np.zeros(n)
    nonempty = counts > 0
    starts = indptr[:-1][nonempty]
    row_max[nonempty] = np.maximum.reduceat(vals, starts)
    row_max *= theta_strength
    kept = vals >= np.repeat(row_max, counts)
    kept &= vals > 0.0
    S_indptr = np.zeros(n + 1, dtype=indptr.dtype)
    S_indptr[1:][nonempty] = np.add.reduceat(kept, starts, dtype=indptr.dtype)
    np.cumsum(S_indptr, out=S_indptr)
    return S_indptr, cols[kept]


def _adjacency(S):
    """The graph S as a canonical boolean CSR adjacency: duplicate entries
    are summed, and a stored zero, or entries that sum to zero, are no
    edge.  strength_graph's output already is one and is returned as it
    is, uncopied.  A graph that is not square, or that fails
    linalg.check_compressed (an index outside [0, n), say), raises a
    ValueError that names it before the conversion or a pass reads it."""
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"graph must be square; got shape {S.shape}")
    check_compressed(S, "graph")
    S = S.tocsr()
    if S.dtype != bool or not S.has_canonical_format or not S.data.all():
        S = S.copy()
        S.sum_duplicates()
        S.eliminate_zeros()
        S = S.astype(bool)
    return S


def cf_split(S):
    """Greedy first-pass CF splitting of a strength graph, the symmetric
    CSR adjacency matrix S.

    Repeatedly picks the unassigned vertex adjacent to the most strong
    F points (ties to the lowest index), makes it C and its strong
    neighbors F.  Vertices with no strong edges become C points.  S is
    read as pattern_distance_k reads it (see _adjacency).  The pass (see
    the module docstring) is the compiled kernels.greedy_split where it
    can run, and _greedy_pass, its bit reference, otherwise.
    """
    S = _adjacency(S)
    state = (np.diff(S.indptr) == 0).astype(np.uint8)  # 0 unassigned, 1 C, 2 F
    if kernels.greedy_split(S, state) is None:
        _greedy_pass(S, state)
    return BlockSplit(np.flatnonzero(state == 1), np.flatnonzero(state == 2))


def _greedy_pass(S, state):
    """cf_split's pass in place on state: kernels.greedy_split's loop in Python."""
    n = S.shape[0]
    # memoryviews index numpy buffers as Python ints without copying
    # them into lists (about 36 B per entry)
    indptr, indices = memoryview(S.indptr), memoryview(S.indices)
    flags = bytearray(state.tobytes())  # indexes faster than the array
    measure = [0] * n
    heap, cursor, remaining = [], 0, flags.count(0)
    heappush, heappop = heapq.heappush, heapq.heappop
    while remaining:
        while heap and flags[heap[0] % n]:
            heappop(heap)  # the stale key of an assigned vertex
        if heap:
            v = heappop(heap) % n
        else:
            while flags[cursor]:
                cursor += 1
            v = cursor
        flags[v] = 1
        remaining -= 1
        for u in indices[indptr[v]:indptr[v + 1]]:
            if flags[u]:
                continue
            flags[u] = 2
            remaining -= 1
            for w in indices[indptr[u]:indptr[u + 1]]:
                if not flags[w]:
                    m = measure[w] + 1
                    measure[w] = m
                    heappush(heap, w - m * n)
    state[:] = np.frombuffer(flags, dtype=np.uint8)


def pattern_distance_k(S, split, k):
    """Interpolation pattern reaching C points within k strength edges.

    (i, j) is allowed iff F point i is reachable from C point j by a
    path of at most k edges in the strength graph.  The compiled
    kernels.distance_k_pattern searches breadth first from each F point
    to depth k.  Its bit reference, and the path where it cannot run, is
    a boolean SpGEMM, whose sums are logical ORs, so path counts never
    overflow: the pattern is adj[F] @ (adj + I)^(k-1) restricted to the C
    columns, evaluated right to left so each product has only n_c
    columns.  S is read as cf_split reads it (see _adjacency).
    """
    check_count("k", k, minimum=1)
    adj = _adjacency(S)
    arrays = kernels.distance_k_pattern(adj, split, k)
    if arrays is None:
        eye = sparse.identity(adj.shape[0], dtype=bool, format="csr")
        step, reach = adj + eye, eye[:, split.c_points]
        for _ in range(k - 1):
            reach = step @ reach
        block = adj[split.f_points] @ reach
        block.sort_indices()
        arrays = block.indptr, block.indices
    return SparsityPattern(split.n_f, split.n_c, *arrays)
