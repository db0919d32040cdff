"""Strength of connection, CF splitting, and interpolation sparsity
patterns.

The strength measure is the symmetric scaling |a_ij| / sqrt(a_ii a_jj),
which stays in [0, 1] for SPD matrices and keeps the graph symmetric
for both benchmark problems.  The splitting is a greedy first pass:
the vertex adjacent to the most F points goes coarse next (ties to the
lowest index), and its strong neighbors become fine.  Starting from an
all-zero measure this sweeps a frontier outward from vertex 0.  The
measures are kept in Ruge-Stueben style buckets, one min-heap of
vertex indices per measure value, so the pass costs O(nnz log N)
rather than one O(N) scan per C point.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

__all__ = [
    "BlockSplit",
    "SparsityPattern",
    "strength_graph",
    "cf_split",
    "pattern_distance_k",
]


@dataclass(frozen=True)
class BlockSplit:
    """A CF partition of 0..n-1.

    c_points and f_points are sorted index arrays and is_c marks the
    side of each index.  Interpolation reads the F rows of A through
    f_blocks.
    """

    c_points: np.ndarray
    f_points: np.ndarray
    is_c: np.ndarray

    @classmethod
    def from_c_points(cls, n, c_points):
        c = np.unique(np.asarray(c_points, dtype=np.int64))
        if len(c) and (c.min() < 0 or c.max() >= n):
            raise ValueError("C-point index out of range")
        is_c = np.zeros(n, dtype=bool)
        is_c[c] = True
        return cls(c, np.flatnonzero(~is_c), is_c)

    @property
    def n(self):
        return len(self.is_c)

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
    with sorted C-local columns `cols`.  A weight block over the pattern
    is a float64 array of slot values; slot_rows holds the row of every
    slot, and to_csr turns slot values into the nf x nc matrix.

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
                           np.repeat(np.arange(self.nf, dtype=np.int64), counts))
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
    canonical CSR matrix with values in [0, 1] and no diagonal.

    Edge (i, j) survives iff
        |a_ij| / sqrt(a_ii a_jj) >= theta * max_k |a_ik| / sqrt(a_ii a_kk)
    and the scaled value is positive, and the result is symmetrized by
    union.  The measure is read straight from the CSR arrays of A (row
    maxima by a segmented reduction over the nonempty rows), so A's
    stored order does not matter.
    """
    if not (0.0 <= theta_strength <= 1.0):
        raise ValueError("theta_strength must lie in [0, 1]")
    A = A.tocsr()
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise ValueError("strength measure requires a positive diagonal")

    S = _strong_couplings(A, d, theta_strength)
    # union symmetrization; overlapping entries carry the same scaled value
    S = S.maximum(S.T).tocsr()
    S.sort_indices()
    return S


def _strong_couplings(A, d, theta_strength):
    """The one-sided strength graph of CSR A with diagonal d: the entries
    of each row that pass the threshold, in A's stored order.  Its
    temporaries die on return, before the union symmetrization."""
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
    return sparse.csr_matrix((vals[kept], cols[kept], S_indptr), shape=(n, n))


def cf_split(S):
    """Greedy first-pass CF splitting of a strength graph, the symmetric
    CSR adjacency matrix S.

    Repeatedly picks the unassigned vertex adjacent to the most strong
    F points (ties to the lowest index), makes it C and its strong
    neighbors F.  Vertices with no strong edges become C points.

    The measures live in buckets, one per value.  Bucket m > 0 is a
    min-heap of the vertex indices whose measure reached m; bucket 0 is
    the ascending list of vertices with edges, read with a cursor since
    nothing is ever pushed there.  When a vertex turns F, each of its
    unassigned neighbors w gets measure[w] += 1 and is pushed into
    bucket measure[w].  `top` is the highest bucket that may hold an
    unassigned vertex.  Measures only grow, so no unassigned vertex
    has a measure above `top`, and every one in bucket `top` has
    measure exactly `top`: entries of assigned vertices are the only
    stale ones, and they are dropped when they reach the front.  The
    front of bucket `top` is thus the highest measure with ties to the
    lowest index.  Each edge pushes at most once, so the pass costs
    O(nnz log N).
    """
    if not S.has_canonical_format:
        S = S.copy()
        S.sum_duplicates()  # a repeated entry is one edge
    n = S.shape[0]
    # memoryviews index numpy buffers as Python ints without copying
    # them into lists (about 36 B per entry)
    indptr = memoryview(S.indptr)
    indices = memoryview(S.indices)

    is_c = np.diff(S.indptr) == 0
    zero_bucket = memoryview(np.flatnonzero(~is_c))
    remaining = len(zero_bucket)
    # a measure counts F points pointing at the vertex: at most its column count
    max_measure = int(np.bincount(S.indices, minlength=1).max())
    buckets = [[] for _ in range(max_measure + 1)]
    state = bytearray(is_c.tobytes())  # 0 unassigned, 1 C, 2 F
    measure = memoryview(np.zeros(n, dtype=np.int64))
    top = 0
    cursor = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    while remaining:
        while top:
            heap = buckets[top]
            while heap and state[heap[0]]:
                heappop(heap)
            if heap:
                break
            top -= 1
        if top:
            v = heappop(buckets[top])
        else:
            while state[zero_bucket[cursor]]:
                cursor += 1
            v = zero_bucket[cursor]
            cursor += 1

        state[v] = 1
        remaining -= 1
        for u in indices[indptr[v]:indptr[v + 1]]:
            if state[u]:
                continue
            state[u] = 2
            remaining -= 1
            for w in indices[indptr[u]:indptr[u + 1]]:
                if not state[w]:
                    m = measure[w] + 1
                    measure[w] = m
                    heappush(buckets[m], w)
                    if m > top:
                        top = m

    c_points = np.flatnonzero(np.frombuffer(state, dtype=np.uint8) == 1)
    return BlockSplit.from_c_points(n, c_points)


def pattern_distance_k(S, split, k):
    """Interpolation pattern reaching C points within k strength edges.

    (i, j) is allowed iff F point i is reachable from C point j by a
    path of at most k edges in the strength graph.  Reach is a boolean
    SpGEMM, whose sums are logical ORs, so path counts never overflow:
    the pattern is adj[F] @ (adj + I)^(k-1) restricted to the C columns,
    evaluated right to left so each product has only n_c columns.
    """
    if k < 1:
        raise ValueError("pattern degree must be at least 1")
    adj = (S != 0).tocsr()
    eye = sparse.identity(adj.shape[0], dtype=bool, format="csr")
    step, reach = adj + eye, eye[:, split.c_points]
    for _ in range(k - 1):
        reach = step @ reach
    block = adj[split.f_points] @ reach
    block.sort_indices()
    return SparsityPattern(split.n_f, split.n_c, block.indptr, block.indices)
