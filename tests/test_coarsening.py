import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse

from sparse_helpers import (both_paths, csr_from_triplets, lap1d, malformed_graphs,
                            run_isolated)
from tracemin_amg import hierarchy, kernels
from tracemin_amg.coarsening import (BlockSplit, cf_split, pattern_distance_k,
                                     strength_graph)
from tracemin_amg.problems import ProblemSpec, assemble


def test_strength_zero_threshold_keeps_all_offdiagonal():
    A = assemble(ProblemSpec("rotated_anisotropic", 6, epsilon=0.2)).matrix
    S = strength_graph(A, 0.0)
    offdiag = A.copy()
    offdiag.setdiag(0.0)
    offdiag.eliminate_zeros()
    assert S.nnz == offdiag.nnz
    assert np.all(S.diagonal() == 0.0)


def test_strength_unit_threshold_keeps_row_maxima():
    # path graph with one strong and one weak coupling
    A = csr_from_triplets([(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0),
                           (0, 1, -1.0), (1, 0, -1.0),
                           (1, 2, -0.1), (2, 1, -0.1)], 3, 3)
    S = strength_graph(A, 1.0)
    dense = S.toarray()
    assert dense[0, 1] > 0 and dense[1, 0] > 0
    # edge (1,2) is not row 1's maximum, but it is row 2's (union symmetrization)
    assert dense[1, 2] > 0 and dense[2, 1] > 0


def test_strength_anisotropic_keeps_only_x_direction():
    n = 8
    problem = assemble(ProblemSpec("rotated_anisotropic", n, epsilon=0.001, theta=0.0))
    S = strength_graph(problem.matrix, 0.25)
    adj = S.tocoo()
    for i, j in zip(adj.row, adj.col):
        # x-neighbors differ by 1 in the interior numbering (row-major by y)
        assert abs(i - j) == 1


def test_strength_graph_is_a_symmetric_boolean_adjacency():
    A = assemble(ProblemSpec("oscillatory", 8, K=1e3)).matrix
    S = strength_graph(A, 0.25)
    assert S.format == "csr" and S.dtype == bool and S.has_canonical_format
    assert S.nnz > 0 and S.data.all()
    assert not S.diagonal().any()
    T = S.T.tocsr()
    T.sort_indices()
    assert np.array_equal(S.indptr, T.indptr)
    assert np.array_equal(S.indices, T.indices)


def reference_strength_graph(A, theta_strength):
    """The COO strength graph: off-diagonal entries with a positive
    scaled value, row maxima by np.maximum.at, union symmetrization."""
    A = A.tocsr()
    n = A.shape[0]
    d = A.diagonal()
    C = A.tocoo()
    off = C.row != C.col
    rows, cols = C.row[off], C.col[off]
    vals = np.abs(C.data[off]) / np.sqrt(d[rows] * d[cols])
    keep0 = vals > 0.0
    rows, cols, vals = rows[keep0], cols[keep0], vals[keep0]
    row_max = np.zeros(n)
    np.maximum.at(row_max, rows, vals)
    kept = vals >= theta_strength * row_max[rows]
    S = sparse.coo_matrix((vals[kept], (rows[kept], cols[kept])), shape=(n, n)).tocsr()
    S = S.maximum(S.T).tocsr()
    S.sort_indices()
    return S


@st.composite
def symmetric_operators(draw):
    """Symmetric matrices with a positive diagonal whose off-diagonal
    couplings repeat a few magnitudes (so row maxima tie), include
    explicitly stored zeros and leave some rows with no off-diagonal
    entry; optionally stored with each row's columns shuffled."""
    n = draw(st.integers(0, 12))
    iu, ju = np.triu_indices(n, k=1)
    couplings = [None, None, 0.0, -1.0, -0.5, 0.25, -1e-3, 3.0]
    upper = draw(st.lists(st.sampled_from(couplings), min_size=len(iu), max_size=len(iu)))
    diag = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 7.0]), min_size=n, max_size=n))
    stored = np.array([v is not None for v in upper], dtype=bool)
    values = np.array([0.0 if v is None else v for v in upper])[stored]
    rows = np.concatenate([np.arange(n), iu[stored], ju[stored]])
    cols = np.concatenate([np.arange(n), ju[stored], iu[stored]])
    vals = np.concatenate([diag, values, values])
    order = np.lexsort((cols, rows))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        order = np.lexsort((rng.random(len(rows)), rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.searchsorted(rows, np.arange(n + 1))
    A = sparse.csr_matrix((vals, cols, indptr), shape=(n, n))
    return A, draw(st.sampled_from([0.0, 0.25, 0.4, 1.0]))


@settings(max_examples=100, deadline=None)
@given(symmetric_operators())
def test_strength_matches_coo_reference(case):
    A, theta = case
    S = strength_graph(A, theta)
    expected = reference_strength_graph(A, theta)
    assert np.array_equal(S.indptr, expected.indptr)
    assert np.array_equal(S.indices, expected.indices)
    assert S.dtype == bool and S.data.all()


def test_strength_rejects_nonpositive_diagonal():
    A = csr_from_triplets([(0, 0, -1.0), (1, 1, 1.0)], 2, 2)
    with pytest.raises(ValueError):
        strength_graph(A, 0.25)


def test_cf_split_path_graph():
    S = strength_graph(lap1d(5), 0.25)
    split = cf_split(S)
    assert np.array_equal(split.c_points, [0, 2, 4])
    assert np.array_equal(split.f_points, [1, 3])


def test_cf_split_diagonal_matrix_all_coarse():
    A = csr_from_triplets([(i, i, 1.0) for i in range(4)], 4, 4)
    split = cf_split(strength_graph(A, 0.25))
    assert np.array_equal(split.c_points, np.arange(4))
    assert split.n_f == 0


def test_cf_split_complete_graph():
    trips = [(i, i, 2.0) for i in range(4)]
    trips += [(i, j, -0.5) for i in range(4) for j in range(4) if i != j]
    split = cf_split(strength_graph(csr_from_triplets(trips, 4, 4), 0.25))
    assert np.array_equal(split.c_points, [0])
    assert np.array_equal(split.f_points, [1, 2, 3])


def test_cf_split_deterministic():
    A = assemble(ProblemSpec("rotated_anisotropic", 10, epsilon=0.01)).matrix
    s1 = cf_split(strength_graph(A, 0.25))
    s2 = cf_split(strength_graph(A, 0.25))
    assert np.array_equal(s1.c_points, s2.c_points)


def test_cf_split_coarsening_ratio_band():
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1.0)).matrix
    split = cf_split(strength_graph(A, 0.25))
    ratio = split.n_c / split.n
    assert 0.2 <= ratio <= 0.6


def reference_c_points(adj):
    """The original quadratic greedy pass: one argmax over all measures
    per C point (argmax takes the lowest tied index)."""
    n = adj.shape[0]
    indptr, indices = adj.indptr, adj.indices
    state = np.zeros(n, dtype=np.int8)  # 0 unassigned, 1 C, -1 F
    state[np.diff(indptr) == 0] = 1
    measure = np.where(state == 0, 0, -1).astype(np.int64)
    remaining = int(np.sum(state == 0))
    while remaining > 0:
        v = int(np.argmax(measure))
        state[v] = 1
        measure[v] = -1
        remaining -= 1
        for u in indices[indptr[v]:indptr[v + 1]]:
            if state[u] == 0:
                state[u] = -1
                measure[u] = -1
                remaining -= 1
                nbrs = indices[indptr[u]:indptr[u + 1]]
                measure[nbrs[state[nbrs] == 0]] += 1
    return np.flatnonzero(state == 1)


@st.composite
def symmetric_strength_graphs(draw):
    """Symmetric graphs from empty to complete, split into two vertex
    ranges with no edge between them (so isolated vertices and several
    components are common), stored as canonical CSR, with unsorted
    columns and some edges repeated, or as a canonical boolean adjacency
    with int64 index arrays, which only the Python pass reads."""
    n = draw(st.integers(0, 24))
    grades = draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    density = draw(st.integers(0, 4))  # edge iff grade < density: 0 none, 4 all
    cut = draw(st.integers(0, n))
    iu, ju = np.triu_indices(n, k=1)
    grades = np.array(grades, dtype=np.int64)
    keep = (grades < density) & ((iu < cut) == (ju < cut))
    rows = np.concatenate([iu[keep], ju[keep]])
    cols = np.concatenate([ju[keep], iu[keep]])
    layout = draw(st.sampled_from(["canonical", "raw", "int64"]))
    if layout == "raw":
        # raw CSR, columns in reverse order, edges of grade 0 stored twice
        copies = np.tile(1 + (grades[keep] == 0), 2)
        order = np.lexsort((-cols, rows))
        rows, cols, copies = rows[order], cols[order], copies[order]
        rows, cols = np.repeat(rows, copies), np.repeat(cols, copies)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        adj = sparse.csr_matrix((np.full(len(cols), 0.5), cols, indptr), shape=(n, n))
    else:
        adj = sparse.csr_matrix((np.full(len(rows), 0.5), (rows, cols)), shape=(n, n))
    if layout == "int64":
        # set after construction, which would cast the indices to int32
        adj = adj.astype(bool)
        adj.indptr, adj.indices = adj.indptr.astype(np.int64), adj.indices.astype(np.int64)
    return adj


@settings(max_examples=200, deadline=None)
@given(symmetric_strength_graphs())
def test_cf_split_matches_reference_on_random_graphs(S):
    """The compiled pass and the Python pass split every graph as the
    quadratic reference does.  The kernel declines int64 indices, so on
    those graphs both paths run the Python pass."""
    c_points = reference_c_points(S)
    if S.indices.dtype == np.int64:
        state = np.zeros(S.shape[0], dtype=np.uint8)
        assert kernels.greedy_split(S, state) is None and not state.any()
    for _, path in both_paths():
        with path:
            split = cf_split(S)
        assert np.array_equal(split.c_points, c_points)
        # the split is built from the pass's state, as from_c_points builds it
        expected = BlockSplit.from_c_points(S.shape[0], split.c_points)
        for got, want in [(split.c_points, expected.c_points),
                          (split.f_points, expected.f_points)]:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert split.n == S.shape[0]


def test_cf_split_matches_reference_on_every_level(monkeypatch):
    A = assemble(ProblemSpec("rotated_anisotropic", 64, epsilon=1e-3)).matrix
    graphs = []

    def recording_cf_split(S):
        graphs.append(S)
        return cf_split(S)

    monkeypatch.setattr(hierarchy, "cf_split", recording_cf_split)
    H = hierarchy.setup(A, hierarchy.SetupConfig(pattern_degree=4))
    assert len(graphs) == H.n_levels - 1 >= 3
    for S in graphs:
        for _, path in both_paths():
            with path:
                assert np.array_equal(cf_split(S).c_points, reference_c_points(S))


def test_block_split_views():
    A = lap1d(5)
    split = BlockSplit.from_c_points(5, [0, 2, 4])
    A_ff, A_fc = split.f_blocks(A)
    assert_allclose(A_ff.toarray(), 2 * np.eye(2))
    assert_allclose(A_fc.toarray(), [[-1, -1, 0], [0, -1, -1]])


def test_pattern_distance_one_on_path():
    S = strength_graph(lap1d(5), 0.25)
    split = cf_split(S)  # C = {0, 2, 4}, F = {1, 3}
    pattern = pattern_distance_k(S, split, 1)
    # F-point 1 reaches C-points {0, 2} (local 0, 1); F-point 3 reaches {2, 4}
    assert np.array_equal(pattern.cols[pattern.indptr[0]:pattern.indptr[1]], [0, 1])
    assert np.array_equal(pattern.cols[pattern.indptr[1]:pattern.indptr[2]], [1, 2])


def test_pattern_full_at_graph_diameter():
    S = strength_graph(lap1d(7), 0.25)
    split = cf_split(S)
    pattern = pattern_distance_k(S, split, 7)
    assert pattern.nnz == split.n_f * split.n_c
    assert len(pattern.empty_f_rows) == 0


def test_pattern_flags_disconnected_f_point():
    # two components: a 3-path and an isolated strong pair
    trips = [(i, i, 2.0) for i in range(5)]
    trips += [(0, 1, -1.0), (1, 0, -1.0), (1, 2, -1.0), (2, 1, -1.0)]
    trips += [(3, 4, -1.0), (4, 3, -1.0)]
    A = csr_from_triplets(trips, 5, 5)
    S = strength_graph(A, 0.25)
    split = BlockSplit.from_c_points(5, [0, 2])  # leaves F-points 1, 3, 4
    pattern = pattern_distance_k(S, split, 2)
    # F-points 3 and 4 (local 1 and 2) reach no C point
    assert np.array_equal(pattern.empty_f_rows, [1, 2])


def test_pattern_monotone_in_distance():
    A = assemble(ProblemSpec("rotated_anisotropic", 10, epsilon=0.5)).matrix
    S = strength_graph(A, 0.25)
    split = cf_split(S)
    previous = None
    for k in range(1, 5):
        pattern = pattern_distance_k(S, split, k)
        pairs = set(zip(np.repeat(np.arange(pattern.nf), np.diff(pattern.indptr)),
                        pattern.cols))
        if previous is not None:
            assert previous <= pairs
        previous = pairs


def test_pattern_rejects_nonpositive_degree():
    S = strength_graph(lap1d(4), 0.25)
    with pytest.raises(ValueError):
        pattern_distance_k(S, cf_split(S), 0)


def test_pattern_keeps_pair_joined_by_256_paths():
    # F point 0 and C point 257 share the 256 hub neighbours 1..256, so
    # 256 paths of length 2 join them: a count that wraps to 0 in int8
    hubs = np.arange(1, 257)
    ends = np.concatenate([np.zeros(256, dtype=np.int64), np.full(256, 257)])
    rows = np.concatenate([ends, np.tile(hubs, 2)])
    cols = np.concatenate([np.tile(hubs, 2), ends])
    adj = sparse.csr_matrix((np.full(len(rows), 0.5), (rows, cols)), shape=(258, 258))
    split = BlockSplit.from_c_points(258, [257])
    pattern = pattern_distance_k(adj, split, 2)
    assert np.array_equal(pattern.cols[pattern.indptr[0]:pattern.indptr[1]], [0])
    assert len(pattern.empty_f_rows) == 0


def test_pattern_reads_a_stored_zero_as_no_edge():
    # a float graph from a library caller: the stored zero between 1 and 2
    # is no edge, so F point 1 reaches C point 2 only through 3
    trips = [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.0), (2, 1, 0.0),
             (1, 3, 0.5), (3, 1, 0.5), (2, 3, 0.5), (3, 2, 0.5)]
    S = csr_from_triplets(trips, 4, 4)
    split = BlockSplit.from_c_points(4, [0, 2])
    for k, reached in [(1, [0]), (2, [0, 1])]:
        pattern = pattern_distance_k(S, split, k)
        assert np.array_equal(pattern.cols[pattern.indptr[0]:pattern.indptr[1]], reached)


@pytest.mark.parametrize("S", [
    csr_from_triplets([(0, 1, 0.0), (1, 0, 0.0)], 2, 2),
    sparse.csr_matrix(([0.5, -0.5, 0.5, -0.5], [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2)),
], ids=["stored-zeros", "cancelling-duplicates"])
def test_cf_split_and_pattern_read_a_zero_edge_alike(S):
    """A stored zero, or duplicates that sum to zero, is no edge for
    either: both vertices are C, and an F point 1 reaches no C point."""
    assert np.array_equal(cf_split(S).c_points, [0, 1])
    pattern = pattern_distance_k(S, BlockSplit.from_c_points(2, [0]), 1)
    assert np.array_equal(pattern.empty_f_rows, [0])


READ_MALFORMED_GRAPHS = """
import re
from sparse_helpers import malformed_graphs, python_path
from tracemin_amg.coarsening import BlockSplit, cf_split, pattern_distance_k

def python_split(S):
    with python_path():
        return cf_split(S)

calls = {"split": cf_split, "python-split": python_split,
         "pattern": lambda S: pattern_distance_k(S, BlockSplit.from_c_points(S.shape[0], [0]), 2)}
for name, (S, message) in sorted(malformed_graphs().items()):
    for call, read in calls.items():
        try:
            read(S)
            print(name, call, "returned", flush=True)
        except Exception as err:
            print(name, call, type(err).__name__, bool(re.search(message, str(err))),
                  flush=True)
"""


def test_malformed_graphs_are_refused_by_name_before_they_are_read():
    """cf_split, on the path this process takes and on the Python path,
    and pattern_distance_k read the graph through one check, which names
    what is wrong with it.  The calls run in a subprocess: unchecked, the
    compiled pass and SciPy's CSC-to-CSR conversion faulted (SIGSEGV) or
    corrupted the heap, which would end the suite, and the Python pass
    raised a bare IndexError and the pattern SciPy's shape error."""
    done = run_isolated(READ_MALFORMED_GRAPHS)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        f"{name} {call} ValueError True" for name in sorted(malformed_graphs())
        for call in ("split", "python-split", "pattern")]


def reference_pattern_rows(S, split, k):
    """Breadth-first search from every F point: the sorted C-local
    indices within k edges."""
    dense = S.toarray() != 0
    rows = []
    for i in split.f_points:
        seen = np.zeros(split.n, dtype=bool)
        seen[i] = True
        frontier = seen.copy()
        for _ in range(k):
            frontier = dense[frontier].any(axis=0) & ~seen
            seen |= frontier
        rows.append(np.flatnonzero(seen[split.c_points]))  # C-local indices
    return rows


@st.composite
def pattern_cases(draw):
    """A random symmetric strength graph, up to two hub vertices joined
    to any subset of it, a random CF split and a degree in 1..4."""
    S = draw(symmetric_strength_graphs())
    n0 = S.shape[0]
    n_hubs = draw(st.integers(0, 2))
    if n_hubs:
        base = S.tocoo()
        rows, cols = [base.row], [base.col]
        for hub in range(n0, n0 + n_hubs):
            spokes = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n0 + n_hubs,
                                                  max_size=n0 + n_hubs)))
            spokes = spokes[spokes != hub]
            rows += [np.full(len(spokes), hub), spokes]
            cols += [spokes, np.full(len(spokes), hub)]
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        n = n0 + n_hubs
        S = sparse.csr_matrix((np.full(len(rows), 0.5), (rows, cols)), shape=(n, n))
    n = S.shape[0]
    is_c = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    split = BlockSplit.from_c_points(n, np.flatnonzero(is_c))
    return S, split, draw(st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(pattern_cases())
def test_pattern_matches_breadth_first_search(case):
    S, split, k = case
    pattern = pattern_distance_k(S, split, k)
    expected = reference_pattern_rows(S, split, k)
    lengths = [len(r) for r in expected]
    assert np.array_equal(np.diff(pattern.indptr), lengths)
    assert np.array_equal(pattern.cols, np.concatenate([np.zeros(0, np.int64)] + expected))
    assert np.array_equal(pattern.empty_f_rows, np.flatnonzero(np.array(lengths) == 0))
    # the pattern keeps the product's index arrays, so a weight block shares them
    W = pattern.to_csr(np.zeros(pattern.nnz))
    assert pattern.nnz == 0 or np.shares_memory(W.indices, pattern.cols)
    assert np.shares_memory(W.indptr, pattern.indptr)
