"""The kernel loader: it builds the compiled kernels where a compiler is
found, falls back quietly where none is or the cache cannot be written,
and each kernel reads what its Python reference computes, to the bit."""

import hashlib
import itertools
import shutil
import warnings

import numpy as np
import pytest
from scipy import sparse

from sparse_helpers import both_paths, python_path, rand_spd_sparse, random_pattern
from tracemin_amg import coarsening, energymin, hierarchy, kernels
from tracemin_amg.coarsening import BlockSplit, SparsityPattern
from tracemin_amg.energymin import _slot_values
from tracemin_amg.experiments import smoothed_constant
from tracemin_amg.problems import ProblemSpec, assemble


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """library() as on the first use in a process, with an empty cache
    directory under tmp_path; the loader is reset again afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    kernels.library.cache_clear()
    yield tmp_path / "cache" / "tracemin-amg"
    kernels.library.cache_clear()


def test_the_kernels_build_where_a_compiler_is_found():
    found = shutil.which("cc") is not None
    assert (kernels.library() is not None) == found
    assert kernels.backend() == ("compiled" if found else "python")


def test_first_use_compiles_into_the_cache_named_by_the_source_hash(fresh_loader):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lib = kernels.library()
    built = sorted(path.name for path in fresh_loader.glob("*")) \
        if fresh_loader.exists() else []
    if shutil.which("cc") is None:
        assert lib is None and built == []
        return
    digest = hashlib.sha256(" ".join(kernels.FLAGS).encode() + b"\n"
                            + kernels.SOURCE.read_bytes()).hexdigest()
    # the temporary file was renamed into place; nothing else is left
    assert built == [f"kernels-{digest}.so"]
    assert kernels.library() is lib  # compiled once per process


def test_no_compiler_is_the_python_path_without_a_warning(fresh_loader, tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.library() is None
        assert kernels.backend() == "python"
    assert not fresh_loader.exists() or not any(fresh_loader.iterdir())


def test_an_unwritable_cache_is_the_python_path(fresh_loader, tmp_path, monkeypatch):
    # a regular file where the cache directory's parent should be
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.library() is None


def int64_indexed(M):
    """A copy of the compressed matrix M with int64 index arrays, set after
    construction, which would cast them to int32."""
    M = M.copy()
    M.indptr, M.indices = M.indptr.astype(np.int64), M.indices.astype(np.int64)
    return M


def test_int64_indices_leave_the_kernels_to_the_python_path():
    """Every wrapper returns None on int64 indices, its outputs untouched."""
    A = int64_indexed(sparse.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                                                  [0.0, -1.0, 2.0]])))
    assert kernels.strong_couplings(A, A.diagonal(), 0.25) is None
    pattern = SparsityPattern(3, 2, np.array([0, 1, 1, 2]), np.array([0, 1]))
    assert pattern.indptr.dtype == np.int64
    for candidate in ((), (np.ones(2), np.ones(2))):
        out = np.full(2, 7.0)
        assert kernels.masked_product(A, pattern, np.ones(2), out, 0.5, *candidate) is None
        assert np.array_equal(out, [7.0, 7.0])  # untouched
    b_c, ginv = np.ones(2), np.full(2, 7.0)
    assert kernels.row_gram_inverse(pattern, b_c, ginv) is None
    values, out = np.full(2, 7.0), np.full(2, 7.0)
    assert kernels.row_project(pattern, b_c, ginv, values) is None
    assert kernels.row_min_norm(pattern, b_c, ginv, np.ones(3), out) is None
    slot_vectors = [np.full(2, 7.0) for _ in range(5)]
    assert kernels.cg_update(0.5, *slot_vectors, pattern, b_c, ginv) is None
    for v in (ginv, values, out, *slot_vectors):
        assert np.array_equal(v, [7.0, 7.0])  # untouched
    S = int64_indexed(sparse.csr_matrix(np.ones((2, 2), dtype=bool)))
    state = np.zeros(2, dtype=np.uint8)
    assert kernels.greedy_split(S, state) is None
    assert not state.any()
    assert kernels.distance_k_pattern(S, BlockSplit.from_c_points(2, [0]), 2) is None
    A.sort_indices()
    product = A.copy()
    d, b = A.diagonal(), np.ones(3)
    A32 = sparse.csr_matrix(A.toarray())
    for R, AP in ((A, A32), (A32, A)):  # either operand of the product
        assert kernels.upper_product(R, AP) is None
    assert kernels.mirror_upper(int64_indexed(sparse.triu(A32, format="csr"))) is None
    assert kernels.drop_and_lump(A, d, np.sqrt(d), b, 1.0 / d, 2.0 / d) is None
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(product, name))  # untouched


@pytest.mark.parametrize("fill", [0.05, 0.3, 1.0])
def test_masked_product_reads_the_sampled_product_to_the_bit(fill):
    """(A W) at W's slots equals sampling the SpGEMM product A @ W there,
    with each row of A stored in shuffled order, zero weights and, at
    fill 1, every slot (test_energymin's exact_zero_system adds products
    that drop exact-zero sums)."""
    rng = np.random.default_rng(21)
    for _ in range(5):
        nf, nc = int(rng.integers(20, 60)), int(rng.integers(5, 30))
        A = rand_spd_sparse(rng, nf, density=fill)
        rows = np.repeat(np.arange(nf), np.diff(A.indptr))
        order = np.lexsort((rng.random(A.nnz), rows))
        A = sparse.csr_matrix((A.data[order], A.indices[order], A.indptr), shape=A.shape)
        assert not A.has_sorted_indices
        pattern = random_pattern(rng, nf, nc, fill=fill)
        values = rng.standard_normal(pattern.nnz)
        values[rng.random(pattern.nnz) < 0.2] = 0.0
        out = np.empty(pattern.nnz)
        got = kernels.masked_product(A, pattern, values, out)
        assert (got is None) == (kernels.library() is None)
        if got is not None:
            expected = _slot_values(A @ pattern.to_csr(values), pattern.slot_rows,
                                    pattern.cols)
            assert got is out and np.array_equal(out, expected)


KERNEL_SETUPS = [(kind, mode, degree) for kind in ("aniso", "osc")
                 for mode in ("constrained", "weighted") for degree in (2, 4)]


@pytest.fixture(scope="module", params=KERNEL_SETUPS,
                ids=[f"{kind}-{mode}-{degree}" for kind, mode, degree in KERNEL_SETUPS])
def kernel_inputs(request):
    """What each kernel's caller hands it on every level of one setup of
    a small problem (the smoothed constant; weighted at the default tau),
    recorded on the path the loader finds: the strength graph's (A, d,
    theta), the pattern's (graph, split, k), each apply's (system, slot
    values), each row constraints' (B_c, pattern, B_f), each CG step's
    update operands (alpha, p, Lp, x, r, diag, projection), copied before
    the update, and each Galerkin product's (P, A, b)."""
    kind, mode, degree = request.param
    spec = (ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3) if kind == "aniso"
            else ProblemSpec("oscillatory", 32, K=1e6))
    A = assemble(spec).matrix
    calls = {"strength": [], "pattern": [], "apply": [], "constraints": [], "update": [],
             "galerkin": []}

    class RecordedConstraints(energymin._RowConstraints):
        def min_norm_solution(self, B_f):
            calls["constraints"].append((self.B_c, self.pattern, B_f))
            return super().min_norm_solution(B_f)

    def recorded(key, function, copy=lambda *args: args):
        def call(*args):
            calls[key].append(copy(*args))
            return function(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coarsening, "_strong_couplings",
                      recorded("strength", coarsening._strong_couplings))
        patch.setattr(hierarchy, "pattern_distance_k",
                      recorded("pattern", coarsening.pattern_distance_k))
        patch.setattr(energymin, "apply_weighted_operator",
                      recorded("apply", energymin.apply_weighted_operator,
                               lambda sys, values: (sys, values.copy())))
        patch.setattr(energymin, "_RowConstraints", RecordedConstraints)
        patch.setattr(energymin, "_cg_update",
                      recorded("update", energymin._cg_update,
                               lambda alpha, *vectors: (alpha, *(
                                   v if v is None or isinstance(v, energymin._RowConstraints)
                                   else v.copy() for v in vectors))))
        patch.setattr(hierarchy, "galerkin_product",
                      recorded("galerkin", hierarchy.galerkin_product))
        H = hierarchy.setup(A, hierarchy.SetupConfig(mode=mode, pattern_degree=degree,
                                                     candidates=smoothed_constant(A, 5)))
    assert H.n_levels >= 3
    assert all(len(calls[key]) >= H.n_levels - 1 for key in calls)
    return calls


def kernel_runs(got):
    """Whether a wrapper's result shows the kernel ran, which it does
    exactly where the loader builds it."""
    assert (got is None) == (kernels.library() is None)
    return got is not None


def test_strong_couplings_kernel_reads_the_numpy_pass_on_every_level(kernel_inputs):
    for A, d, theta in kernel_inputs["strength"]:
        got = kernels.strong_couplings(A, d, theta)
        if kernel_runs(got):
            for array, expected in zip(got, coarsening._strong_pass(A, d, theta)):
                assert array.dtype == expected.dtype and np.array_equal(array, expected)


def test_distance_k_kernel_reads_the_boolean_spgemm_on_every_level(kernel_inputs):
    for S, split, k in kernel_inputs["pattern"]:
        got = kernels.distance_k_pattern(coarsening._adjacency(S), split, k)
        if kernel_runs(got):
            with python_path():
                expected = coarsening.pattern_distance_k(S, split, k)
            for array, want in zip(got, (expected.indptr, expected.cols)):
                assert array.dtype == want.dtype == np.int32
                assert np.array_equal(array, want)


def test_weighted_apply_kernel_reads_the_sampled_apply_on_every_level(kernel_inputs):
    """The whole one-candidate apply, tau A_ff W and the candidate term,
    on the compiled path equals the Python path's, at every CG apply."""
    for sys, values in kernel_inputs["apply"]:
        out = np.empty(sys.pattern.nnz)
        one = () if sys.cand_scale is None else (sys.cand_scale, sys.B_c[:, 0])
        if kernel_runs(kernels.masked_product(sys.A_ff, sys.pattern, values, out,
                                              sys.tau, *one)):
            with python_path():
                expected = energymin.apply_weighted_operator(sys, values)
            assert np.array_equal(out, expected)


def test_upper_product_kernels_read_the_mirrored_triu_on_every_level(kernel_inputs):
    """The upper triangle of R (A P) equals sparse.triu of SciPy's product,
    on the NumPy path too, where R's row blocks are multiplied one at a
    time, and its mirror hierarchy._mirrored's, bit for bit and
    canonical, on every level."""
    for P, A, _ in kernel_inputs["galerkin"]:
        R, AP = P.T.tocsr(), A @ P
        expected = sparse.triu(R @ AP, format="csr")
        expected.sort_indices()
        assert_same_csr(hierarchy._upper_product(R, AP), expected)
        U = kernels.upper_product(R, AP)
        if not kernel_runs(U):
            continue
        assert U.has_canonical_format
        assert_same_csr(U, expected)
        M = kernels.mirror_upper(U)
        assert M.has_canonical_format
        assert_same_csr(M, hierarchy._mirrored(expected))
        assert (M != M.T).nnz == 0


def assert_same_csr(X, Y):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(X, name), getattr(Y, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("shape", [(1, 40), (7, 40), (40, 7), (40, 40)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_upper_product_grows_its_output_and_drops_exact_zero_sums(shape):
    """R (n x m) times AP (m x n), R's rows stored in shuffled order, with
    empty rows, exact-zero sums and, at m = 1, a rank-one product whose upper
    triangle, about n^2 / 2 entries, overflows the first estimate of
    nnz(AP) / 2 + n entries several times.  The result equals the triu of
    SciPy's product bit for bit, and its mirror the NumPy mirror."""
    rng = np.random.default_rng(42)
    m, n = shape
    cancelled = 0
    for fill, integral in itertools.product((0.1, 0.5, 1.0), (False, True)):
        R = sparse.random(n, m, density=fill, random_state=rng, format="csr")
        AP = sparse.random(m, n, density=fill, random_state=rng, format="csr")
        for M in (R, AP):  # +-1 and +-2, whose sums cancel, or six decades
            M.data = rng.choice([-1.0, 1.0], M.nnz) * (
                rng.choice([1.0, 2.0], M.nnz) if integral else 10.0 ** rng.uniform(-3, 3, M.nnz))
        rows = np.repeat(np.arange(n), np.diff(R.indptr))
        order = np.lexsort((rng.random(R.nnz), rows))
        R = sparse.csr_matrix((R.data[order], R.indices[order], R.indptr), shape=R.shape)
        expected = sparse.triu(R @ AP, format="csr")
        expected.sort_indices()
        assert_same_csr(hierarchy._upper_product(R, AP), expected)
        U = kernels.upper_product(R, AP)
        if kernel_runs(U):
            assert_same_csr(U, expected)
            assert_same_csr(kernels.mirror_upper(U), hierarchy._mirrored(expected))
        if m == 1 and fill == 1.0:  # the kernel's output grows twice at least
            assert expected.nnz > 2 * (AP.nnz // 2 + n)
        # last: abs(R) sorts R's rows in place
        cancelled += sparse.triu(abs(R) @ abs(AP)).nnz - expected.nnz
    assert (cancelled > 0) == (m > 1)  # one term per entry cannot cancel
    if kernels.library() is not None:
        with pytest.raises(ValueError, match="do not give a square product"):
            kernels.upper_product(R, AP[:, 1:])


def test_galerkin_kernels_read_the_numpy_finish_on_every_level(kernel_inputs, monkeypatch):
    """The compiled upper product, mirror, certificate and drop-and-lump
    give the NumPy path's coarse operator, bit for bit, on every level."""
    ran = []
    drop_and_lump = kernels.drop_and_lump
    monkeypatch.setattr(kernels, "drop_and_lump",
                        lambda *args: ran.append(drop_and_lump(*args)) or ran[-1])
    for P, A, b in kernel_inputs["galerkin"]:
        ran.clear()
        got = hierarchy.galerkin_product(P, A, b)
        kernel_runs(ran[0])
        with python_path():
            expected = hierarchy.galerkin_product(P, A, b)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))


def test_constraint_kernels_read_the_numpy_rows_on_every_level(kernel_inputs):
    """The one-candidate Gram inverse, projection and minimum-norm start
    equal the NumPy row-block passes, bit for bit, on every level's row
    constraints; the projection is checked on every CG step's residual
    and iterate."""
    vectors = [v for _, _, _, x, r, _, _ in kernel_inputs["update"] for v in (x, r)]
    for B_c, pattern, B_f in kernel_inputs["constraints"]:
        assert B_c.shape[1] == 1
        rows = energymin._RowConstraints(B_c, pattern)
        with python_path():
            expected = energymin._RowConstraints(B_c, pattern)
        ginv = np.full(len(rows.gram_pinv), np.nan)
        if not kernel_runs(kernels.row_gram_inverse(pattern, B_c[:, 0], ginv)):
            continue
        assert np.array_equal(ginv, expected.gram_pinv.reshape(-1))
        assert np.array_equal(rows.gram_pinv, expected.gram_pinv)
        out = np.zeros(pattern.nnz)
        assert kernels.row_min_norm(*rows.operands, B_f[:, 0].copy(), out) is out
        with python_path():
            assert np.array_equal(out, expected.min_norm_solution(B_f))
        for v in (v for v in vectors if len(v) == pattern.nnz):
            got = v.copy()
            assert kernels.row_project(*rows.operands, got) is got
            with python_path():
                assert np.array_equal(got, expected.project(v.copy()))


def test_fused_cg_update_reads_the_numpy_passes_on_every_level(kernel_inputs):
    """One pass of r -= alpha Lp, x += alpha p and z = project(diag r)
    equals the NumPy passes, bit for bit, at every CG step of both
    routes: unprojected (weighted) and projected row by row
    (constrained)."""
    assert kernel_inputs["update"]
    for alpha, p, Lp, x, r, diag, project in kernel_inputs["update"]:
        constraints = () if project is None else project.operands
        got = [v.copy() for v in (Lp, x, r)]
        if not kernel_runs(kernels.cg_update(alpha, p, *got, diag, *constraints)):
            continue
        expected = [v.copy() for v in (Lp, x, r)]
        with python_path():
            z = energymin._cg_update(alpha, p, *expected, diag, project)
        assert z is expected[0]
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


def left_to_right(terms):
    """The sum of the terms in Python's float64 arithmetic, from 0.0 in order."""
    total = 0.0
    for t in terms:
        total += t
    return total


def sequential_gram_inverse(b_c, pattern, order=left_to_right):
    """1/g of each pattern row, or 0.0 where g = 0, g the row's sum of
    b_c[col]^2 taken by `order`."""
    ginv = []
    for i in range(pattern.nf):
        g = order([c * c for c in b_c[pattern.cols[pattern.indptr[i]:pattern.indptr[i + 1]]]
                   .tolist()])
        ginv.append(1.0 / g if g != 0.0 else 0.0)
    return np.array(ginv)


def sequential_project(b_c, pattern, ginv, z, order=left_to_right):
    """The slot values z projected row by row onto c^T z = 0, z -= c (0.0 +
    ginv_i (c^T z)), the row sum c^T z taken by `order`; z is not changed."""
    z = z.tolist()
    for i in range(pattern.nf):
        slots = range(pattern.indptr[i], pattern.indptr[i + 1])
        c = b_c[pattern.cols[slots.start:slots.stop]].tolist()
        scale = 0.0 + ginv[i] * order([cj * z[s] for cj, s in zip(c, slots)])
        for cj, s in zip(c, slots):
            z[s] -= 0.0 + cj * scale
    return np.array(z)


def test_constraint_row_sums_run_left_to_right_from_zero_on_both_paths():
    """Every row sum of the one-candidate row constraints runs from 0.0 in
    slot order: on rows of 1, 2, 3, 8, 9, 129 and 300 slots, the Gram
    inverse, the projection and the fused CG update of both paths equal a
    plain Python left-to-right sum.  Each row's Gram terms are a leading 1
    and squares of 0.55 to 0.7 ulps of 1, each of which a left-to-right
    sum rounds up by a whole ulp, and the projected values lie within 1e-2
    of the candidate, so what is left after the projection holds the
    rounding of the row's sum: a right-to-left sum gives other bits in
    every row of 3 slots or more."""
    rng = np.random.default_rng(42)
    lengths = [1, 2, 3, 8, 9, 129, 300]
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    nc = int(indptr[-1])
    pattern = SparsityPattern(len(lengths), nc, indptr, np.arange(nc, dtype=np.int32))
    b_c = rng.choice([-1.0, 1.0], nc) * np.sqrt(rng.uniform(0.55, 0.7, nc) * 2.0**-52)
    b_c[indptr[:-1]] = rng.choice([-1.0, 1.0], len(lengths))
    z = b_c * (1.0 + rng.standard_normal(nc) * 10.0 ** rng.uniform(-6, -2, nc))
    # the CG step's updated residual diag (r - alpha Lp) is z to round-off
    alpha, diag = 0.37, np.ones(nc)
    p, x = rng.standard_normal((2, nc))
    lp = z * rng.uniform(-1.0, 1.0, nc)
    r = z + lp * alpha

    def right_to_left(terms):
        return left_to_right(terms[::-1])

    ginv = sequential_gram_inverse(b_c, pattern)
    projected = sequential_project(b_c, pattern, ginv, z)
    updated_r = r - lp * alpha
    updated = [sequential_project(b_c, pattern, ginv, diag * updated_r), x + alpha * p,
               updated_r]
    long_rows = slice(int(indptr[2]), nc)
    assert np.all(sequential_gram_inverse(b_c, pattern, right_to_left)[2:] != ginv[2:])
    for values, expected in ((z, projected), (diag * updated_r, updated[0])):
        other = sequential_project(b_c, pattern, ginv, values, right_to_left)
        assert np.all(other[long_rows] != expected[long_rows])

    for _, path in both_paths():
        with path:
            rows = energymin._RowConstraints(b_c[:, None], pattern)
            assert rows.gram_pinv.shape == (pattern.nf, 1, 1)
            assert np.array_equal(rows.gram_pinv.reshape(-1), ginv)
            assert np.array_equal(rows.project(z.copy()), projected)
            got = [v.copy() for v in (lp, x, r)]
            assert energymin._cg_update(alpha, p, *got, diag, rows) is got[0]
            for a, b in zip(got, updated):
                assert np.array_equal(a, b)


def synthetic_constraints():
    """One candidate b_c over a pattern with empty rows, rows whose Gram
    scalar g is 0 (every b_c at their columns 0) and rows of 1, 8, 9, 129
    and 300 slots, entries of mixed sign spanning 16 orders of magnitude."""
    rng = np.random.default_rng(41)
    nc = 320
    b_c = rng.choice([-1.0, 1.0], nc) * 10.0 ** rng.uniform(-8, 8, nc)
    zero_cols = np.arange(10)
    b_c[zero_cols] = 0.0
    rows = [[], [300], [], zero_cols[:3], np.arange(12, 20), np.arange(20, 29),
            np.arange(10, 139), np.arange(20, 320), zero_cols, [5, 50], []]
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int32)
    pattern = SparsityPattern(len(rows), nc, indptr,
                              np.concatenate([np.asarray(r, dtype=np.int32) for r in rows]))
    B_f = rng.standard_normal((pattern.nf, 1)) * 10.0 ** rng.uniform(-4, 4, (pattern.nf, 1))
    B_f[pattern.empty_f_rows] = 0.0
    return b_c[:, None], pattern, B_f, rng


def test_constraint_kernels_on_empty_zero_gram_and_long_rows():
    """On a synthetic pattern with empty rows, rows of Gram scalar 0 and
    rows of 1, 8, 9, 129 and 300 slots, every constraint kernel equals
    the NumPy pass, bit for bit; the Gram inverse is 0 at the empty rows
    and at the rows of Gram scalar 0."""
    B_c, pattern, B_f, rng = synthetic_constraints()
    rows = energymin._RowConstraints(B_c, pattern)
    with python_path():
        expected = energymin._RowConstraints(B_c, pattern)
    zero = expected.gram_pinv.reshape(-1) == 0.0
    assert np.array_equal(np.flatnonzero(zero), [0, 2, 3, 8, 10])
    assert np.array_equal(pattern.empty_f_rows, [0, 2, 10])
    if not kernel_runs(kernels.row_gram_inverse(*rows.operands)):
        return
    assert np.array_equal(rows.gram_pinv, expected.gram_pinv)
    out = np.full(pattern.nnz, np.nan)
    kernels.row_min_norm(*rows.operands, B_f[:, 0].copy(), out)
    with python_path():
        assert np.array_equal(out, expected.min_norm_solution(B_f))
    scales = 10.0 ** rng.uniform(-6, 6, (5, pattern.nnz))
    for v in rng.standard_normal((5, pattern.nnz)) * scales:
        got = v.copy()
        kernels.row_project(*rows.operands, got)
        with python_path():
            assert np.array_equal(got, expected.project(v.copy()))
        p, Lp, x, r, diag = rng.standard_normal((5, pattern.nnz)) * scales[:5]
        for project in (None, rows):
            constraints = () if project is None else project.operands
            got = [w.copy() for w in (Lp, x, r)]
            kernels.cg_update(0.37, p, *got, diag, *constraints)
            want = [w.copy() for w in (Lp, x, r)]
            with python_path():
                energymin._cg_update(0.37, p, *want, diag, project)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


PARITY_SETUPS = [(kind, mode, degree) for kind in ("aniso", "osc")
                 for mode in ("constrained", "weighted") for degree in (2, 4)]


@pytest.mark.parametrize("kind, mode, degree", PARITY_SETUPS,
                         ids=[f"{kind}-{mode}-{degree}" for kind, mode, degree in PARITY_SETUPS])
def test_whole_setup_hashes_the_same_with_and_without_the_kernels(kind, mode, degree):
    """Every level's A, P, relaxation weight and minimization history are
    the same bits on the compiled path as on the Python path (n = 32, the
    smoothed constant, weighted at tau = 1e-4)."""
    spec = (ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3) if kind == "aniso"
            else ProblemSpec("oscillatory", 32, K=1e6))
    A = assemble(spec).matrix
    cfg = hierarchy.SetupConfig(mode=mode, tau=1e-4, pattern_degree=degree,
                                candidates=smoothed_constant(A, 5))

    def digest(H):
        m = hashlib.sha256()
        for lvl in H.levels:
            arrays = [lvl.A.indptr, lvl.A.indices, lvl.A.data]
            if lvl.P is not None:
                arrays += [lvl.P.indptr, lvl.P.indices, lvl.P.data,
                           np.array([lvl.relaxation.omega]), np.array(lvl.emin_residuals)]
            for a in arrays:
                m.update(np.ascontiguousarray(a).tobytes())
        return m.hexdigest()

    compiled = hierarchy.setup(A, cfg)
    with python_path():
        reference = hierarchy.setup(A, cfg)
    assert compiled.n_levels == reference.n_levels >= 3
    assert digest(compiled) == digest(reference)
