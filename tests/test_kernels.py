"""The kernel loader: it builds the compiled kernels where a compiler is
found, falls back quietly where none is or the cache cannot be written,
and each kernel reads what its Python reference computes, to the bit."""

import hashlib
import shutil
import warnings

import numpy as np
import pytest
from scipy import sparse

from sparse_helpers import python_path, rand_spd_sparse, random_pattern
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
    S = int64_indexed(sparse.csr_matrix(np.ones((2, 2), dtype=bool)))
    state = np.zeros(2, dtype=np.uint8)
    assert kernels.greedy_split(S, state) is None
    assert not state.any()
    assert kernels.distance_k_pattern(S, BlockSplit.from_c_points(2, [0]), 2) is None
    A.sort_indices()
    product = A.copy()
    d, b = A.diagonal(), np.ones(3)
    assert kernels.symmetrize(A) is None
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
    values) and each Galerkin product's (P, A, b)."""
    kind, mode, degree = request.param
    spec = (ProblemSpec("rotated_anisotropic", 32, epsilon=1e-3) if kind == "aniso"
            else ProblemSpec("oscillatory", 32, K=1e6))
    A = assemble(spec).matrix
    calls = {"strength": [], "pattern": [], "apply": [], "galerkin": []}

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


def test_galerkin_kernels_read_the_numpy_finish_on_every_level(kernel_inputs, monkeypatch):
    """The compiled symmetrization, certificate and drop-and-lump give the
    NumPy path's coarse operator, bit for bit, on every level."""
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
