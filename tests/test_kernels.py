"""The kernel loader: it builds the compiled kernels where a compiler is
found, falls back quietly where none is or the cache cannot be written,
and each kernel reads what its Python reference computes, to the bit."""

import hashlib
import shutil
import warnings

import numpy as np
import pytest
from scipy import sparse

from sparse_helpers import rand_spd_sparse, random_pattern
from tracemin_amg import kernels
from tracemin_amg.coarsening import SparsityPattern
from tracemin_amg.energymin import _slot_values


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


def test_int64_indices_leave_the_kernels_to_the_python_path():
    A = sparse.identity(3, format="csr")
    pattern = SparsityPattern(3, 2, np.array([0, 1, 1, 2]), np.array([0, 1]))
    assert pattern.indptr.dtype == np.int64
    out = np.full(2, 7.0)
    assert kernels.masked_product(A, pattern, np.ones(2), out) is None
    assert np.array_equal(out, [7.0, 7.0])  # untouched
    S = sparse.csr_matrix(np.ones((2, 2), dtype=bool))
    S.indptr, S.indices = S.indptr.astype(np.int64), S.indices.astype(np.int64)
    state = np.zeros(2, dtype=np.uint8)
    assert kernels.greedy_split(S, state) is None
    assert not state.any()


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
