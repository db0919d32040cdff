import hashlib
import json
import re

import numpy as np
import pytest

from tracemin_amg import experiments
from tracemin_amg.energymin import prepare_candidates
from tracemin_amg.experiments import (CSV_HEADER, ExperimentConfig,
                                      adaptive_constraints, convergence_report,
                                      measure_report, rows_to_csv_text,
                                      run_experiment)
from tracemin_amg.hierarchy import CF_WINDOW, SetupConfig, measure_convergence_factor, setup
from tracemin_amg.problems import ProblemSpec, assemble


class StubHierarchy:
    """Fixed complexities for exercising the report formulas."""

    def __init__(self, oc, cc):
        self._oc, self._cc = oc, cc

    def operator_complexity(self):
        return self._oc

    def cycle_complexity(self):
        return self._cc


def geometric_residuals(ratio, count=15):
    return [ratio ** k for k in range(count)]


def test_report_geometric_history():
    report = convergence_report(StubHierarchy(1.5, 4.0), geometric_residuals(0.1))
    assert abs(report.cf - 0.1) <= 1e-12
    assert abs(report.wpd - 4.0) <= 1e-10
    assert report.converged


def test_report_matches_published_workload_value():
    # cc = 5.95 with cf = 0.48 prices 18.66 matvec units per digit
    report = convergence_report(StubHierarchy(1.5, 5.95), geometric_residuals(0.48))
    assert abs(report.wpd - 18.66) <= 0.01


def test_report_flags_divergence():
    report = convergence_report(StubHierarchy(1.5, 4.0), geometric_residuals(1.2))
    assert not report.converged
    assert report.wpd is None


def test_report_flags_divergence_stopped_after_ten_growths():
    # solve stops after 10 consecutive growths: 11 residuals
    report = convergence_report(StubHierarchy(1.5, 4.0), geometric_residuals(1.2, count=11))
    assert abs(report.cf - 1.2) <= 1e-12
    assert not report.converged
    assert report.wpd is None


def test_measure_report_on_a_diverging_hierarchy():
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1.0)).matrix
    H = setup(A, SetupConfig(jacobi_omega=3.0))
    with pytest.warns(RuntimeWarning, match="diverging"):
        _, history = measure_convergence_factor(H)
    assert len(history) == CF_WINDOW + 1  # stopped after CF_WINDOW growths
    with pytest.warns(RuntimeWarning, match="diverging"):
        report = measure_report(H)
    assert report.cf > 1.0
    assert not report.converged
    assert report.wpd is None


def test_report_requires_enough_history():
    with pytest.raises(ValueError):
        convergence_report(StubHierarchy(1.0, 1.0), geometric_residuals(0.5, count=8))


def test_report_exact_zero_residual():
    history = geometric_residuals(0.5, count=14) + [0.0]
    report = convergence_report(StubHierarchy(1.0, 3.0), history)
    assert report.cf == 0.0 and report.converged and report.wpd == 0.0


def test_report_cf_is_the_measured_convergence_factor():
    H = setup(assemble(ProblemSpec("rotated_anisotropic", 12, epsilon=1e-3)).matrix,
              SetupConfig())
    cf, history = measure_convergence_factor(H, seed=4)
    assert convergence_report(H, history).cf == cf


def test_adaptive_first_vector_reproducible():
    A = assemble(ProblemSpec("rotated_anisotropic", 12, epsilon=1.0)).matrix
    c1 = adaptive_constraints(A, None, 0, seed=42)
    c2 = adaptive_constraints(A, None, 0, seed=42)
    assert np.array_equal(c1.vectors, c2.vectors)
    norm = c1.vectors[:, 0] @ (A @ c1.vectors[:, 0])
    assert abs(norm - 1.0) <= 1e-12


def test_adaptive_improvement_lowers_rayleigh_quotient():
    A = assemble(ProblemSpec("rotated_anisotropic", 32, epsilon=1.0)).matrix
    def rq(k):
        v = adaptive_constraints(A, None, k, seed=3).vectors[:, 0]
        return (v @ (A @ v)) / (v @ v)
    assert rq(25) < rq(2)


def test_adaptive_vector_number_follows_the_existing_hierarchy():
    # vector k is drawn from the seed [seed, k], k one past the vectors
    # the existing hierarchy was built from
    A = assemble(ProblemSpec("rotated_anisotropic", 8, epsilon=1.0)).matrix
    c1 = adaptive_constraints(A, None, 0, seed=5)
    c2 = adaptive_constraints(A, setup(A, SetupConfig(candidates=c1.vectors)), 0, seed=5)
    v = np.random.default_rng([5, 2]).standard_normal(A.shape[0])
    expected = prepare_candidates(A, np.column_stack([c1.vectors, v]))
    assert np.array_equal(c2.vectors, expected.vectors)


def test_adaptive_chain_extends_candidates():
    A = assemble(ProblemSpec("rotated_anisotropic", 12, epsilon=1.0)).matrix
    c1 = adaptive_constraints(A, None, 2, seed=0)
    H = setup(A, SetupConfig(candidates=c1.vectors))
    c2 = adaptive_constraints(A, H, 2, seed=0)
    assert c2.vectors.shape[1] == 2
    gram = c2.vectors.T @ (A @ c2.vectors)
    assert np.abs(gram - np.eye(2)).max() <= 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda A, H: experiments.first_constraint_vector(A, "rand", 1, 0),
     "source must be 'constant' or 'random'; got 'rand'"),
    (lambda A, H: experiments.first_constraint_vector(A, "constant", -1, 0),
     "improvement_iters must be >= 0; got -1"),
    (lambda A, H: experiments.first_constraint_vector(A, "random", 1, -1),
     "seed must be >= 0; got -1"),
    (lambda A, H: experiments.smoothed_constant(A, -2), "sweeps must be >= 0; got -2"),
    (lambda A, H: adaptive_constraints(A, H, -1, 0), "improvement_iters must be >= 0; got -1"),
    (lambda A, H: adaptive_constraints(A, H, 1.5, 0),
     "improvement_iters must be an integer; got 1.5"),
    (lambda A, H: adaptive_constraints(A, H, 1, -1), "seed must be >= 0; got -1"),
    (lambda A, H: adaptive_constraints(A, None, 1, -1), "seed must be >= 0; got -1"),
    (lambda A, H: measure_report(H, seed=-1), "seed must be >= 0; got -1"),
], ids=["unknown-source", "first-negative-iters", "first-negative-seed",
        "smoothed-negative", "adaptive-negative-iters",
        "adaptive-float-iters", "adaptive-negative-seed", "adaptive-first-negative-seed",
        "report-negative-seed"])
def test_helpers_refuse_a_bad_value_by_name(call, message):
    """The exported helpers check their counts, seeds and source at entry,
    by the rules ExperimentConfig applies, and name the value."""
    A = assemble(ProblemSpec("rotated_anisotropic", n=8)).matrix
    H = setup(A, SetupConfig())
    with pytest.raises(ValueError, match=re.escape(message)):
        call(A, H)


def test_run_experiment_grid_size():
    cfg = ExperimentConfig(problem=ProblemSpec("rotated_anisotropic", 10, epsilon=1.0),
                           modes=["weighted"], taus=[0.5, 1e-4],
                           emin_iters=[1, 2, 3], pattern_degree=1,
                           improvement_iters=0, seed=0)
    rows = run_experiment(cfg)
    assert len(rows) == 6
    assert all(row["mode"] == "weighted" for row in rows)


def test_run_experiment_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig(problem=ProblemSpec("rotated_anisotropic", 12, epsilon=0.5),
                               modes=["constrained"], emin_iters=[1, 3],
                               pattern_degree=2, improvement_iters=2, seed=7,
                               output=str(out))
        run_experiment(cfg)
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_schema():
    assert CSV_HEADER == ["problem", "n", "epsilon", "theta", "K", "mode", "tau",
                          "pattern_degree", "emin_iters", "n_vecs", "imp_iters",
                          "seed", "levels", "oc", "cc", "cf", "wpd", "converged"]
    cfg = ExperimentConfig(problem=ProblemSpec("oscillatory", 8, K=10.0),
                           modes=["constrained"], emin_iters=[2],
                           pattern_degree=1, improvement_iters=0, seed=1)
    rows = run_experiment(cfg)
    text = rows_to_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "oscillatory"
    assert fields[6] == ""  # tau empty in constrained mode
    assert fields[-1] in ("true", "false")


def test_run_experiment_plateau_on_isotropic():
    cfg = ExperimentConfig(problem=ProblemSpec("rotated_anisotropic", 64, epsilon=1.0),
                           modes=["constrained"], emin_iters=[1, 5, 10],
                           pattern_degree=2, improvement_iters=0, seed=0)
    rows = run_experiment(cfg)
    wpd5, wpd10 = rows[1]["wpd"], rows[2]["wpd"]
    assert abs(wpd5 - wpd10) <= 0.15 * wpd5


def test_random_source_config_roundtrip(tmp_path):
    data = {
        "problem": {"kind": "rotated_anisotropic", "n": 10, "epsilon": 0.5},
        "modes": ["constrained"],
        "emin_iters": [2],
        "pattern_degree": 2,
        "n_constraint_vectors": 2,
        "improvement_iters": 2,
        "constraint_source": "random",
        "seed": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    cfg = ExperimentConfig.from_json(path)
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0]["n_vecs"] == 2


@pytest.mark.parametrize("source, n_vecs", [("constant", 1), ("random", 2)])
def test_sweep_computes_the_first_constraint_vector_once(source, n_vecs, monkeypatch):
    # the first vector depends on no grid value; a later adaptive vector
    # is improved by each grid point's own hierarchy
    calls = []
    original_smooth = experiments.smoothed_constant
    original_adaptive = experiments.adaptive_constraints

    def smooth(*args):
        calls.append("smoothed constant")
        return original_smooth(*args)

    def adaptive(A, existing, *args):
        k = 1 if existing is None else existing.fine_candidates.shape[1] + 1
        calls.append(f"adaptive vector {k}")
        return original_adaptive(A, existing, *args)

    monkeypatch.setattr(experiments, "smoothed_constant", smooth)
    monkeypatch.setattr(experiments, "adaptive_constraints", adaptive)
    cfg = ExperimentConfig(problem=ProblemSpec("rotated_anisotropic", 16, epsilon=0.5),
                           modes=["weighted", "constrained"], taus=[1e-1, 1e-4],
                           emin_iters=[1, 2], pattern_degree=2, constraint_source=source,
                           n_constraint_vectors=n_vecs, improvement_iters=2, seed=3)
    assert len(run_experiment(cfg)) == 6
    first = "smoothed constant" if source == "constant" else "adaptive vector 1"
    assert calls == [first] + ["adaptive vector 2"] * 6 * (n_vecs - 1)


def test_sweep_point_builds_the_hierarchy_setup_builds():
    """A sweep point and a direct setup with the same settings build one
    hierarchy, bit for bit: oscillatory n=32, K=1e6, weighted, tau 1e-4,
    degree 2, 5 iterations, the smoothed constant.  Level 0 stops at
    round-off after 4 of its 5 iterations in both."""
    spec = ProblemSpec("oscillatory", 32, K=1e6)
    A = assemble(spec).matrix
    cfg = ExperimentConfig(spec, modes=["weighted"], taus=[1e-4], emin_iters=[5],
                           pattern_degree=2)
    first = experiments.smoothed_constant(A, cfg.improvement_iters)
    swept = experiments._hierarchy_for_point(A, cfg, first, "weighted", 1e-4, 5)
    direct = setup(A, SetupConfig(mode="weighted", tau=1e-4, pattern_degree=2,
                                  emin_iters=5, candidates=first))
    for H in (swept, direct):
        assert len(H.levels[0].emin_residuals) - 1 == 4
    assert swept.n_levels == direct.n_levels
    for got, expected in zip(swept.levels, direct.levels):
        assert got.emin_residuals == expected.emin_residuals
        for M, N in ((got.A, expected.A), (got.P, expected.P)):
            if N is None:
                assert M is None
                continue
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(M, attr), getattr(N, attr))


def test_config_validation():
    prob = ProblemSpec("rotated_anisotropic", 8)
    with pytest.raises(ValueError):
        ExperimentConfig(problem=prob, modes=[])
    with pytest.raises(ValueError):
        ExperimentConfig(problem=prob, modes=["other"])
    with pytest.raises(ValueError):
        ExperimentConfig(problem=prob, modes=["weighted"], taus=[])
    with pytest.raises(ValueError):
        ExperimentConfig(problem=prob, constraint_source="constant",
                         n_constraint_vectors=2)


def test_sweep_csv_digest_is_pinned():
    # Byte-identical sweep output for a fixed seed: setup kernels rewritten
    # for speed must leave every CSV field unchanged.  Fields print 10
    # significant digits, so the digest does not depend on the BLAS build.
    cfg = ExperimentConfig(problem=ProblemSpec("oscillatory", 16, K=1e6),
                           modes=["weighted", "constrained"], taus=[1e-1, 1e-4],
                           emin_iters=[1, 4], seed=0)
    text = rows_to_csv_text(run_experiment(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "96d68d3e4f9bda65f32a9611317ccc644350079f7f41dae4ec5ff8deeb89f389"
