import csv
import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from sparse_helpers import both_paths, invalid_operators
from tracemin_amg import cli, experiments, hierarchy
from tracemin_amg.cli import main
from tracemin_amg.linalg import read_matrix_market, write_matrix_market


def test_assemble_writes_matrix_market(tmp_path, capsys):
    out = tmp_path / "poisson.mtx"
    code = main(["assemble", "--problem", "rotated_anisotropic", "--n", "8",
                 "--epsilon", "1.0", "--out", str(out)])
    assert code == 0
    A = read_matrix_market(out)
    assert A.shape == (49, 49)
    header = out.read_text().splitlines()[0]
    assert "symmetric" in header


def test_solve_reports_convergence(monkeypatch, capsys):
    built = []
    real_setup = cli.setup

    def recording_setup(A, cfg):
        built.append(real_setup(A, cfg))
        return built[-1]

    monkeypatch.setattr(cli, "setup", recording_setup)
    code = main(["solve", "--problem", "rotated_anisotropic", "--n", "16",
                 "--mode", "constrained", "--pattern-degree", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "CF" in out and "WPD" in out
    nnz = [lvl.A.nnz for lvl in built[0].levels]
    per_row = ", ".join(f"{lvl.A.nnz / lvl.A.shape[0]:.1f}" for lvl in built[0].levels)
    assert len(nnz) >= 2
    assert f"nnz           {nnz}  per row [{per_row}]" in out.splitlines()


def test_solve_measures_an_exactly_solved_one_level_hierarchy(capsys):
    # n = 2 leaves one unknown: the coarsest level is the whole problem
    assert main(["solve", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "sizes [1]" in out and "CF            0.0000" in out
    assert "emin iters    []" in out.splitlines()
    assert "omega         []" in out.splitlines()


@pytest.mark.parametrize("mode, mode_line", [
    ("constrained", "mode          constrained"),
    ("weighted", "mode          weighted  tau 0.0001"),  # with no --tau, SetupConfig's
], ids=["constrained", "weighted"])
def test_solve_reports_the_kernel_path_and_else_the_same_bytes(mode, mode_line, capsys):
    """The report names the path that built the hierarchy, and both paths
    build the same one: the reports differ in that line alone."""
    argv = ["solve", "--problem", "oscillatory", "--n", "32", "--K", "1e6", "--mode", mode]
    reports = []
    for compiled, path in both_paths():
        with path:
            assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        named = [line for line in lines if line.startswith("kernels")]
        assert named == [f"kernels       {'compiled' if compiled else 'python'}"]
        assert [line for line in lines if line.startswith("mode ")] == [mode_line]
        reports.append([line for line in lines if not line.startswith("kernels")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv, iters", [
    (["--n", "16", "--pattern-degree", "4"], [1, 5]),
    (["--n", "16", "--pattern-degree", "4", "--iters", "7"], [1, 7]),
    (["--n", "32"], [1, 3, 3]),
    (["--n", "32", "--mode", "weighted"], [5, 5, 5]),
    (["--n", "16", "--mode", "weighted", "--tau", "0"], [0, 0]),
], ids=["default", "explicit", "constrained-roundoff", "weighted-budget", "tau-0"])
def test_solve_reports_the_minimization_iterations_of_each_level(argv, iters, capsys):
    """The minimization has no tolerance: each level runs its budget
    (degree + 1 constrained, degree + 3 weighted, or --iters) and stops
    early only at round-off, as level 0 does on the constrained route.
    At tau 0 every level's start is already at round-off."""
    assert main(["solve"] + argv) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("emin iters    ")]
    assert lines == [f"emin iters    {iters}"]


def test_solve_reports_the_jacobi_omega_of_each_relaxed_level(monkeypatch, capsys):
    built = []
    real_setup = cli.setup

    def recording_setup(A, cfg):
        built.append(real_setup(A, cfg))
        return built[-1]

    monkeypatch.setattr(cli, "setup", recording_setup)
    assert main(["solve", "--problem", "oscillatory", "--n", "32", "--K", "1e6"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("omega ")]
    assert len(lines) == 1
    omegas = json.loads(lines[0].removeprefix("omega "))
    relaxed = built[0].levels[:-1]  # the coarsest level is solved directly
    assert len(relaxed) >= 2
    assert omegas == [round(lvl.relaxation.omega, 4) for lvl in relaxed]


def test_solve_exits_3_on_a_diverging_cycle(monkeypatch, capsys):
    # over-damped Jacobi (omega = 3) makes the V-cycle diverge
    real_setup = cli.setup
    monkeypatch.setattr(cli, "setup", lambda A, cfg: real_setup(
        A, dataclasses.replace(cfg, jacobi_omega=3.0)))
    with pytest.warns(RuntimeWarning, match="diverging"):
        code = main(["solve", "--problem", "rotated_anisotropic", "--n", "32",
                     "--epsilon", "1.0"])
    assert code == 3
    captured = capsys.readouterr()
    assert "WPD           divergent" in captured.out
    assert "solver diverged" in captured.err


@pytest.mark.parametrize("case", sorted(invalid_operators()))
def test_solve_exits_2_naming_an_invalid_operator(case, monkeypatch, capsys):
    A, cause = invalid_operators()[case]
    monkeypatch.setattr(cli, "assemble", lambda spec: SimpleNamespace(matrix=A))
    assert main(["solve", "--improvement-iters", "0"]) == 2
    assert re.search(cause, capsys.readouterr().err)


@pytest.mark.parametrize("argv, cause, assembles", [
    (["--tau", "1.5"], "tau must lie in [0, 1]; got 1.5", False),
    (["--iters", "-1"], "emin_iters must be >= 0; got -1", False),
    (["--improvement-iters", "-3"], "improvement_iters must be >= 0; got -3", False),
    (["--seed", "-1"], "seed must be >= 0; got -1", False),
    (["--K", "nan"], "K must be a finite real number; got nan", False),
    (["--max-levels", "1"], "coarsest level has 225 rows: its dense Cholesky "
                            "factorization needs 405000 bytes", True),
], ids=["tau", "emin-iters", "improvement-iters", "seed", "nan-K", "coarsest-size"])
def test_solve_exits_2_naming_a_bad_setting(argv, cause, assembles, monkeypatch, capsys):
    """A bad option exits before the problem is assembled; a coarsest
    level too large to factorize is found only by the setup."""
    calls = []
    real_assemble = cli.assemble

    def counting_assemble(spec):
        calls.append(spec)
        return real_assemble(spec)

    monkeypatch.setattr(cli, "assemble", counting_assemble)
    monkeypatch.setattr(hierarchy, "MAX_DENSE_COARSE_BYTES", 8 * 100 * 100)
    assert main(["solve", "--n", "16"] + argv) == 2
    assert cause in capsys.readouterr().err
    assert len(calls) == assembles


def test_sweep_with_config_and_overrides(tmp_path):
    cfg = {
        "problem": {"kind": "rotated_anisotropic", "n": 10, "epsilon": 1.0},
        "modes": ["weighted"],
        "taus": [0.5],
        "emin_iters": [1, 2],
        "pattern_degree": 1,
        "improvement_iters": 0,
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rows.csv"
    for flags, problem in [([], "rotated_anisotropic,10,"),
                           (["--problem", "oscillatory", "--n", "8"], "oscillatory,8,")]:
        code = main(["sweep", "--config", str(cfg_path), "--iters", "2",
                     "--out", str(out)] + flags)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2  # header + the single overridden grid point
        assert next(csv.reader(lines)) == experiments.CSV_HEADER
        assert lines[1].startswith(problem)  # a problem flag overrides the file's


PROBLEM = {"kind": "oscillatory", "n": 8}


@pytest.mark.parametrize("config, cause", [
    ({"problem": {"kind": "nope", "n": 8}}, "unknown problem kind: 'nope'"),
    ({"problem": PROBLEM, "emin_iter": [1]}, "config has unknown key 'emin_iter'"),
    ({"modes": ["weighted"]}, "config is missing key 'problem'"),
    ({"problem": dict(PROBLEM, KK=3)}, "problem has unknown key 'KK'"),
    ({"problem": "oscillatory"}, "problem must be a JSON object; got 'oscillatory'"),
    ({"problem": PROBLEM, "emin_iters": 3}, "emin_iters must be a list; got 3"),
    ({"problem": PROBLEM, "emin_iters": [2, 1.5]}, "emin_iters[1] must be an integer; "
                                                   "got 1.5"),
    ({"problem": PROBLEM, "pattern_degree": 2.5}, "pattern_degree must be an integer; "
                                                  "got 2.5"),
    ({"problem": PROBLEM, "modes": ["weighted"], "taus": ["0.1"]},
     "tau must be a finite real number; got '0.1'"),
    ({"problem": PROBLEM, "theta_strength": "0.4"}, "config has unknown key 'theta_strength'"),
    ({"problem": PROBLEM, "improvement_iters": -3}, "improvement_iters must be >= 0; "
                                                    "got -3"),
    ({"problem": PROBLEM, "constraint_source": "random", "n_constraint_vectors": 0},
     "n_constraint_vectors must be >= 1; got 0"),
    ({"problem": PROBLEM, "constraint_source": "adaptive"},
     "constraint_source must be 'constant' or 'random'"),
    ({"problem": PROBLEM, "seed": -1}, "seed must be >= 0; got -1"),
    ({"problem": dict(PROBLEM, n=8.5)}, "n must be an integer; got 8.5"),
    ({"problem": dict(PROBLEM, epsilon="0.1")},
     "epsilon must be a finite real number; got '0.1'"),
    ({"problem": dict(PROBLEM, theta="x")}, "theta must be a finite real number; got 'x'"),
    ({"problem": dict(PROBLEM, theta=float("nan"))},
     "theta must be a finite real number; got nan"),
    ({"problem": dict(PROBLEM, K=float("nan"))}, "K must be a finite real number; got nan"),
    ({"problem": dict(PROBLEM, K=float("inf"))}, "K must be a finite real number; got inf"),
    ({"problem": PROBLEM, "output": 2}, "output must be None or a string; got 2"),
], ids=["unknown-kind", "unknown-key", "missing-problem", "unknown-problem-key",
        "problem-not-object", "scalar-grid", "float-grid-entry", "float-count",
        "string-tau", "string-theta", "negative-improvement-iters", "no-vectors",
        "unknown-constraint-source", "negative-seed", "float-n", "string-epsilon",
        "string-problem-theta", "nan-theta", "nan-K", "infinite-K", "integer-output"])
def test_sweep_rejects_bad_config(config, cause, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert f"error: {cause}" in capsys.readouterr().err


@pytest.mark.parametrize("config, argv, cause", [
    ({"modes": ["constrained"], "taus": []}, ["--mode", "weighted"],
     "weighted mode needs a nonempty tau grid"),
    ({}, ["--mode", "weighted", "--tau", "1.5"], "tau must lie in [0, 1]; got 1.5"),
    ({}, ["--iters", "-1"], "emin_iters[0] must be >= 0; got -1"),
    ({"modes": ["weighted"], "taus": [0.1, True]}, [],
     "tau must be a finite real number; got True"),
    ({}, ["--seed", "-1"], "seed must be >= 0; got -1"),
], ids=["override-empties-tau-grid", "override-tau", "override-iters", "bool-grid-entry",
        "override-seed"])
def test_sweep_rejects_a_bad_point_before_assembly(config, argv, cause, tmp_path,
                                                   monkeypatch, capsys):
    def assemble(spec):
        raise AssertionError("a sweep with an invalid grid point assembled its problem")

    monkeypatch.setattr(experiments, "assemble", assemble)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(config, problem=PROBLEM)))
    assert main(["sweep", "--config", str(cfg_path)] + argv) == 2
    assert f"error: {cause}" in capsys.readouterr().err


def test_theory_subcommand(tmp_path, capsys):
    out = tmp_path / "m.mtx"
    main(["assemble", "--problem", "rotated_anisotropic", "--n", "6",
          "--out", str(out)])
    code = main(["theory", "--matrix", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "K_TG" in text and "beta_sap" in text


# one field of the theory report: its 18-column label, then its value
REPORT_FIELD = re.compile(r".{18} [ -][0-9]\.[0-9]{12}e[+-][0-9]{2}")

# a 3x3 tridiag(-1, 2, -1), lower triangle only, in an integer and a complex field
TRIDIAGONAL_MTX = {
    "integer": "3 3 5\n1 1 2\n2 1 -1\n2 2 2\n3 2 -1\n3 3 2\n",
    "complex": "3 3 5\n1 1 2 0\n2 1 -1 0\n2 2 2 0\n3 2 -1 0\n3 3 2 0\n",
}


@pytest.mark.parametrize("field, code", [("integer", 0), ("complex", 2)])
def test_theory_reads_an_integer_field_and_refuses_a_complex_one(field, code, tmp_path, capsys):
    path = tmp_path / f"{field}.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate {field} symmetric\n"
                    + TRIDIAGONAL_MTX[field])
    assert main(["theory", "--matrix", str(path)]) == code
    captured = capsys.readouterr()
    if code == 0:  # a header, then nine fields of an 18-column label and a value
        lines = captured.out.splitlines()
        assert lines[0] == "n = 3, n_c = 2 (ideal interpolation, Jacobi M)"
        assert len(lines) == 10 and all(REPORT_FIELD.fullmatch(line) for line in lines[1:])
    else:
        assert "complex-field Matrix Market file" in captured.err


def test_theory_reports_a_matrix_with_no_strong_coupling(tmp_path, capsys):
    """A diagonal matrix splits into C points alone: the report leaves out
    K_TG and the F-block eigenvalues and prints the other six fields."""
    path = tmp_path / "diag.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n"
                    "1 1 2\n2 2 2\n3 3 2\n")
    assert main(["theory", "--matrix", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n = 3, n_c = 3 (ideal interpolation, Jacobi M)"
    assert [line[:18].rstrip() for line in lines[1:]] == [
        "||E_TG||_A", "||PR||_A^2", "tr(PtAP RAinvRt)", "||Ainv|| tr(PtAP)",
        "beta_wap", "beta_sap"]
    assert all(REPORT_FIELD.fullmatch(line) for line in lines[1:])


def test_theory_refuses_an_array_format_file(tmp_path, capsys):
    path = tmp_path / "dense.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n2\n-1\n-1\n2\n")
    assert main(["theory", "--matrix", str(path)]) == 2
    assert "error: theory expects a sparse coordinate Matrix Market file" \
        in capsys.readouterr().err


def test_theory_exits_2_naming_a_non_finite_entry(tmp_path, capsys):
    path = tmp_path / "nan.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    + TRIDIAGONAL_MTX["integer"].replace("2 2 2", "2 2 nan"))
    assert main(["theory", "--matrix", str(path)]) == 2
    assert "error: matrix has a non-finite entry nan at (1, 1)" in capsys.readouterr().err


def test_theory_rejects_large_matrix(tmp_path):
    out = tmp_path / "big.mtx"
    main(["assemble", "--problem", "rotated_anisotropic", "--n", "32",
          "--out", str(out)])
    assert main(["theory", "--matrix", str(out)]) == 2


def test_theory_refuses_an_oversize_matrix_before_densifying(tmp_path, monkeypatch, capsys):
    out = tmp_path / "big.mtx"
    assert main(["assemble", "--n", "24", "--out", str(out)]) == 0  # 529 rows

    def read_without_densifying(path):
        A = read_matrix_market(path)

        def refuse():
            raise MemoryError("theory densified an oversize matrix")

        A.toarray = refuse
        return A

    monkeypatch.setattr(cli, "read_matrix_market", read_without_densifying)
    assert main(["theory", "--matrix", str(out)]) == 2
    assert "dense diagnostics are capped at n = 500; got n = 529" in capsys.readouterr().err


def write_sylvester_rhs(tmp_path):
    path = tmp_path / "F.mtx"
    write_matrix_market(path, np.ones((3, 2)))
    return path


@pytest.mark.parametrize("command", ["assemble", "sylvester"])
def test_unwritable_out_exits_2_naming_the_path(command, tmp_path, capsys):
    """A path under a missing directory is an error, not a file reported
    as written."""
    target = tmp_path / "missing" / "out.mtx"
    argv = ["assemble", "--n", "4"] if command == "assemble" else \
        ["sylvester", "--F", str(write_sylvester_rhs(tmp_path))]
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert str(target) in captured.err and "wrote" not in captured.out
    if command == "sylvester":  # it solved at sylvester_cg's defaults before the write
        assert captured.out.startswith("relative residual ")
    assert not target.parent.exists()


@pytest.mark.parametrize("argv, cause", [
    (["--tol", "-1"], "tol must be >= 0; got -1.0"),
    (["--tol", "nan"], "tol must be a finite real number; got nan"),
    (["--max-iters", "-3"], "max_iters must be >= 0; got -3"),
], ids=["negative-tol", "nan-tol", "negative-max-iters"])
def test_sylvester_exits_2_naming_a_bad_setting(argv, cause, tmp_path, capsys):
    assert main(["sylvester", "--F", str(write_sylvester_rhs(tmp_path))] + argv) == 2
    assert f"error: {cause}" in capsys.readouterr().err


def test_sylvester_exits_2_naming_a_non_finite_rhs(tmp_path, capsys):
    path = tmp_path / "F.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nnan\n3\n4\n")
    assert main(["sylvester", "--F", str(path)]) == 2
    assert "error: F has a non-finite entry (NaN or inf)" in capsys.readouterr().err


def test_sylvester_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    G = rng.standard_normal((5, 5))
    A = G @ G.T + 5 * np.eye(5)
    H = rng.standard_normal((4, 4))
    D = H @ H.T + 4 * np.eye(4)
    F = rng.standard_normal((5, 4))
    paths = {}
    for name, M in (("A", A), ("D", D), ("F", F)):
        paths[name] = tmp_path / f"{name}.mtx"
        write_matrix_market(paths[name], M)
    out = tmp_path / "W.mtx"
    code = main(["sylvester", "--A", str(paths["A"]), "--D", str(paths["D"]),
                 "--F", str(paths["F"]), "--out", str(out), "--tol", "1e-10"])
    assert code == 0
    W = np.asarray(read_matrix_market(out))
    resid = A @ W + W @ D - F
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(F)


def test_sylvester_reports_nonconvergence(tmp_path):
    rng = np.random.default_rng(1)
    G = rng.standard_normal((6, 6))
    A = G @ G.T + 6 * np.eye(6)
    F = rng.standard_normal((6, 6))
    pa, pf = tmp_path / "A.mtx", tmp_path / "F.mtx"
    write_matrix_market(pa, A)
    write_matrix_market(pf, F)
    code = main(["sylvester", "--A", str(pa), "--D", str(pa), "--F", str(pf),
                 "--max-iters", "0", "--tol", "1e-12"])
    assert code == 3


def test_sylvester_exits_3_naming_an_indefinite_operator(tmp_path, capsys):
    """An A with eigenvalues of both signs makes sylvester_cg meet
    nonpositive curvature: a solver breakdown, exit 3 with its message,
    not a traceback."""
    pa, pf = tmp_path / "A.mtx", tmp_path / "F.mtx"
    write_matrix_market(pa, np.diag([1.0, -1.0]))
    write_matrix_market(pf, np.array([[0.0], [1.0]]))
    assert main(["sylvester", "--A", str(pa), "--F", str(pf)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: matrix-equation CG aborted at iteration 0: "
                                   "nonpositive curvature")


def test_sweep_exits_3_when_a_grid_point_diverges(monkeypatch, capsys):
    """No small sweep diverges, so the grid's rows are stubbed: one row
    that did not converge makes the exit status 3."""
    monkeypatch.setattr(cli, "run_experiment",
                        lambda cfg: [{"converged": True}, {"converged": False}])
    assert main(["sweep", "--n", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "ran 2 grid points\n"
    assert "at least one grid point diverged" in captured.err


def test_sweep_checks_its_output_before_assembly(tmp_path, monkeypatch, capsys):
    """An output path that cannot be written fails before the grid runs."""
    calls = []
    monkeypatch.setattr(experiments, "assemble", calls.append)
    target = tmp_path / "missing" / "x.csv"
    assert main(["sweep", "--problem", "oscillatory", "--n", "8", "--out", str(target)]) == 2
    assert str(target) in capsys.readouterr().err
    assert calls == []


def test_indefinite_coarse_level_is_a_configuration_error(monkeypatch, capsys):
    """A minimization breakdown on an indefinite coarse level (lumping at
    theta = 2e-3, down to 10 rows) exits 2 with the level named, not with
    a traceback."""
    monkeypatch.setattr(hierarchy, "NON_GALERKIN_THETA", 2e-3)
    monkeypatch.setattr(cli, "setup", lambda A, cfg: hierarchy.setup(
        A, dataclasses.replace(cfg, max_coarse=10)))
    assert main(["solve", "--n", "64", "--epsilon", "1e-3", "--pattern-degree", "4"]) == 2
    assert re.match(r"error: level \d+ \(\d+ rows\): operator is not positive definite: "
                    r"energy-minimization CG breakdown", capsys.readouterr().err)
