import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from sparse_helpers import invalid_operators
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


def test_solve_reports_convergence(tmp_path, capsys):
    code = main(["solve", "--problem", "rotated_anisotropic", "--n", "16",
                 "--mode", "constrained", "--pattern-degree", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "CF" in out and "WPD" in out


def test_solve_measures_an_exactly_solved_one_level_hierarchy(capsys):
    # n = 2 leaves one unknown: the coarsest level is the whole problem
    assert main(["solve", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "sizes [1]" in out and "CF            0.0000" in out


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


@pytest.mark.parametrize("argv, cause", [
    (["--tau", "1.5"], "tau must lie in [0, 1]; got 1.5"),
    (["--iters", "-1"], "emin_iters must be None or >= 0; got -1"),
    (["--max-levels", "1"], "coarsest level has 225 rows: its dense Cholesky "
                            "factorization needs 405000 bytes"),
], ids=["tau", "emin-iters", "coarsest-size"])
def test_solve_exits_2_naming_a_bad_setting(argv, cause, monkeypatch, capsys):
    monkeypatch.setattr(hierarchy, "MAX_DENSE_COARSE_BYTES", 8 * 100 * 100)
    assert main(["solve", "--n", "16"] + argv) == 2
    assert cause in capsys.readouterr().err


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
    code = main(["sweep", "--config", str(cfg_path), "--iters", "2",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2  # header + the single overridden grid point


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
     "tau must be a real number; got '0.1'"),
    ({"problem": PROBLEM, "theta_strength": "0.4"},
     "theta_strength must be a real number; got '0.4'"),
], ids=["unknown-kind", "unknown-key", "missing-problem", "unknown-problem-key",
        "problem-not-object", "scalar-grid", "float-grid-entry", "float-count",
        "string-tau", "string-theta"])
def test_sweep_rejects_bad_config(config, cause, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert f"error: {cause}" in capsys.readouterr().err


@pytest.mark.parametrize("config, argv, cause", [
    ({"modes": ["constrained"], "taus": []}, ["--mode", "weighted"],
     "weighted mode needs a nonempty tau grid"),
    ({}, ["--mode", "weighted", "--tau", "1.5"], "tau must lie in [0, 1]; got 1.5"),
    ({}, ["--iters", "-1"], "emin_iters must be None or >= 0; got -1"),
    ({"modes": ["weighted"], "taus": [0.1, True]}, [], "tau must be a real number; got True"),
], ids=["override-empties-tau-grid", "override-tau", "override-iters", "bool-grid-entry"])
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


def test_theory_rejects_large_matrix(tmp_path):
    out = tmp_path / "big.mtx"
    main(["assemble", "--problem", "rotated_anisotropic", "--n", "32",
          "--out", str(out)])
    assert main(["theory", "--matrix", str(out)]) == 2


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
