import dataclasses
import json

import numpy as np
import pytest

from tracemin_amg import cli
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


def test_sweep_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"problem": {"kind": "nope", "n": 8}}))
    assert main(["sweep", "--config", str(cfg_path)]) == 2


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
