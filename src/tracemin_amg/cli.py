"""Command-line interface.

Subcommands: assemble (emit a benchmark matrix in Matrix Market form),
solve (build one hierarchy and report convergence), sweep (run a
configured experiment grid to CSV), theory (dense diagnostics of a
Matrix Market matrix), sylvester (solve A W B + C W D = F from Matrix
Market inputs).  Exit codes: 0 success, 2 configuration error,
3 solver divergence.
"""

import argparse
import dataclasses
import sys

import numpy as np

from .coarsening import cf_split, strength_graph
from .experiments import (ExperimentConfig, first_constraint_vector, measure_report,
                          run_experiment)
from .hierarchy import SetupConfig, setup
from .linalg import read_matrix_market, write_matrix_market
from .problems import DEFAULT_THETA, ProblemSpec, assemble
from .relaxation import SpectralEquivalence
from .sylvester import MatrixEquation, sylvester_cg
from .theory import DESK_SCALE_LIMIT, full_report, ideal_interpolation

CONFIG_ERROR = 2
DIVERGENCE_ERROR = 3


def _add_problem_args(parser):
    parser.add_argument("--problem", default="rotated_anisotropic",
                        choices=["rotated_anisotropic", "oscillatory"])
    parser.add_argument("--n", type=int, default=32, help="mesh intervals per side")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--theta", type=float, default=DEFAULT_THETA,
                        help="anisotropy rotation angle (radians)")
    parser.add_argument("--K", type=float, default=1.0,
                        help="oscillation magnitude for the oscillatory problem")


def _problem_spec(args):
    return ProblemSpec(kind=args.problem, n=args.n, epsilon=args.epsilon,
                       theta=args.theta, K=args.K)


def _cmd_assemble(args):
    spec = _problem_spec(args)
    problem = assemble(spec)
    write_matrix_market(args.out, problem.matrix, symmetry="symmetric")
    print(f"wrote {problem.matrix.shape[0]}x{problem.matrix.shape[1]} matrix "
          f"({problem.matrix.nnz} nonzeros) to {args.out}")
    return 0


def _cmd_solve(args):
    spec = _problem_spec(args)
    problem = assemble(spec)
    A = problem.matrix
    source = "random" if args.random_candidate else "constant"
    cands = first_constraint_vector(A, source, args.improvement_iters, args.seed)
    cfg = SetupConfig(mode=args.mode, tau=args.tau,
                      pattern_degree=args.pattern_degree,
                      emin_iters=args.iters, candidates=cands,
                      max_levels=args.max_levels)
    H = setup(A, cfg)
    report = measure_report(H, seed=args.seed)
    print(f"levels        {H.n_levels}  sizes {H.level_sizes()}")
    print(f"mode          {args.mode}" + (f"  tau {args.tau:g}" if args.mode == "weighted" else ""))
    print(f"OC            {report.oc:.4f}")
    print(f"CC            {report.cc:.4f}")
    print(f"CF            {report.cf:.4f}")
    print(f"WPD           {report.wpd:.4f}" if report.wpd is not None else "WPD           divergent")
    if not report.converged:
        print("solver diverged", file=sys.stderr)
        return DIVERGENCE_ERROR
    return 0


def _cmd_sweep(args):
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig(problem=_problem_spec(args))
    overrides = {"modes": None if args.mode is None else [args.mode],
                 "taus": None if args.tau is None else [args.tau],
                 "emin_iters": None if args.iters is None else [args.iters],
                 "seed": args.seed, "output": args.out or None}
    # replace re-runs the checks of __post_init__ on the overridden config
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    rows = run_experiment(cfg)
    print(f"ran {len(rows)} grid points" +
          (f", wrote {cfg.output}" if cfg.output else ""))
    if any(not row["converged"] for row in rows):
        print("at least one grid point diverged", file=sys.stderr)
        return DIVERGENCE_ERROR
    return 0


def _cmd_theory(args):
    A = read_matrix_market(args.matrix)
    if hasattr(A, "toarray"):
        A_sparse, A = A, A.toarray()
    else:
        raise ValueError("theory expects a sparse coordinate Matrix Market file")
    if A.shape[0] > DESK_SCALE_LIMIT:
        raise ValueError(f"theory diagnostics are capped at n = {DESK_SCALE_LIMIT}")
    split = cf_split(strength_graph(A_sparse.tocsr(), args.theta_strength))
    P = ideal_interpolation(A, split)
    M = np.diag(np.diag(A))  # one Jacobi sweep as the reference relaxation
    report = full_report(A, M, SpectralEquivalence(), split, P)
    print(f"n = {A.shape[0]}, n_c = {split.n_c} (ideal interpolation, Jacobi M)")
    print(report)
    return 0


def _cmd_sylvester(args):
    def load(path):
        M = read_matrix_market(path)
        return M.toarray() if hasattr(M, "toarray") else np.asarray(M)

    F = load(args.F)
    n, m = F.shape
    A = load(args.A) if args.A else np.eye(n)
    B = load(args.B) if args.B else np.eye(m)
    C = load(args.C) if args.C else np.eye(n)
    D = load(args.D) if args.D else np.zeros((m, m))
    eq = MatrixEquation(A, B, C, D, F)
    W, history = sylvester_cg(eq, max_iters=args.max_iters, tol=args.tol)
    print(f"relative residual {history[-1]:.3e} after {len(history) - 1} iterations")
    if args.out:
        write_matrix_market(args.out, W)
        print(f"wrote solution to {args.out}")
    if history[-1] > args.tol:
        print("matrix-equation solve did not reach tolerance", file=sys.stderr)
        return DIVERGENCE_ERROR
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tracemin-amg",
        description="AMG with energy-minimization interpolation: benchmark "
                    "assembly, solves, experiment sweeps, dense two-grid "
                    "diagnostics, and a Sylvester/Lyapunov solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="emit a benchmark matrix (Matrix Market)")
    _add_problem_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("solve", help="build one hierarchy and report convergence")
    _add_problem_args(p)
    p.add_argument("--mode", default="constrained", choices=["weighted", "constrained"])
    p.add_argument("--tau", type=float, default=1e-4)
    p.add_argument("--iters", type=int, default=None,
                   help="energy-minimization iterations (default: degree + 3)")
    p.add_argument("--pattern-degree", type=int, default=2)
    p.add_argument("--max-levels", type=int, default=25)
    p.add_argument("--improvement-iters", type=int, default=5)
    p.add_argument("--random-candidate", action="store_true",
                   help="use a seeded random constraint vector instead of the constant")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run an experiment grid, emit CSV")
    _add_problem_args(p)
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--mode", choices=["weighted", "constrained"])
    p.add_argument("--tau", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("theory", help="dense two-grid diagnostics of a matrix")
    p.add_argument("--matrix", required=True, help="Matrix Market file")
    p.add_argument("--theta-strength", type=float, default=0.25)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("sylvester", help="solve A W B + C W D = F")
    p.add_argument("--A")
    p.add_argument("--B")
    p.add_argument("--C")
    p.add_argument("--D")
    p.add_argument("--F", required=True)
    p.add_argument("--out")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=500)
    p.set_defaults(func=_cmd_sylvester)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # JSONDecodeError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
