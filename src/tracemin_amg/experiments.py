"""Experiment harness: convergence metrics, the adaptive constraint
protocol, and grid sweeps with CSV emission.

A sweep builds one hierarchy per (mode, tau, energy-minimization
iteration count) grid point, measures the stationary V-cycle
convergence factor, and emits one CSV row per point.  All randomness
flows from the single configuration seed.  The work-per-digit metric
WPD = -CC / log10(CF) prices one order of magnitude of residual
reduction in fine-grid matvec units.
"""

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .energymin import prepare_candidates
from .hierarchy import (SetupConfig, convergence_factor, measure_convergence_factor,
                        reject_non_integers, setup, solve)
from .problems import ProblemSpec, assemble
from .relaxation import Relaxation, auto_jacobi_omega, relax_sweep

__all__ = [
    "ConvergenceReport",
    "ExperimentConfig",
    "convergence_report",
    "measure_report",
    "adaptive_constraints",
    "smoothed_constant",
    "first_constraint_vector",
    "run_experiment",
    "CSV_HEADER",
]

CSV_HEADER = ["problem", "n", "epsilon", "theta", "K", "mode", "tau",
              "pattern_degree", "emin_iters", "n_vecs", "imp_iters", "seed",
              "levels", "oc", "cc", "cf", "wpd", "converged"]


@dataclass
class ConvergenceReport:
    """Measured solver quality: convergence factor, complexities and
    work per digit of accuracy."""

    cf: float
    oc: float
    cc: float
    wpd: float
    converged: bool


def convergence_report(H, residual_history):
    """Summarize a residual history against a hierarchy's complexities.

    cf is the geometric mean of the residual ratios over the last
    hierarchy.CF_WINDOW iterations; wpd = -cc / log10(cf) for
    0 < cf < 1, and is None (flagged divergent) otherwise.  Needs
    CF_WINDOW + 1 residuals, as many as a solve stopped after CF_WINDOW
    consecutive growths leaves, unless the history ends at an exact
    zero: cf and wpd are then 0.
    """
    cf = convergence_factor(residual_history)
    oc = float(H.operator_complexity())
    cc = float(H.cycle_complexity())
    if cf == 0.0:
        wpd, converged = 0.0, True
    elif 0.0 < cf < 1.0:
        wpd, converged = float(-cc / math.log10(cf)), True
    else:
        wpd, converged = None, False
    return ConvergenceReport(cf=cf, oc=oc, cc=cc, wpd=wpd, converged=converged)


def measure_report(H, seed=0):
    """Run the stationary measurement protocol and summarize it."""
    _, history = measure_convergence_factor(H, seed=seed)
    return convergence_report(H, history)


def adaptive_constraints(A, existing, n_vecs, improvement_iters, seed):
    """Grow the constraint set to n_vecs vectors, adaptively.

    The first vector is a seeded random vector improved by Jacobi
    sweeps on A x = 0; each later vector is a fresh seeded random
    vector improved by V-cycles of the hierarchy built from the
    previous constraints (`existing`), after which the caller rebuilds
    the hierarchy.  Returns the A-orthonormalized candidate set.
    """
    if n_vecs < 1:
        raise ValueError("need at least one constraint vector")
    if n_vecs >= 2 and existing is None:
        raise ValueError(f"constraint vector {n_vecs} requested without a "
                         f"hierarchy built from the previous vectors")
    rng = np.random.default_rng([seed, n_vecs])
    v = rng.standard_normal(A.shape[0])
    if n_vecs == 1:
        return prepare_candidates(A, _jacobi_smoothed(A, v, improvement_iters))
    prev = existing.fine_candidates
    if prev.shape[1] != n_vecs - 1:
        raise ValueError(f"existing hierarchy holds {prev.shape[1]} "
                         f"constraint vectors, expected {n_vecs - 1}")
    if improvement_iters > 0:
        v, _ = solve(existing, np.zeros_like(v), tol=0.0,
                     max_iters=improvement_iters, accel="stationary", x0=v)
    return prepare_candidates(A, np.column_stack([prev, v]))


@dataclass
class ExperimentConfig:
    """One sweep: a problem, a mode/tau/iteration grid, and the
    constraint-vector protocol.

    constraint_source 'constant' smooths the constant vector with
    improvement_iters Jacobi sweeps (n_constraint_vectors must be 1);
    'random' runs the adaptive protocol of seeded random vectors.
    The counts, and each emin_iters entry, must be integers; every
    other setup option is checked by building each grid point's
    SetupConfig.
    """

    problem: ProblemSpec
    modes: list = field(default_factory=lambda: ["constrained"])
    taus: list = field(default_factory=lambda: [1e-1, 1e-4, 1e-7])
    emin_iters: list = field(default_factory=lambda: list(range(1, 20)))
    pattern_degree: int = 4
    n_constraint_vectors: int = 1
    improvement_iters: int = 5
    seed: int = 0
    output: str = None
    constraint_source: str = "constant"
    theta_strength: float = 0.4
    max_levels: int = 25
    max_coarse: int = 100

    def __post_init__(self):
        for name in ("modes", "taus", "emin_iters"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list; got {getattr(self, name)!r}")
        reject_non_integers(n_constraint_vectors=self.n_constraint_vectors,
                            improvement_iters=self.improvement_iters, seed=self.seed,
                            **{f"emin_iters[{i}]": v for i, v in enumerate(self.emin_iters)})
        if not self.modes or not self.emin_iters:
            raise ValueError("mode and iteration grids must be nonempty")
        if "weighted" in self.modes and not self.taus:
            raise ValueError("weighted mode needs a nonempty tau grid")
        if self.constraint_source not in ("constant", "random"):
            raise ValueError("constraint_source must be 'constant' or 'random'")
        if self.constraint_source == "constant" and self.n_constraint_vectors != 1:
            raise ValueError("the smoothed-constant source provides exactly "
                             "one constraint vector")
        for point in self.grid():
            _setup_config(self, *point, None)

    def grid(self):
        """The (mode, tau, emin_iters) sweep points in row order; tau is
        None in constrained mode, which has no tau grid."""
        for mode in self.modes:
            for tau in self.taus if mode == "weighted" else [None]:
                for iters in self.emin_iters:
                    yield mode, tau, iters

    @classmethod
    def from_dict(cls, data):
        """The configuration from a JSON object; an unknown or missing key,
        in it or in its 'problem' object, raises a ValueError naming it."""
        data = dict(_checked_keys(cls, data, "config"))
        problem = data.pop("problem")
        if not isinstance(problem, ProblemSpec):
            problem = ProblemSpec(**_checked_keys(ProblemSpec, problem, "problem"))
        return cls(problem=problem, **data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _checked_keys(cls, data, name):
    """data, checked to be a JSON object that holds only fields of the
    dataclass cls and every field without a default."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object; got {data!r}")
    for f in fields(cls):
        if f.default is f.default_factory is MISSING and f.name not in data:
            raise ValueError(f"{name} is missing key {f.name!r}")
    unknown = sorted(data.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{name} has unknown key {unknown[0]!r}")
    return data


def _setup_config(cfg, mode, tau, iters, candidates):
    return SetupConfig(mode=mode, tau=0.0 if tau is None else tau,
                       pattern_degree=cfg.pattern_degree, emin_iters=iters,
                       emin_tol=0.0, theta_strength=cfg.theta_strength,
                       max_coarse=cfg.max_coarse, max_levels=cfg.max_levels,
                       candidates=candidates)


def _jacobi_smoothed(A, v, sweeps):
    """v improved by `sweeps` damped Jacobi sweeps on A x = 0."""
    if sweeps > 0:
        rel = Relaxation(omega=auto_jacobi_omega(A), sweeps=sweeps)
        v = relax_sweep(rel, A, v, np.zeros_like(v))
    return v


def smoothed_constant(A, sweeps):
    return _jacobi_smoothed(A, np.ones(A.shape[0]), sweeps)[:, None]


def first_constraint_vector(A, source, improvement_iters, seed):
    """The first constraint vector as an n x 1 array: the constant
    smoothed by improvement_iters Jacobi sweeps (source 'constant'), or
    the seeded random vector of the adaptive protocol (source 'random').
    It depends on no setup option, so a sweep computes it once."""
    if source == "constant":
        return smoothed_constant(A, improvement_iters)
    return adaptive_constraints(A, None, 1, improvement_iters, seed).vectors


def _hierarchy_for_point(A, cfg, first, mode, tau, iters):
    """Build the hierarchy for one grid point from the first constraint
    vector, then grow the adaptive constraint chain to
    cfg.n_constraint_vectors vectors."""
    H = setup(A, _setup_config(cfg, mode, tau, iters, first))
    for k in range(2, cfg.n_constraint_vectors + 1):
        cands = adaptive_constraints(A, H, k, cfg.improvement_iters, cfg.seed)
        H = setup(A, _setup_config(cfg, mode, tau, iters, cands.vectors))
    return H


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def run_experiment(cfg):
    """Run the configured sweep; returns the row dicts and writes the
    CSV when an output path is set.  Deterministic under a fixed seed."""
    problem = assemble(cfg.problem)
    A = problem.matrix
    first = first_constraint_vector(A, cfg.constraint_source,
                                    cfg.improvement_iters, cfg.seed)
    rows = []
    for mode, tau, iters in cfg.grid():
        H = _hierarchy_for_point(A, cfg, first, mode, tau, iters)
        report = measure_report(H, seed=cfg.seed)
        rows.append({
            "problem": cfg.problem.kind,
            "n": cfg.problem.n,
            "epsilon": cfg.problem.epsilon,
            "theta": cfg.problem.theta,
            "K": cfg.problem.K,
            "mode": mode,
            "tau": tau,
            "pattern_degree": cfg.pattern_degree,
            "emin_iters": iters,
            "n_vecs": cfg.n_constraint_vectors,
            "imp_iters": cfg.improvement_iters,
            "seed": cfg.seed,
            "levels": H.n_levels,
            "oc": report.oc,
            "cc": report.cc,
            "cf": report.cf,
            "wpd": report.wpd,
            "converged": report.converged,
        })
    if cfg.output is not None:
        write_csv(cfg.output, rows)
    return rows


def rows_to_csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(row[key]) for key in CSV_HEADER])
    return buf.getvalue()


def write_csv(path, rows):
    text = rows_to_csv_text(rows)
    with open(path, "w", newline="") as fh:
        fh.write(text)
