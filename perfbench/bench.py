"""Workloads of the benchmark: one timed rep each, and the checks on every
result.

A rep is what a user does to get an answer:

* aniso-*: assemble the rotated anisotropic problem, smooth the constant
  candidate, set up a constrained hierarchy and solve a few seeded
  right-hand sides by V-cycle preconditioned CG.  After the last rep,
  `finish` measures the hierarchy's convergence factor
  (`measure_report`, for `wpd`) once: it is deterministic.
* osc-weighted-sweep: one `run_experiment` over the weighted grid on the
  oscillatory problem, then solve the seeded right-hand sides with the
  hierarchy of the last grid point.  The grid rows carry `wpd`.

Every rep of a run uses the same inputs, so its counts must repeat.
The library is always called through module attributes, so the
tracer's wrappers on those names see the benchmark's own calls.
"""

import hashlib
import statistics
import time
import traceback

import numpy as np

from tracemin_amg import energymin, experiments, hierarchy, problems
from tracemin_amg.experiments import ExperimentConfig
from tracemin_amg.hierarchy import SetupConfig
from tracemin_amg.problems import ProblemSpec

SOLVE_TOL = 1e-8
# max|W B_c - B_f| / max|B_f| allowed on level 0 of a constrained hierarchy
CONSTRAINT_RTOL = 1e-10
SMOOTHING_SWEEPS = 5
# the sweep CSV schema the package README fixes
CSV_SCHEMA = ("problem,n,epsilon,theta,K,mode,tau,pattern_degree,emin_iters,"
              "n_vecs,imp_iters,seed,levels,oc,cc,cf,wpd,converged")

WORKLOADS = {
    "aniso-n256-deg4": {"kind": "aniso", "n": 256, "degree": 4, "rhs": 2},
    "aniso-n512-deg2": {"kind": "aniso", "n": 512, "degree": 2, "rhs": 1},
    "osc-weighted-sweep": {"kind": "sweep", "n": 128, "degree": 4, "rhs": 6},
}


def rhs_vectors(n_rows, seed, count):
    return [np.random.default_rng([seed, j]).standard_normal(n_rows)
            for j in range(count)]


def csr_bytes(M):
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


def vcycle_bytes(H):
    """Matrix bytes one fine-level V-cycle must stream, computed from the
    CSR sizes: each relaxation sweep and the residual read A_l once, the
    restriction and the prolongation read P_l once each, and the coarse
    solve reads the dense triangular factor twice (forward and back)."""
    total = 0
    for lvl in H.levels[:-1]:
        total += (2 * lvl.relaxation.sweeps + 1) * csr_bytes(lvl.A)
        total += 2 * csr_bytes(lvl.P)
    n = H.levels[-1].A.shape[0]
    return total + 8 * n * n


def constraint_residual(H):
    """max|W B_c - B_f| on level 0, from P, the split and the
    A-orthonormalized candidates; returns (absolute, relative to max|B_f|)."""
    lvl = H.levels[0]
    if lvl.P is None:
        return 0.0, 0.0
    B = energymin.prepare_candidates(lvl.A, H.fine_candidates).vectors
    f, c = lvl.split.f_points, lvl.split.c_points
    err = float(np.abs(lvl.P[f] @ B[c] - B[f]).max())
    return err, err / float(np.abs(B[f]).max())


def emin_iters(H):
    return sum(len(lvl.emin_residuals) - 1 for lvl in H.levels
               if lvl.emin_residuals is not None)


def hierarchy_facts(H):
    """Deterministic counts of one hierarchy."""
    lvl0 = H.levels[0]
    absolute, relative = constraint_residual(H)
    return {
        "levels": H.n_levels,
        "coarsest_n": H.levels[-1].A.shape[0],
        "oc": float(H.operator_complexity()),
        "c_fraction": lvl0.split.n_c / lvl0.split.n if lvl0.split else 1.0,
        "vcycle_bytes": vcycle_bytes(H),
        "constraint_residual": absolute,
        "constraint_rel": relative,
    }


def checked_solves(H, rhs, rep):
    """Solve each right-hand side to SOLVE_TOL by V-cycle preconditioned CG;
    a solve fails on an exception or a true relative residual above it."""
    A = H.levels[0].A
    for b in rhs:
        rep["attempted"] += 1
        try:
            start = time.perf_counter()
            x, history = hierarchy.solve(H, b, tol=SOLVE_TOL, accel="cg")
            rep["solve_s"].append(time.perf_counter() - start)
        except Exception:
            traceback.print_exc()
            rep["failed"] += 1
            continue
        rep["pcg_iters"].append(len(history) - 1)
        rel = float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
        if not rel <= SOLVE_TOL:
            print(f"solve failed: relative residual {rel:.3e}", flush=True)
            rep["failed"] += 1


def new_rep():
    return {"attempted": 0, "failed": 0, "setup_s": None, "solution_s": None,
            "solve_s": [], "pcg_iters": [], "wpd": None, "facts": None,
            "counts": None}


class AnisoWorkload:
    """Rotated anisotropic diffusion, constrained energy minimization."""

    def __init__(self, n, degree, rhs, seed):
        self.spec = ProblemSpec("rotated_anisotropic", n=n, epsilon=1e-3)
        self.degree = degree
        self.seed = seed
        self.rhs = rhs_vectors((n - 1) ** 2, seed, rhs)
        self.H = None

    def rep(self):
        rep = new_rep()
        self.H = None  # free the previous hierarchy before building the next
        try:
            start = time.perf_counter()
            A = problems.assemble(self.spec).matrix
            candidates = experiments.smoothed_constant(A, SMOOTHING_SWEEPS)
            built = time.perf_counter()
            H = hierarchy.setup(A, SetupConfig(mode="constrained",
                                               pattern_degree=self.degree,
                                               candidates=candidates))
            rep["setup_s"] = time.perf_counter() - built
        except Exception:
            traceback.print_exc()
            rep["attempted"] = rep["failed"] = len(self.rhs)
            return rep
        to_setup = rep["setup_s"] + built - start
        facts = hierarchy_facts(H)
        rel = facts["constraint_rel"]
        checked_solves(H, self.rhs, rep)
        if not rel <= CONSTRAINT_RTOL:
            print(f"constraint W B_c = B_f violated on level 0: relative "
                  f"residual {rel:.3e}", flush=True)
            rep["failed"] = rep["attempted"]
        if rep["solve_s"]:
            rep["solution_s"] = to_setup + rep["solve_s"][0]
        facts["cg_iters"] = emin_iters(H)
        rep["facts"] = facts
        rep["counts"] = {"pcg_iters": rep["pcg_iters"], "cg_iters": facts["cg_iters"],
                         "levels": facts["levels"], "oc": repr(facts["oc"])}
        self.H = H
        return rep

    def finish(self):
        """wpd of the last rep's hierarchy; None when no setup succeeded."""
        if self.H is None:
            return None
        return experiments.measure_report(self.H, seed=self.seed).wpd


class SetupTimer:
    """Times the calls made through one module binding of `setup` and
    keeps the last hierarchy, without tracing."""

    def __init__(self, module):
        self.module = module
        self.durations = []
        self.emin_iters = 0
        self.last = None

    def __enter__(self):
        self.original = original = self.module.setup

        def timed(*args, **kwargs):
            start = time.perf_counter()
            H = original(*args, **kwargs)
            self.durations.append(time.perf_counter() - start)
            self.emin_iters += emin_iters(H)
            self.last = H
            return H

        self.module.setup = timed
        return self

    def __exit__(self, *exc):
        self.module.setup = self.original


class SweepWorkload:
    """The paper's weighted sweep on the oscillatory problem."""

    def __init__(self, n, degree, rhs, seed):
        self.cfg = ExperimentConfig(
            problem=ProblemSpec("oscillatory", n=n, K=1e6), modes=["weighted"],
            taus=[1e-1, 1e-4, 1e-7], emin_iters=[1, 2, 4, 8],
            pattern_degree=degree, seed=seed)
        self.n_rows = len(self.cfg.taus) * len(self.cfg.emin_iters)
        self.rhs = rhs_vectors((n - 1) ** 2, seed, rhs)

    def rep(self):
        rep = new_rep()
        rep["attempted"] = self.n_rows
        try:
            with SetupTimer(experiments) as setups:
                start = time.perf_counter()
                rows = experiments.run_experiment(self.cfg)
                rep["solution_s"] = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            rep["failed"] = self.n_rows
            return rep
        rep["setup_s"] = sum(setups.durations)
        text = experiments.rows_to_csv_text(rows)
        header_ok = (",".join(experiments.CSV_HEADER) == CSV_SCHEMA
                     and text.splitlines()[0] == CSV_SCHEMA)
        if not header_ok:
            print("sweep CSV header differs from the fixed schema", flush=True)
        bad = [r for r in rows if r["converged"] is not True or r["seed"] != self.cfg.seed]
        rep["failed"] = self.n_rows if not header_ok or len(rows) != self.n_rows else len(bad)
        H = setups.last
        checked_solves(H, self.rhs, rep)
        good = [r for r in rows if r["converged"] is True]
        if good:
            rep["wpd"] = statistics.median(r["wpd"] for r in good)
        facts = hierarchy_facts(H)
        facts["oc"] = statistics.median(r["oc"] for r in rows)
        facts["cg_iters"] = setups.emin_iters
        rep["facts"] = facts
        rep["counts"] = {"pcg_iters": rep["pcg_iters"], "cg_iters": facts["cg_iters"],
                         "levels": [r["levels"] for r in rows],
                         "csv_sha256": hashlib.sha256(text.encode()).hexdigest()}
        return rep

    def finish(self):
        """The grid rows already carry wpd."""
        return None


def make_workload(name, seed, n=None):
    spec = dict(WORKLOADS[name])
    if n is not None:
        spec["n"] = n
    cls = AnisoWorkload if spec.pop("kind") == "aniso" else SweepWorkload
    return cls(seed=seed, **spec)
