"""Algebraic multigrid with interpolation built by weighted and
constrained energy (trace) minimization, plus the diagonally
preconditioned matrix-equation solver and dense two-grid diagnostics
that come with it."""

from .coarsening import (BlockSplit, SparsityPattern, cf_split, pattern_distance_k,
                         strength_graph)
from .energymin import (CandidateSet, Interpolation, WeightedSystem, assemble_P,
                        build_weighted_system, constrained_energymin,
                        initial_guess, pcg_frobenius, prepare_candidates,
                        weighted_energymin)
from .experiments import (ConvergenceReport, ExperimentConfig,
                          adaptive_constraints, convergence_report,
                          measure_report, run_experiment)
from .hierarchy import (Hierarchy, Level, SetupConfig, convergence_factor,
                        galerkin_product, measure_convergence_factor, setup,
                        solve, vcycle)
from .linalg import (Permutation, dense_sym_eig, perfect_shuffle,
                     read_matrix_market, write_matrix_market)
from .problems import Problem, ProblemSpec, assemble
from .relaxation import (Relaxation, SpectralEquivalence, is_a_convergent,
                         relax_sweep, symmetrized_mtilde)
from .sylvester import MatrixEquation, hadamard_diag_preconditioner, sylvester_cg
from .theory import (TheoryReport, approximation_constants, ideal_interpolation,
                     ktg, optimal_interpolation, stability_bounds,
                     two_grid_error_norm)

__version__ = "0.1.0"
