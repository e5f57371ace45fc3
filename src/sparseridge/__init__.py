"""Exact and approximate solvers for cardinality-constrained ridge regression."""

__version__ = "0.1.0"

from .bench import BenchRecord, BenchReport, run_benchmark
from .core import (
    Dataset,
    ProblemSpec,
    SparseEstimator,
    SpectralStats,
    mic_value,
    normalize_columns,
    restricted_estimator,
    ridge_objective,
    spectral_stats,
    theta,
    underline_theta,
)
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    DegenerateHatError,
    EnumerationCapError,
    InfeasibleLevelError,
    InvalidArgumentError,
    NumericalDomainError,
    NumericalError,
    SparseRidgeError,
)
from .exact import BnBResult, branch_and_bound, brute_force
from .extensions import (
    GcvReport,
    PrecisionMapping,
    decode_omega,
    encode_omega,
    gcv_score,
    gcv_select,
    precision_to_regression,
)
from .greedy import (
    GreedyState,
    GreedyTrace,
    greedy_distance_bound,
    greedy_ratio_bound,
    greedy_select,
    marginal_gain,
    restricted_greedy,
)
from .heuristic import (
    BisectionTrace,
    elastic_net_cd,
    heuristic_bisection,
    min_l1_given_level,
)
from .methods import METHODS, fit
from .randomized import (
    RandomizedResult,
    RoundingOutcome,
    cardinality_bound,
    randomized_round,
    randomized_solve,
)
from .relaxation import (
    BigMVector,
    RelaxationSolution,
    big_m,
    project_capped_simplex,
    solve_v1,
    solve_v2_perspective,
    solve_v3,
    solve_v4,
    value_and_gradient,
    waterfill_z,
)
from .synthetic import SyntheticConfig, false_alarm_rate, generate_synthetic

__all__ = [
    "BenchRecord", "BenchReport", "run_benchmark",
    "Dataset", "ProblemSpec", "SparseEstimator", "SpectralStats",
    "mic_value", "normalize_columns", "restricted_estimator",
    "ridge_objective", "spectral_stats", "theta", "underline_theta",
    "BudgetExceededError", "ConvergenceError", "DegenerateHatError",
    "EnumerationCapError", "InfeasibleLevelError", "InvalidArgumentError",
    "NumericalDomainError", "NumericalError", "SparseRidgeError",
    "BnBResult", "branch_and_bound", "brute_force",
    "GcvReport", "PrecisionMapping", "decode_omega", "encode_omega",
    "gcv_score", "gcv_select", "precision_to_regression",
    "GreedyState", "GreedyTrace", "greedy_distance_bound",
    "greedy_ratio_bound", "greedy_select", "marginal_gain",
    "restricted_greedy",
    "BisectionTrace", "elastic_net_cd", "heuristic_bisection",
    "min_l1_given_level",
    "METHODS", "fit",
    "RandomizedResult", "RoundingOutcome", "cardinality_bound",
    "randomized_round", "randomized_solve",
    "BigMVector", "RelaxationSolution", "big_m", "project_capped_simplex",
    "solve_v1", "solve_v2_perspective", "solve_v3", "solve_v4",
    "value_and_gradient", "waterfill_z",
    "SyntheticConfig", "false_alarm_rate", "generate_synthetic",
]
