"""Named end-to-end fitting pipelines shared by the CLI, tuning and bench.

Every method maps a :class:`~sparseridge.core.ProblemSpec` to a feasible
:class:`~sparseridge.core.SparseEstimator`:

* ``greedy``      -- forward selection;
* ``restricted``  -- perspective relaxation, then greedy inside its support;
* ``randomized``  -- perspective relaxation, independent rounding with
  repair, best of ``trials`` draws;
* ``heuristic``   -- objective-level bisection over the elastic-net path;
* ``brute``       -- exhaustive enumeration;
* ``bnb``         -- branch and bound to a proven gap.
"""

from __future__ import annotations

import functools
import inspect

from .core import ProblemSpec, SparseEstimator
from .errors import ConvergenceError, InvalidArgumentError
from .exact import branch_and_bound, brute_force
from .greedy import greedy_select, restricted_greedy
from .heuristic import heuristic_bisection
from .randomized import randomized_solve
from .relaxation import solve_v4


def _fit_greedy(spec: ProblemSpec) -> SparseEstimator:
    return greedy_select(spec)[0]


def _relax_z(spec: ProblemSpec):
    """The v2 relaxation's z from one v4 solve, whose record is v2's (its beta
    goes unread); raises ConvergenceError if that solve did not converge."""
    sol = solve_v4(spec)
    if not sol.converged:
        raise ConvergenceError(
            f"relaxation v2 (solved as v4) did not converge in {sol.iterations} iterations "
            f"(gap {sol.kkt_residual:.3g})"
        )
    return sol.z


def _fit_restricted(spec: ProblemSpec, delta: float = 0.01):
    return restricted_greedy(spec, _relax_z(spec), delta=delta)[0]


def _fit_randomized(
    spec: ProblemSpec,
    trials: int = 100,
    seed: int = 0,
) -> SparseEstimator:
    return randomized_solve(
        spec, _relax_z(spec), trials=trials, seed=seed, repair=True
    ).best_repaired


def _fit_heuristic(spec: ProblemSpec, delta: float = 1e-6) -> SparseEstimator:
    return heuristic_bisection(spec, delta_hat=delta)[0]


def _fit_brute(spec: ProblemSpec) -> SparseEstimator:
    return brute_force(spec)


def _fit_bnb(spec: ProblemSpec, gap_tol: float = 1e-6) -> SparseEstimator:
    return branch_and_bound(spec, gap_tol=gap_tol).estimator


METHODS = {
    "greedy": _fit_greedy,
    "restricted": _fit_restricted,
    "randomized": _fit_randomized,
    "heuristic": _fit_heuristic,
    "brute": _fit_brute,
    "bnb": _fit_bnb,
}


@functools.cache
def _option_names(runner) -> tuple[str, ...]:
    """The keyword options a runner takes: its parameters after ``spec``."""
    return tuple(inspect.signature(runner).parameters)[1:]


def check_options(method: str, options) -> None:
    """Raise InvalidArgumentError for an unknown method or an option it does not take."""
    try:
        runner = METHODS[method]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown method {method!r}; choose from {sorted(METHODS)}"
        ) from None
    accepted = _option_names(runner)
    unknown = [name for name in options if name not in accepted]
    if unknown:
        raise InvalidArgumentError(
            f"method {method!r} has no option {unknown[0]!r}; it takes {list(accepted)}"
        )


def fit(spec: ProblemSpec, method: str, **options) -> SparseEstimator:
    """Fit with a named method; an unknown name or option raises InvalidArgumentError."""
    check_options(method, options)
    return METHODS[method](spec, **options)
