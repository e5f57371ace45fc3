"""Objective-level bisection heuristic with an L1 inner engine.

The driver brackets the optimal value between L (unreachable) and U (the
value of a known feasible estimator, starting from beta = 0) and halves the
bracket: at the midpoint q it asks for the minimum-L1-norm coefficient
vector whose ridge objective is at most q.  If that vector is k-sparse the
level is attainable (U <- q, keep the witness), otherwise not (L <- q).

The inner minimum-L1 problem is solved through its penalized form: the
elastic-net objective (1/n)||y - X b||^2 + lam*||b||^2 + gamma*||b||_1 is
minimized by cyclic coordinate descent with soft-thresholding, and gamma is
bisected to the largest value whose solution still meets the level -- that
point has the smallest L1 norm on the path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ProblemSpec,
    SparseEstimator,
    mic_value,
    restricted_estimator,
    ridge_objective,
)
from .errors import InfeasibleLevelError, InvalidArgumentError

ZERO_REL_TOL = 1e-8
GAMMA_BISECTION_WIDTH = 1e-10


@dataclass(frozen=True)
class BisectionStep:
    iteration: int
    lower: float
    upper: float
    q: float
    l1_norm: float
    zeros: int
    branch: str  # "down" when the level was attainable, else "up"


@dataclass
class BisectionTrace:
    steps: list[BisectionStep] = field(default_factory=list)
    final_value: float = math.nan

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps(
                {"iter": s.iteration, "L": s.lower, "U": s.upper, "q": s.q,
                 "l1": s.l1_norm if math.isfinite(s.l1_norm) else None,
                 "zeros": s.zeros, "branch": s.branch}
            )
            for s in self.steps
        )


def elastic_net_cd(
    spec: ProblemSpec,
    gamma: float,
    tol: float = 1e-8,
    max_sweeps: int = 100000,
    beta0: np.ndarray | None = None,
) -> np.ndarray:
    """Cyclic coordinate descent for the L1-plus-ridge penalized objective.

    Each coordinate update is the exact scalar minimizer
    soft(x_i^T r_{-i} / n, gamma/2) / (||x_i||^2/n + lam); sweeps stop when
    the largest coordinate change in a sweep is at most ``tol``.
    """
    if gamma < 0:
        raise InvalidArgumentError(f"gamma must be nonnegative, got {gamma}")
    X, y, n, lam, p = spec.X, spec.y, spec.n, spec.lam, spec.p
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=float)
    r = y - X @ beta
    a = np.sum(X**2, axis=0) / n + lam
    half_gamma = gamma / 2.0
    for _ in range(max_sweeps):
        max_delta = 0.0
        for i in range(p):
            c = float(X[:, i] @ r) / n + (a[i] - lam) * beta[i]
            b_new = math.copysign(max(abs(c) - half_gamma, 0.0), c) / a[i]
            d = b_new - beta[i]
            if d != 0.0:
                r -= X[:, i] * d
                beta[i] = b_new
                max_delta = max(max_delta, abs(d))
        if max_delta <= tol:
            break
    return beta


def min_l1_given_level(
    spec: ProblemSpec,
    v_upper: float,
    tol: float = 1e-8,
    beta0: np.ndarray | None = None,
) -> np.ndarray:
    """Minimum-L1-norm coefficients with ridge objective at most ``v_upper``.

    Bisects the L1 weight gamma on [0, (2/n)*||X^T y||_inf] to width 1e-10,
    keeping the largest gamma whose penalized solution still satisfies the
    level; that solution has the minimal L1 norm among level-feasible
    points.  Raises :class:`InfeasibleLevelError` when ``v_upper`` is below
    the unconstrained ridge minimum.
    """
    X, y, n = spec.X, spec.y, spec.n
    gamma_max = 2.0 * float(np.abs(X.T @ y).max()) / n
    if ridge_objective(spec, np.zeros(spec.p)) <= v_upper:
        return np.zeros(spec.p)  # beta = 0 is feasible and has L1 norm 0
    ridge_beta = elastic_net_cd(spec, 0.0, tol=tol, beta0=beta0)
    ridge_min = ridge_objective(spec, ridge_beta)
    if v_upper < ridge_min - 1e-10 * (1.0 + abs(ridge_min)):
        raise InfeasibleLevelError(
            f"level {v_upper:.6g} is below the ridge minimum {ridge_min:.6g}"
        )
    lo, hi = 0.0, gamma_max
    best = ridge_beta
    warm = ridge_beta
    while hi - lo > GAMMA_BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        beta_mid = elastic_net_cd(spec, mid, tol=tol, beta0=warm)
        warm = beta_mid
        if ridge_objective(spec, beta_mid) <= v_upper:
            lo, best = mid, beta_mid
        else:
            hi = mid
    return best


def _count_zeros(beta: np.ndarray) -> int:
    scale = max(1.0, float(np.abs(beta).max())) if beta.size else 1.0
    return int(np.count_nonzero(np.abs(beta) <= ZERO_REL_TOL * scale))


def heuristic_bisection(
    spec: ProblemSpec, delta_hat: float, inner_tol: float = 1e-8
) -> tuple[SparseEstimator, BisectionTrace]:
    """Bisection on the objective level down to bracket width ``delta_hat``.

    Every accepted upper bound corresponds to a certified k-sparse witness;
    the output refits the final witness support exactly, so the reported
    value is min(U, refit objective) and the estimator is always feasible.
    Terminates in at most floor(log2(||y||^2 / (n*delta_hat))) + 1
    iterations.
    """
    if delta_hat <= 0:
        raise InvalidArgumentError(f"delta_hat must be positive, got {delta_hat}")
    p, k, n, y = spec.p, spec.k, spec.n, spec.y
    # Unconstrained ridge minimum: levels below it are unattainable outright.
    # mic_value solves it through the smaller of the p x p and n x n systems.
    ridge_min = mic_value(spec, np.ones(p))
    lower = 0.0
    upper = float(y @ y) / n
    incumbent_support: tuple[int, ...] = ()
    trace = BisectionTrace()
    warm: np.ndarray | None = None
    it = 0
    while upper - lower > delta_hat:
        it += 1
        q = 0.5 * (lower + upper)
        if q < ridge_min:
            lower = q
            trace.steps.append(
                BisectionStep(
                    iteration=it, lower=lower, upper=upper, q=q,
                    l1_norm=math.inf, zeros=0, branch="up",
                )
            )
            continue
        beta_hat = min_l1_given_level(spec, q, tol=inner_tol, beta0=warm)
        warm = beta_hat
        zeros = _count_zeros(beta_hat)
        if zeros >= p - k:
            upper = q
            scale = max(1.0, float(np.abs(beta_hat).max()))
            incumbent_support = tuple(
                np.flatnonzero(np.abs(beta_hat) > ZERO_REL_TOL * scale).tolist()
            )
            branch = "down"
        else:
            lower = q
            branch = "up"
        trace.steps.append(
            BisectionStep(
                iteration=it, lower=lower, upper=upper, q=q,
                l1_norm=float(np.abs(beta_hat).sum()), zeros=zeros, branch=branch,
            )
        )
    est = restricted_estimator(spec, incumbent_support)
    trace.final_value = min(upper, est.objective)
    return est, trace
