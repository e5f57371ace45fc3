"""Greedy forward selection with a factored, incrementally updated inverse.

Selecting feature j changes the projected objective
f(S) = lam * y^T A_S^{-1} y, A_S = n*lam*I + sum_{i in S} x_i x_i^T, by

    delta_j = -lam * (y^T A_S^{-1} x_j)^2 / (1 + x_j^T A_S^{-1} x_j).

By the Sherman-Morrison rank-one update, A_S^{-1} = I/(n*lam) - U U^T with
U of size n x |S| holding one column w/sqrt(1 + x_j^T w), w = A^{-1} x_j,
per selected feature.  Only U and three vectors (x_i^T A^{-1} x_i,
y^T A^{-1} x_i and A^{-1} y) are tracked, so a step costs one product
X^T w plus O(np + n|S|) work and the run needs O(nk) memory beyond X:
O(npk) time in all, which is what makes the method usable at large p.

The restricted variant first filters candidates through a fractional
relaxation solution (keep i with zhat_i >= delta) and runs the same
selection inside the survivors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh

from .core import (
    ProblemSpec,
    SparseEstimator,
    SpectralStats,
    _check_integer,
    _check_positive,
    _check_vector,
    _clean_support,
    restricted_estimator,
)
from .errors import InvalidArgumentError, NumericalError

TIE_TOL = 1e-12
DENOMINATOR_GUARD = 0.5


@dataclass
class GreedyState:
    """Incrementally maintained products of A_S^{-1} with the data.

    A_S^{-1} is kept factored as I/(n*lam) - ``factor`` ``factor``^T, where
    ``factor`` is n x |S| with one column per selected feature: the first |S|
    columns of a buffer with room for k, made once (a wider one is made if a
    caller selects past it or sets ``factor`` by hand).
    ``quad_terms[j]`` is x_j^T A_S^{-1} x_j, ``cross_terms[j]`` is
    y^T A_S^{-1} x_j and ``inv_y`` is A_S^{-1} y; ``inv_products`` forms
    the n x p block A_S^{-1} X on request only.  ``current_value`` is
    f(S).  Confined to one selection run; do not share across threads.
    """

    spec: ProblemSpec
    factor: np.ndarray
    quad_terms: np.ndarray
    cross_terms: np.ndarray
    inv_y: np.ndarray
    selected: list[int]
    current_value: float
    _room: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def initial(cls, spec: ProblemSpec) -> "GreedyState":
        nl, eq = spec.n * spec.lam, spec.data.normal
        room = np.zeros((eq.rows, spec.k))
        state = cls(
            spec=spec,
            factor=room[:, :0],
            quad_terms=eq.sq / nl,
            cross_terms=eq.c / nl,
            inv_y=eq.response / nl,
            selected=[],
            current_value=eq.yy / spec.n,
        )
        state._room = room
        return state

    @property
    def inv_products(self) -> np.ndarray:
        """A_S^{-1} X (n x p), formed from the factor on each access."""
        X, U = self.spec.X, self.factor  # a public n x p product, on the original rows
        return X / (self.spec.n * self.spec.lam) - U @ (U.T @ X)

    def gains(self) -> np.ndarray:
        """delta_j for every feature (selected entries are meaningless)."""
        return -self.spec.lam * self.cross_terms**2 / (1.0 + self.quad_terms)

    def select(self, j: int) -> None:
        """Add feature j: one product X^T w plus O(p + n|S|) updates."""
        self._step(_check_candidate(self, j))

    def _step(self, j: int) -> None:
        """:meth:`select` for an index j the caller knows is an int in range and
        not yet selected (greedy's own argmin), with no check."""
        denom = 1.0 + self.quad_terms[j]
        if denom < DENOMINATOR_GUARD:
            raise NumericalError(
                f"rank-one update denominator {denom:.3g} < {DENOMINATOR_GUARD}; "
                "the tracked inverse has lost positive definiteness"
            )
        spec, m = self.spec, self.factor.shape[1]
        lam, eq, cross = spec.lam, spec.data.normal, self.cross_terms[j]
        U, x = self.factor, eq.columns(j)
        w = x / (spec.n * lam)  # A^{-1} x_j = (I/(n*lam) - U U^T) x_j
        w -= U @ (U.T @ x)
        c = eq.rmatvec(w)  # x_i^T A^{-1} x_j for all i
        self.inv_y = self.inv_y - w * (cross / denom)
        room = self._room
        if room is None or self.factor.base is not room or room.shape[1] == m:
            # full, or a factor not held in it (a state built or set by hand)
            room = np.zeros((eq.rows, 2 * m + 1))
            room[:, :m] = self.factor
            self._room = room
        room[:, m] = w / math.sqrt(denom)
        self.factor = room[:, :m + 1]
        self.quad_terms = self.quad_terms - c**2 / denom
        self.cross_terms = self.cross_terms - cross * c / denom
        self.current_value += -lam * cross**2 / denom
        self.selected.append(j)


def _check_candidate(state: GreedyState, j: int) -> int:
    j = _check_integer("feature index", j, 0, state.spec.p - 1)
    if j in state.selected:
        raise InvalidArgumentError(f"feature {j} is already selected")
    return j


def marginal_gain(state: GreedyState, j: int) -> float:
    """Objective change from adding feature j to the current selection."""
    j = _check_candidate(state, j)
    return float(
        -state.spec.lam * state.cross_terms[j] ** 2 / (1.0 + state.quad_terms[j])
    )


@dataclass(frozen=True)
class GreedyStep:
    iteration: int
    chosen: int
    gain: float
    value: float
    zero_gain: bool


@dataclass
class GreedyTrace:
    """Per-iteration record of the selection."""

    steps: list[GreedyStep] = field(default_factory=list)
    short_candidates: bool = False


def _run_greedy(
    spec: ProblemSpec, candidates: np.ndarray, steps: int
) -> tuple[SparseEstimator, GreedyTrace]:
    trace = GreedyTrace()
    blocked = np.ones(spec.p, dtype=bool)
    blocked[candidates] = False
    # overflow (as at a tiny lam) is reported by the non-finite gain it leads to
    with np.errstate(over="ignore", invalid="ignore"):
        state = GreedyState.initial(spec)
        tie = TIE_TOL * state.current_value  # relative to f(0) = y^T y / n, which bounds |gain|
        for it in range(1, steps + 1):
            gains = state.gains()
            gains[blocked] = np.inf
            best = float(gains.min())
            if not math.isfinite(best):  # an allowed feature is always left: only overflow
                raise NumericalError(f"greedy step {it} met a non-finite gain {best}")
            j = int((gains <= best + tie).argmax())  # the first True: lowest index among ties
            state._step(j)
            blocked[j] = True
            trace.steps.append(
                GreedyStep(
                    iteration=it, chosen=j, gain=best,
                    value=state.current_value, zero_gain=abs(best) <= tie,
                )
            )
    est = restricted_estimator(spec, np.array(sorted(state.selected), dtype=np.intp))
    return est, trace


def greedy_select(spec: ProblemSpec) -> tuple[SparseEstimator, GreedyTrace]:
    """Forward selection of k features; returns the exact refit and a trace.

    Runs exactly k iterations (fewer only if p < k); zero-gain picks are
    flagged in the trace so callers can truncate.  Ties in the argmin go to
    the lowest feature index.
    """
    steps = min(spec.k, spec.p)
    return _run_greedy(spec, np.arange(spec.p), steps)


def restricted_greedy(
    spec: ProblemSpec, zhat: np.ndarray, delta: float = 0.01
) -> tuple[SparseEstimator, GreedyTrace]:
    """Greedy selection restricted to candidates {i : zhat_i >= delta}.

    ``zhat`` is a fractional relaxation solution.  If fewer than k
    candidates survive the filter, all of them are selected and a warning
    is emitted; an empty candidate set returns the zero estimator.
    """
    _check_positive("delta", delta)
    zhat = _check_vector("zhat", zhat, spec.p, 0.0, 1.0, 1e-9)
    candidates = np.flatnonzero(zhat >= delta)
    if candidates.size == 0:
        warnings.warn(
            "no candidates passed the relaxation filter; returning beta = 0",
            stacklevel=2,
        )
        trace = GreedyTrace(short_candidates=True)
        return restricted_estimator(spec, []), trace
    short = candidates.size < spec.k
    if short:
        warnings.warn(
            f"only {candidates.size} candidates passed the filter "
            f"(budget k={spec.k}); selecting all of them",
            stacklevel=2,
        )
    steps = min(spec.k, candidates.size)
    est, trace = _run_greedy(spec, candidates, steps)
    trace.short_candidates = short
    return est, trace


def greedy_ratio_bound(spec: ProblemSpec, stats: SpectralStats) -> float:
    """Multiplicative a-priori bound B >= 1 with v* <= v_greedy <= B * v*.

    Built from the extremal subset eigenvalues: with nl = n*lam,

        B = (nl + theta_k)/nl * (1 - nl^2 * underline_theta
            / ((nl + theta_1) * (nl + theta_k)^2) * log((p+1)/(p+1-k))).

    Requires stats in exact mode for assertion-grade use (upper-bound mode
    still yields a valid, weaker bound).
    """
    k, p = spec.k, spec.p
    if k not in stats.theta or 1 not in stats.theta:
        raise InvalidArgumentError("stats must contain theta_1 and theta_k")
    nl = spec.n * spec.lam
    th1, thk = stats.theta[1], stats.theta[k]
    under = stats.underline_theta
    log_term = math.log((p + 1) / (p + 1 - k))
    inner = 1.0 - nl**2 * under / ((nl + th1) * (nl + thk) ** 2) * log_term
    return (nl + thk) / nl * inner


def greedy_distance_bound(
    spec: ProblemSpec,
    stats: SpectralStats,
    greedy_est: SparseEstimator,
    optimal_est: SparseEstimator,
) -> float:
    """A-priori bound on ||beta_greedy - beta_opt||_2 (diagnostic).

    Uses the ratio bound's excess nu = B - 1, the size of the greedy-only
    support difference, and the smallest Gram eigenvalue on the union
    support.
    """
    s_g = _clean_support(spec, greedy_est.support)
    s_star = _clean_support(spec, optimal_est.support)
    diff = np.setdiff1d(s_g, s_star).size
    union = np.union1d(s_g, s_star)
    if not union.size:
        return 0.0
    if diff not in stats.theta:
        raise InvalidArgumentError(f"stats must contain theta_{diff}")
    nl = spec.n * spec.lam
    G = spec.data.normal.block(union, union)
    sig_min = max(0.0, float(eigvalsh(G, subset_by_index=[0, 0])[0]))
    nu = max(0.0, greedy_ratio_bound(spec, stats) - 1.0)
    v_star = optimal_est.objective
    denom = nl + sig_min
    return float(
        math.sqrt(4.0 * spec.n * stats.theta[diff] * v_star) / denom
        + math.sqrt(spec.n * nu * v_star / denom)
    )
