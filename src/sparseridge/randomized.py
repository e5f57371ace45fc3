"""Independent rounding of a fractional relaxation solution.

Each feature i is kept with probability zhat_i (one uniform draw per
feature), so the expected cardinality is sum(zhat) <= k but individual
draws may exceed the budget; a concentration bound quantifies by how much.
The multi-trial driver keeps the best draw and, optionally, repairs
over-budget draws by refitting on the drawn support and dropping the
smallest-magnitude coefficients.

Randomness comes from the counter-based Philox generator with one stream
per trial, keyed by ``SeedSequence([seed, trial_index])``, so distinct seeds
draw distinct streams and any single trial can be reproduced in isolation,
on any platform, from the key stored on its outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemSpec,
    SparseEstimator,
    _check_integer,
    _check_zhat,
    _support_fit,
    restricted_estimator,
)
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class RoundingOutcome:
    """One rounding draw: support, indicator vector, its value and the
    Philox key that replays it through :func:`randomized_round`."""

    support: tuple[int, ...]
    z_tilde: np.ndarray
    cardinality: int
    value: float
    seed: int

    def __post_init__(self) -> None:
        z = np.array(self.z_tilde, dtype=float)
        z.setflags(write=False)
        object.__setattr__(self, "z_tilde", z)


@dataclass(frozen=True)
class RandomizedResult:
    """Best-of-trials outcome plus aggregate trial statistics."""

    best: RoundingOutcome
    best_repaired: SparseEstimator | None
    best_repaired_raw_value: float | None
    trials: int
    mean_cardinality: float
    p_exceed_bound: float
    alpha: float

    def to_json_dict(self) -> dict:
        out = {
            "trials": self.trials,
            "best_value": self.best.value,
            "best_support": list(self.best.support),
            "mean_cardinality": self.mean_cardinality,
            "p_exceed_bound": self.p_exceed_bound,
            "alpha": self.alpha,
        }
        if self.best_repaired is not None:
            out["repaired_value"] = self.best_repaired.objective
            out["repaired_support"] = list(self.best_repaired.support)
        return out


def _check_seed(seed) -> int:
    seed = _check_integer("seed", seed)
    if seed < 0:
        raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")
    return seed


def _trial_key(seed: int, trial: int) -> int:
    """Philox key of one trial of a multi-trial run."""
    return int(np.random.SeedSequence([seed, trial]).generate_state(1, np.uint64)[0])


def randomized_round(zhat: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One independent-rounding draw; returns (support, z_tilde).

    Feature i is included iff a uniform draw U_i satisfies U_i <= zhat_i,
    with the U_i drawn from the Philox stream keyed by ``seed``.
    Deterministic given the seed.
    """
    zhat = _check_zhat(zhat)
    u = np.random.Generator(np.random.Philox(key=_check_seed(seed))).random(zhat.shape[0])
    z_tilde = (u <= zhat).astype(float)
    return np.flatnonzero(z_tilde), z_tilde


def cardinality_bound(k: int, alpha: float) -> float:
    """Level-alpha bound on the rounded cardinality: (1 + sqrt(3*log(2/alpha)/k))*k."""
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError(f"alpha must lie in (0, 1), got {alpha}")
    if _check_integer("k", k) < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    return (1.0 + math.sqrt(3.0 * math.log(2.0 / alpha) / k)) * k


def _repair(spec: ProblemSpec, draw: RoundingOutcome, beta: np.ndarray) -> SparseEstimator:
    """Estimator of a draw from ``beta``, its fit on the drawn support: that fit
    within the budget; otherwise the k largest |beta_i| survive and are refit."""
    if draw.cardinality <= spec.k:
        return SparseEstimator(draw.support, beta, draw.value)
    support = np.array(draw.support)
    order = np.argsort(np.abs(beta[support]), kind="stable")
    keep = np.sort(support[order[support.size - spec.k:]])
    return restricted_estimator(spec, keep)


def randomized_solve(
    spec: ProblemSpec,
    zhat: np.ndarray,
    trials: int = 100,
    seed: int = 0,
    repair: bool = True,
    alpha: float = 0.1,
) -> RandomizedResult:
    """Run ``trials`` independent roundings and keep the best draw.

    The best outcome minimizes the raw value f(z_tilde) (ties to the lowest
    trial index).  With ``repair`` on, every over-budget draw is trimmed to
    the budget and the best repaired estimator is reported alongside the
    raw statistics; ``p_exceed_bound`` is the fraction of draws whose
    cardinality exceeds ``cardinality_bound(k, alpha)``.
    """
    trials = _check_integer("trials", trials)
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    zhat = _check_zhat(zhat, spec.p)
    seed = _check_seed(seed)
    bound = cardinality_bound(spec.k, alpha)

    draws: list[RoundingOutcome] = []
    repaired: list[tuple[SparseEstimator, float]] = []
    for t in range(trials):
        key = _trial_key(seed, t)
        support, z_tilde = randomized_round(zhat, key)
        beta, value = _support_fit(spec, support)  # the draw's one fit
        draws.append(RoundingOutcome(
            support=tuple(support.tolist()),
            z_tilde=z_tilde,
            cardinality=int(support.size),
            value=value,
            seed=key,
        ))
        if repair:
            repaired.append((_repair(spec, draws[-1], beta), value))
    # min keeps the first of equal values: ties go to the lowest trial index
    best_rep, best_rep_raw = (
        min(repaired, key=lambda r: r[0].objective) if repair else (None, None)
    )
    cards = np.array([d.cardinality for d in draws])
    return RandomizedResult(
        best=min(draws, key=lambda d: d.value),
        best_repaired=best_rep,
        best_repaired_raw_value=best_rep_raw,
        trials=trials,
        mean_cardinality=float(cards.mean()),
        p_exceed_bound=float(np.count_nonzero(cards > bound)) / trials,
        alpha=alpha,
    )
