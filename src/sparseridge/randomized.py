"""Independent rounding of a fractional relaxation solution.

Each feature i is kept with probability zhat_i (one uniform draw per
feature), so the expected cardinality is sum(zhat) <= k but individual
draws may exceed the budget; a concentration bound quantifies by how much.
The multi-trial driver keeps the best draw and, optionally, repairs
over-budget draws by dropping their smallest-magnitude coefficients.

Randomness comes from one counter-based Philox stream per run, keyed by
``SeedSequence(seed).generate_state(2, np.uint64)``.  Trial t takes the
ceil(p/4) counter blocks (four doubles each) that follow counter
t*ceil(p/4), which is what ``Generator(Philox(key, counter=t*ceil(p/4)))``
draws first, so trials are consecutive, non-overlapping blocks of one
stream, independent by the design of counter-based generators (Salmon,
Moraes, Dror & Shaw, SC 2011).  All trials are drawn by one ``Generator.random`` call per row block
within ``core._BLOCK_ELEMENTS`` floats, and any single trial replays in
isolation, on any platform, through :func:`randomized_round` from the key and
counter stored on its outcome; distinct seeds draw distinct streams.

Draws are scored together, not fit one by one: every trial's draw as it was
drawn, padded with decoupled entries, in two stacked passes of
``core._ridge_scores``.  The over-budget draws go first, at the widest draw's
width; the in-budget draws and the trimmed over-budget ones go second, at
width k, so the draws at or under the budget (most of them) carry no padding
for the widest.  Equal draws score equally, so ties go to the lowest trial.
Only the winners are refit exactly, so reported values are exact fits; the
stacked values that pick them agree to rounding only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemSpec,
    SparseEstimator,
    _block_rows,
    _check_flag,
    _check_integer,
    _check_real,
    _check_vector,
    _freeze,
    _ridge_scores,
    _support_fit,
    restricted_estimator,
)
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class RoundingOutcome:
    """One rounding draw: support, indicator vector and its value, with the
    Philox key (``seed``) and counter block (``counter``) that replay it:
    ``randomized_round(zhat, seed, counter)`` draws the same support."""

    support: tuple[int, ...]
    z_tilde: np.ndarray
    cardinality: int
    value: float
    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        _freeze(self, "z_tilde")


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


def _draw(philox: np.random.Philox, zhat: np.ndarray, trials: int) -> np.ndarray:
    """Flat indices t*p + i, ascending, of every feature i that trial t of
    ``trials`` consecutive trials keeps: trial t is the next ceil(p/4) counter
    blocks of ``philox`` (4*ceil(p/4) doubles, of which the first p are
    compared with zhat), so from a stream at counter c it draws what
    ``Philox(key, counter=c + t*ceil(p/4))`` draws first.  Rows of trials go
    in blocks within _BLOCK_ELEMENTS floats."""
    gen, p = np.random.Generator(philox), zhat.size
    width = 4 * -(-p // 4)
    m = _block_rows(width)
    return np.concatenate([
        lo * p + np.flatnonzero(gen.random((min(m, trials - lo), width))[:, :p] <= zhat)
        for lo in range(0, trials, m)])


def _indicator(p: int, support: np.ndarray) -> np.ndarray:
    """The length-p 0/1 vector of ``support``."""
    z = np.zeros(p)
    z[support] = 1.0
    return z


def randomized_round(zhat: np.ndarray, seed: int, counter: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """One independent-rounding draw; returns (support, z_tilde).

    Feature i is included iff a uniform draw U_i satisfies U_i <= zhat_i,
    with the U_i drawn from the Philox stream keyed by ``seed`` (< 2**128)
    after counter block ``counter`` (< 2**256): the stream of
    ``Generator(Philox(key=seed, counter=counter))``.  Deterministic given
    the seed and counter.
    """
    zhat = _check_vector("zhat", zhat, None, 0.0, 1.0, 1e-9)
    key = _check_integer("seed", seed, 0, 2**128 - 1)
    counter = _check_integer("counter", counter, 0, 2**256 - 1)
    support = _draw(np.random.Philox(key=key, counter=counter), zhat, 1)
    return support, _indicator(zhat.size, support)


def cardinality_bound(k: int, alpha: float) -> float:
    """Level-alpha bound on the rounded cardinality: (1 + sqrt(3*log(2/alpha)/k))*k."""
    if not 0.0 < _check_real("alpha", alpha) < 1.0:
        raise InvalidArgumentError(f"alpha must lie in (0, 1), got {alpha}")
    k = _check_integer("k", k, 1)
    return (1.0 + math.sqrt(3.0 * math.log(2.0 / alpha) / k)) * k


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
    its k largest |beta_i| on the drawn support and the best repaired
    estimator (ties again to the lowest trial) is reported alongside the raw
    statistics; ``p_exceed_bound`` is the fraction of draws whose
    cardinality exceeds ``cardinality_bound(k, alpha)``.

    Row t of a matrix padded with -1 to the widest draw holds trial t's
    features, and every row is scored by ``core._ridge_scores``: over-budget
    rows at that width, then in-budget rows together with the trimmed rows
    at width min(k, widest).  Only the winners are refit exactly
    (``restricted_estimator`` for the repaired one): reported values are
    exact fits, but the choice rests on stacked values, equal to rounding
    only.
    """
    trials = _check_integer("trials", trials, 1)
    zhat = _check_vector("zhat", zhat, spec.p, 0.0, 1.0, 1e-9)
    seed = _check_integer("seed", seed, 0)
    repair = _check_flag("repair", repair)
    bound = cardinality_bound(spec.k, alpha)
    k = spec.k

    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    trial, feature = np.divmod(_draw(np.random.Philox(key=key), zhat, trials), spec.p)
    cards = np.bincount(trial, minlength=trials)
    width = int(cards.max())
    rows = np.full((trials, width), -1, np.intp)  # row t: trial t's support, padded
    rows[trial, np.arange(trial.size) - (np.cumsum(cards) - cards)[trial]] = feature

    over, under = np.flatnonzero(cards > k), np.flatnonzero(cards <= k)
    values = np.empty(trials)
    short = rows[under, :min(k, width)]
    if over.size:  # over-budget draws, at the widest draw's width
        long_rows = rows[over]
        b, values[over] = _ridge_scores(spec, long_rows)
        if repair:
            # the k largest |b_i| survive, as a stable sort of |b| ranks them;
            # padding ranks below every |b_i|
            top = np.argsort(np.where(long_rows < 0, -1.0, np.abs(b)), axis=1,
                             kind="stable")[:, width - k:]
            trimmed = np.sort(np.take_along_axis(long_rows, top, 1), axis=1)
            short = np.concatenate([short, trimmed])
    # in-budget draws and the trimmed ones, at width min(k, widest draw)
    scores = _ridge_scores(spec, short)[1]
    values[under] = scores[:under.size]

    def support(row: np.ndarray) -> np.ndarray:
        return row[:np.count_nonzero(row >= 0)]

    # argmin keeps the first: the lowest trial index
    t_best = int(np.argmin(values))
    drawn = support(rows[t_best])
    best = RoundingOutcome(support=tuple(drawn.tolist()),
                           z_tilde=_indicator(spec.p, drawn),
                           cardinality=int(drawn.size), value=_support_fit(spec, drawn)[1],
                           seed=int(key[0]) | int(key[1]) << 64,
                           counter=t_best * -(-spec.p // 4))
    best_rep = best_rep_raw = None
    if repair:
        repaired = values.copy()
        repaired[over] = scores[under.size:]
        t_rep = int(np.argmin(repaired))
        if cards[t_rep] <= k:
            best_rep = restricted_estimator(spec, support(rows[t_rep]))
            best_rep_raw = best_rep.objective
        else:
            best_rep = restricted_estimator(spec, trimmed[np.searchsorted(over, t_rep)])
            best_rep_raw = _support_fit(spec, support(rows[t_rep]))[1]
    return RandomizedResult(
        best=best,
        best_repaired=best_rep,
        best_repaired_raw_value=best_rep_raw,
        trials=trials,
        mean_cardinality=float(cards.mean()),
        p_exceed_bound=float(np.count_nonzero(cards > bound)) / trials,
        alpha=alpha,
    )
