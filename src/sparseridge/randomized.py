"""Independent rounding of a fractional relaxation solution.

Each feature i is kept with probability zhat_i (one uniform draw per
feature), so the expected cardinality is sum(zhat) <= k but individual
draws may exceed the budget; a concentration bound quantifies by how much.
The multi-trial driver keeps the best draw and, optionally, repairs
over-budget draws by dropping their smallest-magnitude coefficients.

Randomness comes from the counter-based Philox generator with one stream
per trial, keyed by ``SeedSequence([seed, trial_index])``, so distinct seeds
draw distinct streams and any single trial can be reproduced in isolation,
on any platform, from the key stored on its outcome.  The keys of all trials
come from one vectorized pass that replays SeedSequence's mixing bit for bit.

Draws are scored together, not fit one by one: each distinct support of a
cardinality once (a dict keyed on its index bytes finds it, with no sort), in
the stacked solves of ``core._ridge_scores``.  Only the winners are refit
exactly, so reported values are exact fits; the stacked values that pick them
agree to rounding only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemSpec,
    SparseEstimator,
    _check_integer,
    _check_real,
    _check_zhat,
    _freeze,
    _ridge_scores,
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): pool hashing,
# output hashing and the mix of two pool words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 2**32 - 1


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words ``value`` under the running hash
    constant ``const``; returns the hashed words and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _trial_keys(seed: int, trials: np.ndarray) -> np.ndarray:
    """Philox keys of the given trial indices (< 2**64) of a multi-trial run:
    ``SeedSequence([seed, t]).generate_state(1, np.uint64)[0]`` for each t, as
    uint64, computed for all trials at once by SeedSequence's own uint32 pool
    mixing (array arithmetic wraps modulo 2**32 as its C code does).  The
    entropy is seed's little-endian 32-bit words, then t's: one word for
    t < 2**32 and two above, so trials are mixed in two groups by length."""
    t = np.asarray(trials, dtype=np.uint64)
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    keys = np.empty(t.size, np.uint64)
    high = (t >> np.uint64(32)).astype(np.uint32)
    for wide in (False, True):
        at = np.flatnonzero((high > 0) == wide)
        if not at.size:
            continue
        words = [np.full(at.size, w, np.uint32) for w in seed_words]
        words += [t[at].astype(np.uint32)] + ([high[at]] if wide else [])
        const, pool = _INIT_A, []
        for i in range(_POOL):
            value, const = _hashmix(words[i] if i < len(words) else np.zeros(at.size, np.uint32),
                                    const)
            pool.append(value)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    value, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], value)
        for src in range(_POOL, len(words)):
            for dst in range(_POOL):
                value, const = _hashmix(words[src], const)
                pool[dst] = _mix(pool[dst], value)
        # generate_state(1, np.uint64): the low and high words hash pool[0] and pool[1]
        low, const = _hashmix(pool[0], _INIT_B, _MULT_B)
        high_word = _hashmix(pool[1], const, _MULT_B)[0]
        keys[at] = low.astype(np.uint64) | high_word.astype(np.uint64) << np.uint64(32)
    return keys


def _keyed_uniforms(gen: np.random.Generator, key: int, size: int) -> np.ndarray:
    """``size`` uniforms of the Philox stream keyed by ``key`` (0 <= key < 2**128):
    ``gen``'s Philox is rewound to counter 0 and that key, so the draw equals
    ``Generator(Philox(key=key)).random(size)`` without building a generator."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([key & (2**64 - 1), key >> 64], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen.random(size)


def randomized_round(zhat: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One independent-rounding draw; returns (support, z_tilde).

    Feature i is included iff a uniform draw U_i satisfies U_i <= zhat_i,
    with the U_i drawn from the Philox stream keyed by ``seed`` (< 2**128).
    Deterministic given the seed.
    """
    zhat = _check_zhat(zhat)
    key = _check_integer("seed", seed, 0, 2**128 - 1)
    gen = np.random.Generator(np.random.Philox(0))
    z_tilde = (_keyed_uniforms(gen, key, zhat.size) <= zhat).astype(float)
    return np.flatnonzero(z_tilde), z_tilde


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

    Draws are index arrays, scored per cardinality from the largest, each
    distinct support once by ``core._ridge_scores``; trimmed supports join
    the size-k draws.  Only the winners are refit exactly
    (``restricted_estimator``): reported values are exact fits, but the
    choice rests on stacked values, equal to rounding only.
    """
    trials = _check_integer("trials", trials, 1)
    zhat = _check_zhat(zhat, spec.p)
    seed = _check_integer("seed", seed, 0)
    bound = cardinality_bound(spec.k, alpha)
    k = spec.k

    gen = np.random.Generator(np.random.Philox(0))
    keys = _trial_keys(seed, np.arange(trials)).tolist()
    draws = [np.flatnonzero(_keyed_uniforms(gen, key, spec.p) <= zhat) for key in keys]
    cards = np.array([d.size for d in draws])
    kept = list(draws)  # the repaired support of each draw
    raw, repaired = np.empty(trials), np.empty(trials)  # each trial's two values
    over: list[int] = []  # over-budget trials, trimmed to size k
    for s in sorted(set(cards.tolist()) | {k}, reverse=True):
        drawn = np.flatnonzero(cards == s).tolist()
        group = drawn + (over if repair and s == k else [])
        if not group:
            continue
        rows = np.array([kept[t] for t in group], dtype=np.intp).reshape(len(group), s)
        first = {}  # each distinct support is scored once, at the first row holding it
        holder = [first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)]
        distinct = list(first.values())  # ascending
        b, values = _ridge_scores(spec, s, rows[distinct])
        at = np.searchsorted(distinct, holder)
        b, values = b[at], values[at]
        raw[drawn] = values[:len(drawn)]
        repaired[group] = values
        if repair and s > k:
            # the k largest |b_i| survive, as a stable sort of |b| ranks them
            top = np.argsort(np.abs(b), axis=1, kind="stable")[:, s - k:]
            for t, row in zip(group, np.sort(np.take_along_axis(rows, top, 1), axis=1)):
                kept[t] = row
            over += group

    t_best = int(np.argmin(raw))  # argmin keeps the first: the lowest trial index
    support = draws[t_best]
    best = RoundingOutcome(support=tuple(support.tolist()),
                           z_tilde=np.isin(np.arange(spec.p), support),
                           cardinality=int(support.size),
                           value=_support_fit(spec, support)[1], seed=keys[t_best])
    best_rep = best_rep_raw = None
    if repair:
        t_rep = int(np.argmin(repaired))
        best_rep = restricted_estimator(spec, kept[t_rep])
        best_rep_raw = _support_fit(spec, draws[t_rep])[1]
    return RandomizedResult(
        best=best,
        best_repaired=best_rep,
        best_repaired_raw_value=best_rep_raw,
        trials=trials,
        mean_cardinality=float(cards.mean()),
        p_exceed_bound=float(np.count_nonzero(cards > bound)) / trials,
        alpha=alpha,
    )
