import math

import numpy as np
import pytest

from helpers import identity_pair_spec, random_spec
from sparseridge import (
    InvalidArgumentError,
    brute_force,
    cardinality_bound,
    mic_value,
    randomized_round,
    randomized_solve,
)


class TestRounding:
    def test_binary_input_is_deterministic(self):
        zhat = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        for seed in range(5):
            support, z = randomized_round(zhat, seed)
            assert support.tolist() == [0, 2]
            assert z.tolist() == zhat.tolist()

    def test_same_seed_replays(self, rng):
        zhat = rng.uniform(0, 1, size=15)
        s1, z1 = randomized_round(zhat, 42)
        s2, z2 = randomized_round(zhat, 42)
        assert s1.tolist() == s2.tolist()
        assert np.array_equal(z1, z2)

    def test_inclusion_frequencies(self):
        zhat = np.full(20, 0.5)
        counts = np.zeros(20)
        trials = 10000
        for seed in range(trials):
            _, z = randomized_round(zhat, seed)
            counts += z
        freq = counts / trials
        assert np.all(freq >= 0.485) and np.all(freq <= 0.515)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            randomized_round(np.array([0.5, 1.2]), 0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError, match="finite"):
            randomized_round(np.array([0.5, np.nan]), 0)


class TestCardinalityBound:
    def test_reference_values(self):
        assert cardinality_bound(12, 0.05) == pytest.approx(23.52, abs=0.01)
        assert cardinality_bound(1, 0.5) == pytest.approx(3.039, abs=0.001)

    def test_ratio_tends_to_one(self):
        assert cardinality_bound(10**6, 0.1) / 10**6 < 1.01

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(InvalidArgumentError):
            cardinality_bound(5, alpha)

    @pytest.mark.parametrize("k", [math.nan, 2.5, 0])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(InvalidArgumentError, match="k must be"):
            cardinality_bound(k, 0.1)


class TestRandomizedSolve:
    def test_identity_pair_enumerated_draws(self):
        # four possible draws: {}, {0}, {1}, {0,1}; the doubleton has the
        # smallest raw value 2*lam/(1+2*lam); repair trims it to a singleton
        spec = identity_pair_spec(lam=0.1, k=1)
        res = randomized_solve(spec, np.array([0.5, 0.5]), trials=64, seed=3)
        assert res.best.value == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert res.best.cardinality == 2
        assert res.best_repaired is not None
        assert res.best_repaired.cardinality == 1
        assert res.best_repaired.objective == pytest.approx(
            0.5833333333333334, abs=1e-9
        )

    def test_single_trial_binary(self, rng):
        spec = random_spec(rng, 12, 6, 2, 0.2)
        zhat = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        res = randomized_solve(spec, zhat, trials=1, seed=9)
        assert res.best.support == (1, 4)
        assert res.best.value == pytest.approx(mic_value(spec, {1, 4}), rel=1e-12)

    def test_nan_zhat_rejected(self, rng):
        spec = random_spec(rng, 12, 4, 2, 0.2)
        with pytest.raises(InvalidArgumentError, match="finite"):
            randomized_solve(spec, np.array([0.5, np.nan, 0.5, 0.5]), trials=3)

    @pytest.mark.parametrize("option", [{"trials": 2.5}, {"trials": np.nan}, {"seed": 2.5}],
                             ids=["fractional_trials", "nan_trials", "fractional_seed"])
    def test_non_integral_count_rejected(self, rng, option):
        spec = random_spec(rng, 12, 4, 2, 0.2)
        with pytest.raises(InvalidArgumentError, match="integer"):
            randomized_solve(spec, np.full(4, 0.5), **option)

    def test_repair_enforces_budget(self, rng):
        spec = random_spec(rng, 20, 10, 3, 0.15)
        zhat = np.full(10, 0.6)
        res = randomized_solve(spec, zhat, trials=200, seed=0, repair=True)
        star = brute_force(spec)
        assert res.best_repaired is not None
        assert res.best_repaired.cardinality <= spec.k
        assert res.best_repaired.objective >= star.objective - 1e-9

    def test_deterministic_given_seed(self, rng):
        spec = random_spec(rng, 15, 8, 3, 0.2)
        zhat = np.clip(rng.uniform(0, 1, 8), 0, 1)
        a = randomized_solve(spec, zhat, trials=50, seed=7)
        b = randomized_solve(spec, zhat, trials=50, seed=7)
        assert a.best.support == b.best.support
        assert a.best.value == b.best.value
        assert a.mean_cardinality == b.mean_cardinality

    def test_outcome_replayable_from_stored_seed(self, rng):
        spec = random_spec(rng, 10, 6, 2, 0.3)
        zhat = np.clip(rng.uniform(0, 1, 6), 0, 1)
        res = randomized_solve(spec, zhat, trials=30, seed=11)
        support, _ = randomized_round(zhat, res.best.seed)
        assert tuple(support.tolist()) == res.best.support

    def test_distinct_seeds_draw_distinct_streams(self, rng):
        spec = random_spec(rng, 10, 30, 3, 0.2)
        zhat = np.full(30, 0.5)
        runs = [randomized_solve(spec, zhat, trials=4, seed=s, repair=False)
                for s in range(4)]
        assert len({r.best.seed for r in runs}) == 4
        assert len({r.best.support for r in runs}) == 4
        for r in runs:
            support, _ = randomized_round(zhat, r.best.seed)
            assert tuple(support.tolist()) == r.best.support

    def test_superset_of_optimum_dominates(self, rng):
        spec = random_spec(rng, 15, 7, 2, 0.2)
        star = brute_force(spec)
        bigger = set(star.support) | {int(i) for i in rng.choice(7, 3)}
        assert mic_value(spec, bigger) <= star.objective + 1e-10

    def test_mean_cardinality_unbiased(self, rng):
        spec = random_spec(rng, 10, 12, 4, 0.2)
        zhat = np.clip(rng.uniform(0, 1, 12), 0, 1)
        res = randomized_solve(spec, zhat, trials=4000, seed=1, repair=False)
        sigma = np.sqrt(np.sum(zhat * (1 - zhat)) / 4000)
        assert abs(res.mean_cardinality - zhat.sum()) <= 3 * sigma

    def test_stats_json(self, rng):
        spec = random_spec(rng, 10, 5, 2, 0.2)
        res = randomized_solve(spec, np.full(5, 0.4), trials=20, seed=2)
        payload = res.to_json_dict()
        for key in ("trials", "best_value", "best_support", "mean_cardinality",
                    "p_exceed_bound"):
            assert key in payload
