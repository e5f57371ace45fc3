import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_pair_spec, random_spec
from oracles import randomized_trials_oracle
from sparseridge import (
    InvalidArgumentError,
    core,
    brute_force,
    cardinality_bound,
    mic_value,
    randomized_round,
    randomized_solve,
)
from sparseridge.randomized import _draw

# Examples per property test; tests/conftest.py makes every run reproducible.
PROPERTY = settings(max_examples=60)


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


def run_key(seed):
    """The Philox key of a run: SeedSequence(seed)'s first two 64-bit words, low first."""
    words = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return int(words[0]) | int(words[1]) << 64


class TestTrialKeys:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 11])
    def test_match_seed_sequence(self, rng, seed):
        # seeds of one to five 32-bit words: the run's key is SeedSequence(seed)'s
        # first two 64-bit words, and trial t draws what a fresh
        # Philox(key=K, counter=t*ceil(p/4)) draws first, for each p mod 4
        key = run_key(seed)
        for p in (8, 9, 10, 11):
            blocks = -(-p // 4)
            spec = random_spec(rng, 12, p, 3, 0.1)
            zhat = np.full(p, 0.5)
            res = randomized_solve(spec, zhat, trials=30, seed=seed, repair=False)
            drawn = [tuple(np.flatnonzero(
                np.random.Generator(np.random.Philox(key=key, counter=t * blocks)).random(p)
                <= zhat).tolist()) for t in range(30)]
            assert res.best.seed == key
            assert res.best.counter == blocks * drawn.index(res.best.support)
            assert res.mean_cardinality == np.mean([len(d) for d in drawn])


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
        support, z_tilde = randomized_round(zhat, res.best.seed, counter=res.best.counter)
        assert tuple(support.tolist()) == res.best.support
        assert np.array_equal(z_tilde, res.best.z_tilde)

    def test_distinct_seeds_draw_distinct_streams(self, rng):
        spec = random_spec(rng, 10, 30, 3, 0.2)
        zhat = np.full(30, 0.5)
        runs = [randomized_solve(spec, zhat, trials=4, seed=s, repair=False)
                for s in range(4)]
        assert len({r.best.seed for r in runs}) == 4
        assert len({r.best.support for r in runs}) == 4
        for r in runs:
            support, _ = randomized_round(zhat, r.best.seed, counter=r.best.counter)
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


class TestKeyedStream:
    @pytest.mark.parametrize("key", [0, 5, 2**64 - 1, 2**70 + 5])
    def test_rekeyed_uniforms_equal_a_fresh_philox(self, key):
        expected = np.random.Generator(np.random.Philox(key=key)).random(11)
        zhat = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(randomized_round(zhat, key)[1], (expected <= zhat).astype(float))

    def test_key_beyond_128_bits_rejected(self):
        for key in (2**128, 10**400):  # 10**400 is beyond float range too
            with pytest.raises(InvalidArgumentError, match=rf"seed must lie in \[0, {2**128 - 1}\]"):
                randomized_round(np.full(3, 0.5), key)


class TestBatchedScoring:
    @PROPERTY
    @given(data=st.data())
    def test_matches_the_per_trial_oracle(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        p = data.draw(st.integers(2, 10), label="p")
        k = data.draw(st.integers(max(1, min(n, p) - 2), min(n, p)), label="k")
        lam = data.draw(st.sampled_from([0.01, 0.1, 1.0]), label="lam")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
        spec = random_spec(rng, n, p, k, lam)
        entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))
        zhat = np.array(data.draw(st.lists(entry, min_size=p, max_size=p), label="zhat"))
        trials = data.draw(st.integers(1, 40), label="trials")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        repair = data.draw(st.booleans(), label="repair")

        res = randomized_solve(spec, zhat, trials=trials, seed=seed, repair=repair)
        ref = randomized_trials_oracle(spec.X, spec.y, lam, k, zhat, trials, seed, repair)
        assert res.best.support == ref["best"]["support"]
        assert res.best.seed == ref["best"]["seed"]
        assert res.best.counter == ref["best"]["counter"]
        assert np.array_equal(res.best.z_tilde, ref["best"]["z_tilde"])
        assert res.best.value == pytest.approx(ref["best"]["value"], rel=1e-12)
        assert res.mean_cardinality == ref["mean_cardinality"]
        assert res.p_exceed_bound == ref["p_exceed_bound"]
        if not repair:
            assert res.best_repaired is None and res.best_repaired_raw_value is None
            return
        assert res.best_repaired.support == ref["repaired"]["support"]
        assert res.best_repaired.objective == pytest.approx(ref["repaired"]["value"], rel=1e-12)
        assert res.best_repaired_raw_value == pytest.approx(ref["repaired"]["raw_value"],
                                                            rel=1e-12)

    def test_over_budget_draw_ties_an_in_budget_one(self):
        # X = I and y = (1, 1): {0} and {1} tie exactly, and trimming {0, 1}
        # (|beta_0| = |beta_1|) keeps {1}, so over-budget and in-budget draws
        # tie too; every tie goes to the lowest trial index.
        spec = identity_pair_spec(lam=0.1, k=1)
        for seed in range(6):
            res = randomized_solve(spec, np.array([0.5, 0.5]), trials=12, seed=seed)
            ref = randomized_trials_oracle(spec.X, spec.y, 0.1, 1, np.array([0.5, 0.5]),
                                           12, seed)
            assert res.best_repaired.support == ref["repaired"]["support"]
            assert res.best_repaired_raw_value == ref["repaired"]["raw_value"]

    @pytest.mark.parametrize("ones", [3, 5], ids=["in-budget", "over-budget"])
    @pytest.mark.parametrize("repair", [True, False])
    def test_integral_zhat_draws_one_support_every_trial(self, rng, ones, repair):
        # every trial draws the same support, so each scores the same and trial 0 wins
        spec = random_spec(rng, 12, 8, 3, 0.1)
        zhat = np.zeros(8)
        zhat[rng.choice(8, ones, replace=False)] = 1.0
        res = randomized_solve(spec, zhat, trials=30, seed=7, repair=repair)
        ref = randomized_trials_oracle(spec.X, spec.y, 0.1, 3, zhat, 30, 7, repair)
        assert res.best.counter == ref["best"]["counter"] == 0
        assert res.best.support == ref["best"]["support"] == tuple(np.flatnonzero(zhat))
        assert res.best.value == pytest.approx(ref["best"]["value"], rel=1e-12)
        assert res.mean_cardinality == ones and res.p_exceed_bound == ref["p_exceed_bound"]
        if not repair:
            assert res.best_repaired is None and res.best_repaired_raw_value is None
            return
        assert res.best_repaired.support == ref["repaired"]["support"]
        assert res.best_repaired.objective == pytest.approx(ref["repaired"]["value"], rel=1e-12)
        assert res.best_repaired_raw_value == res.best.value

    def test_duplicate_draws_go_to_the_first_trial_that_drew_them(self, rng):
        # Two coordinates at zhat = 0.5 allow four supports, so 40 trials must
        # repeat draws: every trial is scored as drawn, equal draws score
        # equally, and the best outcome carries the counter of the first trial
        # that drew its support.
        spec = random_spec(rng, 8, 5, 2, 0.1)
        zhat = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        blocks = 2  # counter blocks of four doubles per trial at p = 5
        for seed in range(6):
            res = randomized_solve(spec, zhat, trials=40, seed=seed)
            ref = randomized_trials_oracle(spec.X, spec.y, 0.1, 2, zhat, 40, seed)
            drawn = [tuple(randomized_round(zhat, run_key(seed), t * blocks)[0].tolist())
                     for t in range(40)]
            assert res.best.support == ref["best"]["support"]
            assert res.best.seed == ref["best"]["seed"] == run_key(seed)
            assert (res.best.counter == ref["best"]["counter"]
                    == blocks * drawn.index(res.best.support))
            assert res.best.value == pytest.approx(ref["best"]["value"], rel=1e-12)
            assert res.best_repaired.support == ref["repaired"]["support"]

    def test_memory_does_not_grow_with_trials_times_p(self, rng):
        spec = random_spec(rng, 30, 2000, 5, 0.1)
        zhat = np.zeros(2000)
        zhat[rng.choice(2000, 40, replace=False)] = rng.uniform(0.02, 0.2, 40)
        tracemalloc.start()
        try:
            res = randomized_solve(spec, zhat, trials=20000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.trials == 20000 and res.best_repaired.cardinality <= 5
        # one float per trial and feature would take 320 MB, one bool 40 MB
        assert peak < 16 * 2**20


class TestOneStream:
    @settings(max_examples=30)
    @pytest.mark.parametrize("residue", range(4))
    @given(data=st.data())
    def test_draws_replay_whatever_the_block_size(self, residue, data):
        # p mod 4 takes every value, and a small element budget splits the
        # draw (and the stacked scoring) into blocks of one to a few trials
        p = 4 * data.draw(st.integers(1, 3), label="p // 4") + residue
        n = data.draw(st.integers(2, 8), label="n")
        k = data.draw(st.integers(1, min(n, p)), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
        spec = random_spec(rng, n, p, k, 0.1)
        entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))
        zhat = np.array(data.draw(st.lists(entry, min_size=p, max_size=p), label="zhat"))
        trials = data.draw(st.integers(1, 30), label="trials")
        seed = data.draw(st.integers(0, 2**64), label="seed")
        width = 4 * -(-p // 4)
        budget = data.draw(st.integers(1, 4 * width), label="element budget")

        runs = []
        for elements in (budget, core._BLOCK_ELEMENTS):
            with mock.patch.object(core, "_BLOCK_ELEMENTS", elements):
                key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
                drawn = _draw(np.random.Philox(key=key), zhat, trials)
                res = randomized_solve(spec, zhat, trials=trials, seed=seed)
            runs.append((drawn, res))
        (drawn, res), (other_drawn, other) = runs
        t, i = np.divmod(drawn, p)
        for trial in range(trials):
            support, _ = randomized_round(zhat, res.best.seed, trial * width // 4)
            assert support.tolist() == i[t == trial].tolist()
        assert np.array_equal(drawn, other_drawn)
        for field in ("support", "value", "seed", "counter"):
            assert getattr(res.best, field) == getattr(other.best, field)
        assert res.best_repaired.support == other.best_repaired.support
        assert res.best_repaired.objective == other.best_repaired.objective
        assert res.best_repaired_raw_value == other.best_repaired_raw_value
