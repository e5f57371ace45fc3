import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_pair_spec, overflow_data, random_spec
from oracles import greedy_dense_steps
from sparseridge import (
    Dataset,
    InvalidArgumentError,
    NumericalError,
    ProblemSpec,
    SparseEstimator,
    SpectralStats,
    SyntheticConfig,
    brute_force,
    generate_synthetic,
    greedy_distance_bound,
    greedy_ratio_bound,
    greedy_select,
    marginal_gain,
    mic_value,
    restricted_estimator,
    restricted_greedy,
    spectral_stats,
)
from sparseridge.greedy import TIE_TOL, GreedyState, GreedyStep

# Examples per property test; tests/conftest.py makes every run reproducible.
PROPERTY = settings(max_examples=150)


class TestMarginalGain:
    def test_identity_pair_first_pick(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        state = GreedyState.initial(spec)
        # A = 0.2*I: gain = -0.1 * 5^2 / (1 + 5)
        assert marginal_gain(state, 0) == pytest.approx(-0.41666666666666663, abs=1e-12)

    def test_zero_column_gains_nothing(self):
        X = np.column_stack([np.ones(4), np.zeros(4)])
        spec = ProblemSpec(data=Dataset(X=X, y=np.ones(4)), lam=0.2, k=1)
        state = GreedyState.initial(spec)
        assert marginal_gain(state, 1) == 0.0

    def test_matches_direct_inverse_difference(self, rng):
        spec = random_spec(rng, 10, 5, 3, 0.2)
        state = GreedyState.initial(spec)
        state.select(2)
        for j in (0, 1, 3, 4):
            direct = mic_value(spec, {2, j}) - mic_value(spec, {2})
            assert marginal_gain(state, j) == pytest.approx(direct, abs=1e-10)

    def test_already_selected_rejected(self, rng):
        spec = random_spec(rng, 8, 4, 2, 0.1)
        state = GreedyState.initial(spec)
        state.select(1)
        with pytest.raises(InvalidArgumentError):
            marginal_gain(state, 1)


class TestGreedySelect:
    def test_identity_pair_tie_break(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        est, trace = greedy_select(spec)
        assert est.support == (0,)  # tie between the two features: lowest wins
        assert est.objective == pytest.approx(0.5833333333333334, abs=1e-10)
        assert trace.steps[0].value == pytest.approx(est.objective, abs=1e-8)

    def test_full_budget_is_plain_ridge(self, rng):
        spec = random_spec(rng, 12, 5, 5, 0.3)
        est, trace = greedy_select(spec)
        assert est.support == tuple(range(5))
        full = restricted_estimator(spec, range(5))
        assert est.objective == pytest.approx(full.objective, rel=1e-12)
        assert len(trace.steps) == 5

    def test_sandwich_against_brute_force(self, rng):
        spec = random_spec(rng, 25, 10, 3, 0.2)
        est, _ = greedy_select(spec)
        star = brute_force(spec)
        stats = spectral_stats(spec)
        bound = greedy_ratio_bound(spec, stats)
        assert star.objective <= est.objective + 1e-10
        assert est.objective <= bound * star.objective + 1e-10

    def test_value_tracks_refit_objective(self, rng):
        for _ in range(5):
            spec = random_spec(rng, 15, 8, 3, float(rng.choice([0.05, 0.2, 1.0])))
            est, trace = greedy_select(spec)
            assert trace.steps[-1].value == pytest.approx(
                est.objective, abs=1e-8 * (1 + est.objective)
            )

    def test_gain_accumulation_consistent(self, rng):
        spec = random_spec(rng, 20, 9, 4, 0.15)
        _, trace = greedy_select(spec)
        value = float(spec.y @ spec.y) / spec.n
        for step in trace.steps:
            value += step.gain
            assert step.value == pytest.approx(value, abs=1e-10)

    def test_zero_gain_fill_marks_trace(self):
        data = Dataset(X=np.eye(3), y=np.zeros(3))
        spec = ProblemSpec(data=data, lam=0.5, k=2)
        est, trace = greedy_select(spec)
        assert est.cardinality == 2  # the loop still fills the budget
        assert all(s.zero_gain for s in trace.steps)
        assert est.support == (0, 1)  # lowest indices on ties

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("cell", [(200, 300, 10), (500, 1000, 10)], ids=str)
    def test_same_support_in_any_units_of_y(self, cell, c):
        # Gains scale with c^2 when y -> c*y, and so does the tie tolerance;
        # an absolute one picked worse supports at c = 1e-5 and 1e-6 here.
        n, p, k = cell
        data = generate_synthetic(SyntheticConfig(n=n, p=p, k_true=k, seed=1))[0]
        est, _ = greedy_select(ProblemSpec(data=data, lam=0.08, k=k))
        scaled = ProblemSpec(data=Dataset(X=data.X, y=c * data.y), lam=0.08, k=k)
        est_c, _ = greedy_select(scaled)
        assert est_c.support == est.support
        assert est_c.objective == pytest.approx(c * c * est.objective, rel=1e-9)


    @pytest.mark.parametrize("lam, scale", [(1e-200, 1.0), (0.1, 1e160)],
                             ids=["tiny_lambda", "huge_column"])
    def test_overflowed_gain_raises(self, lam, scale):
        # a non-finite gain must not end the run quietly with fewer than k features
        spec = ProblemSpec(data=overflow_data(scale), lam=lam, k=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite gain"):
                greedy_select(spec)


class TestIncrementalState:
    def test_products_match_fresh_inverse_through_run(self, rng):
        for _ in range(3):
            n, p = 30, 20
            spec = random_spec(rng, n, p, 6, float(rng.choice([0.05, 0.3])))
            state = GreedyState.initial(spec)
            order = rng.permutation(p)[: spec.k]
            for j in order:
                state.select(int(j))
                A = spec.n * spec.lam * np.eye(n)
                for i in state.selected:
                    A += np.outer(spec.X[:, i], spec.X[:, i])
                Ainv = np.linalg.inv(A)
                assert np.max(np.abs(state.inv_products - Ainv @ spec.X)) < 1e-8
                assert state.quad_terms == pytest.approx(
                    np.sum(spec.X * (Ainv @ spec.X), axis=0), abs=1e-8
                )
                assert state.cross_terms == pytest.approx(
                    spec.y @ Ainv @ spec.X, abs=1e-8
                )
                assert state.inv_y == pytest.approx(Ainv @ spec.y, abs=1e-8)

    @pytest.mark.parametrize("built", ["initial", "by hand"])
    def test_selecting_past_the_budget_grows_the_factor(self, rng, built):
        # initial() makes room for k factor columns; a caller may select all p, and a
        # state built field by field starts with no room at all
        n, p = 12, 7
        spec = random_spec(rng, n, p, 2, 0.2)
        state = GreedyState.initial(spec)
        if built == "by hand":
            state = GreedyState(spec, np.empty((n, 0)), state.quad_terms, state.cross_terms,
                                state.inv_y, [], state.current_value)
        A = spec.n * spec.lam * np.eye(n)
        for m, j in enumerate(rng.permutation(p), start=1):
            before = state.factor.copy()
            state.select(int(j))
            assert state.factor.shape == (n, m)
            assert np.array_equal(state.factor[:, :m - 1], before)
            A += np.outer(spec.X[:, j], spec.X[:, j])
            Ainv = np.linalg.inv(A)
            assert np.max(np.abs(state.inv_products - Ainv @ spec.X)) < 1e-8
            assert state.inv_y == pytest.approx(Ainv @ spec.y, abs=1e-8)

    def test_select_rejects_repeated_and_out_of_range_index(self, rng):
        spec = random_spec(rng, 8, 4, 2, 0.1)
        state = GreedyState.initial(spec)
        state.select(3)
        inv_before = state.inv_products
        for j in (3, 4, -1):
            with pytest.raises(InvalidArgumentError):
                state.select(j)
        assert state.selected == [3]
        assert np.array_equal(state.inv_products, inv_before)

    def test_current_value_is_positive_and_decreasing(self, rng):
        spec = random_spec(rng, 15, 10, 5, 0.1)
        _, trace = greedy_select(spec)
        values = [float(spec.y @ spec.y) / spec.n] + [s.value for s in trace.steps]
        assert all(v > 0 for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


@st.composite
def greedy_specs(draw):
    """Random specs with p < n or p > n, lam in [1e-4, 1], some with
    duplicated columns (exact ties in the argmin)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(3, 12))
        p = draw(st.integers(n + 1, 4 * n))
    else:
        p = draw(st.integers(2, 12))
        n = draw(st.integers(p + 1, 3 * p + 4))
    lam = 10.0 ** draw(st.floats(-4.0, 0.0))
    spec = random_spec(rng, n, p, draw(st.integers(1, min(n, p))), lam)
    if draw(st.booleans()):
        X = spec.X.copy()
        copies = rng.integers(0, p, size=(2, max(1, p // 3)))
        X[:, copies[1]] = X[:, copies[0]]
        spec = ProblemSpec(data=Dataset(X=X, y=spec.y), lam=lam, k=spec.k)
    return spec


class TestMatchesDenseUpdate:
    """The factored inverse picks what the former dense n x p update picked."""

    @staticmethod
    def _assert_matches(spec, est, trace, candidates=None):
        dense = greedy_dense_steps(spec.X, spec.y, spec.lam, len(trace.steps),
                                   candidates)
        assert [s.chosen for s in trace.steps] == [j for j, _, _ in dense]
        assert est.support == tuple(sorted(j for j, _, _ in dense))
        scale = 1e-12 * float(spec.y @ spec.y) / spec.n
        for step, (_, gain, value) in zip(trace.steps, dense):
            assert step.gain == pytest.approx(gain, rel=1e-12, abs=scale)
            assert step.value == pytest.approx(value, rel=1e-12, abs=scale)

    @PROPERTY
    @given(spec=greedy_specs())
    def test_greedy_select(self, spec):
        est, trace = greedy_select(spec)
        assert len(trace.steps) == spec.k
        self._assert_matches(spec, est, trace)

    @PROPERTY
    @given(spec=greedy_specs(), data=st.data())
    def test_restricted_greedy(self, spec, data):
        keep = data.draw(st.lists(st.integers(0, spec.p - 1), min_size=1,
                                  unique=True))
        zhat = np.zeros(spec.p)
        zhat[keep] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fewer than k kept
            est, trace = restricted_greedy(spec, zhat)
        assert len(trace.steps) == min(spec.k, len(keep))
        self._assert_matches(spec, est, trace, np.array(keep))


def public_select_run(spec, candidates, steps):
    """Greedy through the public, checked ``GreedyState.select``: each step takes the
    least gain among ``candidates``, ties within TIE_TOL * f(0) to the lowest
    index.  Returns the state, the refit of its picks as a list and the steps."""
    state = GreedyState.initial(spec)
    allowed = np.zeros(spec.p, dtype=bool)
    allowed[candidates] = True
    tie = TIE_TOL * state.current_value
    steps_taken = []
    for it in range(1, steps + 1):
        gains = state.gains()
        gains[~allowed] = np.inf
        best = float(gains.min())
        j = int(np.flatnonzero(gains <= best + tie)[0])
        state.select(j)
        allowed[j] = False
        assert state.factor.shape == (spec.n, it)
        steps_taken.append(GreedyStep(iteration=it, chosen=j, gain=best,
                                      value=state.current_value, zero_gain=abs(best) <= tie))
    return state, restricted_estimator(spec, state.selected), steps_taken


class TestInternalStep:
    """Greedy's own picks skip select's check; the run is the checked one, bit for bit."""

    @PROPERTY
    @given(spec=greedy_specs(), data=st.data())
    def test_matches_public_select(self, spec, data):
        zhat = np.ones(spec.p)  # greedy_select's candidates: every feature
        if data.draw(st.booleans()):
            zhat[data.draw(st.lists(st.integers(0, spec.p - 1), max_size=spec.p - 1))] = 0.0
        candidates = np.flatnonzero(zhat)
        shapes, step = [], GreedyState._step

        def recorded(state, j):
            step(state, j)
            shapes.append(state.factor.shape)

        with mock.patch.object(GreedyState, "_step", recorded), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # fewer than k kept
            est, trace = (restricted_greedy(spec, zhat) if candidates.size < spec.p
                          else greedy_select(spec))
        taken = len(trace.steps)
        assert taken == min(spec.k, candidates.size)
        assert shapes == [(spec.n, m) for m in range(1, taken + 1)]
        state, ref, ref_steps = public_select_run(spec, candidates, taken)
        assert trace.steps == ref_steps
        assert est.support == ref.support
        assert est.beta.tobytes() == ref.beta.tobytes()
        assert est.objective == ref.objective
        with pytest.raises(InvalidArgumentError, match="already selected"):
            state.select(state.selected[0])
        with pytest.raises(InvalidArgumentError, match="must lie in"):
            state.select(spec.p)


def test_greedy_keeps_no_dense_block_at_large_p():
    # the tracked state is O(nk + p); an n x p block would be 6.4 MB here
    n, p = 40, 20000
    spec = random_spec(np.random.default_rng(3), n, p, 5, 0.1)
    tracemalloc.start()
    try:
        greedy_select(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * p * 8 / 2


class TestRestrictedGreedy:
    def test_integral_relaxation_is_copied(self, rng):
        spec = random_spec(rng, 12, 6, 2, 0.2)
        zhat = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        est, _ = restricted_greedy(spec, zhat)
        assert est.support == (1, 4)

    def test_identity_pair_equals_unrestricted(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        est, _ = restricted_greedy(spec, np.array([0.5, 0.5]), delta=0.01)
        full, _ = greedy_select(spec)
        assert est.support == full.support
        assert est.objective == pytest.approx(full.objective, rel=1e-12)

    def test_matches_filtered_rerun(self, rng):
        spec = random_spec(rng, 50, 40, 5, 0.1)
        zhat = np.clip(rng.uniform(-0.3, 1.0, size=40), 0.0, 1.0)
        est, _ = restricted_greedy(spec, zhat, delta=0.05)
        keep = np.flatnonzero(zhat >= 0.05)
        sub = ProblemSpec(
            data=Dataset(X=spec.X[:, keep], y=spec.y), lam=spec.lam, k=spec.k
        )
        sub_est, _ = greedy_select(sub)
        mapped = tuple(int(keep[i]) for i in sub_est.support)
        assert est.support == tuple(sorted(mapped))
        assert est.objective == pytest.approx(sub_est.objective, rel=1e-10)

    def test_short_candidate_warning(self, rng):
        spec = random_spec(rng, 10, 6, 3, 0.2)
        zhat = np.array([0.9, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.warns(UserWarning, match="candidates"):
            est, trace = restricted_greedy(spec, zhat)
        assert est.support == (0,)
        assert trace.short_candidates

    def test_empty_candidates(self, rng):
        spec = random_spec(rng, 10, 4, 2, 0.2)
        with pytest.warns(UserWarning, match="beta = 0"):
            est, _ = restricted_greedy(spec, np.zeros(4))
        assert est.cardinality == 0

    def test_invalid_delta(self, rng):
        spec = random_spec(rng, 10, 4, 2, 0.2)
        with pytest.raises(InvalidArgumentError):
            restricted_greedy(spec, np.full(4, 0.5), delta=0.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_delta_rejected(self, rng, delta):
        spec = random_spec(rng, 10, 4, 2, 0.2)
        with pytest.raises(InvalidArgumentError, match="delta"):
            restricted_greedy(spec, np.full(4, 0.5), delta=delta)

    @pytest.mark.parametrize("zhat", [np.full(4, -5.0), np.full(4, 7.0),
                                      np.array([0.5, np.nan, 0.5, 0.5])],
                             ids=["negative", "above_one", "nan"])
    def test_invalid_zhat(self, rng, zhat):
        spec = random_spec(rng, 10, 4, 2, 0.2)
        with pytest.raises(InvalidArgumentError, match="finite and lie in"):
            restricted_greedy(spec, zhat)


class TestRatioBound:
    def test_identity_pair_closed_form(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        stats = spectral_stats(spec)
        assert stats.theta[1] == pytest.approx(1.0)
        assert stats.underline_theta == pytest.approx(1.0)
        assert greedy_ratio_bound(spec, stats) == pytest.approx(5.943685, abs=1e-4)

    def test_vanishing_small_eigenvalue_term(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        stats = SpectralStats(theta={0: 0.0, 1: 1.0}, underline_theta=0.0)
        nl = spec.n * spec.lam
        assert greedy_ratio_bound(spec, stats) == pytest.approx((nl + 1.0) / nl)

    def test_sandwich_random(self, rng):
        spec = random_spec(rng, 20, 8, 2, 0.3)
        stats = spectral_stats(spec)
        bound = greedy_ratio_bound(spec, stats)
        est, _ = greedy_select(spec)
        star = brute_force(spec)
        assert bound >= 1.0
        assert est.objective <= bound * star.objective + 1e-10

    @pytest.mark.parametrize("theta", [{0: 0.0, 1: 1.0}, {0: 0.0, 2: 2.0}])
    def test_refuses_stats_without_theta_1_and_theta_k(self, theta):
        spec = identity_pair_spec(lam=0.1, k=2)
        with pytest.raises(InvalidArgumentError, match="theta_1 and theta_k"):
            greedy_ratio_bound(spec, SpectralStats(theta=theta))


class TestDistanceBound:
    def test_holds_on_solvable_instances(self, rng):
        for _ in range(10):
            spec = random_spec(rng, 18, 8, 3, float(rng.choice([0.1, 0.5])))
            est, _ = greedy_select(spec)
            star = brute_force(spec)
            stats = spectral_stats(spec)
            bound = greedy_distance_bound(spec, stats, est, star)
            dist = float(np.linalg.norm(est.beta - star.beta))
            assert dist <= bound + 1e-10

    def test_identical_supports_shrink_first_term(self, rng):
        spec = random_spec(rng, 20, 6, 2, 1.0)
        star = brute_force(spec)
        stats = spectral_stats(spec)
        bound_same = greedy_distance_bound(spec, stats, star, star)
        nl = spec.n * spec.lam
        # with no support difference only the excess term remains
        import math

        Xu = spec.X[:, list(star.support)]
        sig = float(np.linalg.eigvalsh(Xu.T @ Xu)[0])
        nu = greedy_ratio_bound(spec, stats) - 1.0
        expected = math.sqrt(spec.n * nu * star.objective / (nl + sig))
        assert bound_same == pytest.approx(expected, rel=1e-9)

    def test_two_empty_supports_are_at_distance_0(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        empty = SparseEstimator((), np.zeros(spec.p), 1.0)
        # no theta is read: the bound is 0 before the stats are looked at
        assert greedy_distance_bound(spec, SpectralStats(), empty, empty) == 0.0

    def test_refuses_stats_without_theta_of_the_difference(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        one, other = (SparseEstimator((j,), np.zeros(spec.p), 1.0) for j in (0, 1))
        with pytest.raises(InvalidArgumentError, match="theta_1"):
            greedy_distance_bound(spec, SpectralStats(theta={0: 0.0}), one, other)


def test_per_iteration_cost_scales_linearly_in_p():
    rng = np.random.default_rng(0)
    n, k = 40, 4
    specs = {p: random_spec(rng, n, p, k, 0.1) for p in (250, 500, 1000)}
    times = dict.fromkeys(specs, np.inf)
    # The three sizes take turns within each round, so a spike of load on the
    # host hits all of them alike; each keeps its fastest of the rounds.
    for _ in range(15):
        for p, spec in specs.items():
            t0 = time.perf_counter()
            greedy_select(spec)
            times[p] = min(times[p], (time.perf_counter() - t0) / k)
    slope = (times[1000] - times[250]) / 750.0
    predicted_mid = times[250] + slope * 250.0
    assert abs(times[500] - predicted_mid) <= 0.3 * predicted_mid + 1e-5
