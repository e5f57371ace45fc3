import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_pair_spec, random_spec
from oracles import (
    gauss_solve,
    max_subset_eig_oracle,
    min_large_subset_eig_oracle,
    naive_ridge_objective,
    selection_value_oracle,
)
from sparseridge import (
    BudgetExceededError,
    Dataset,
    EnumerationCapError,
    InvalidArgumentError,
    ProblemSpec,
    mic_value,
    normalize_columns,
    restricted_estimator,
    ridge_objective,
    spectral_stats,
    theta,
    underline_theta,
)
from sparseridge import core
from sparseridge.core import RidgeSystem, _subset_blocks

# Reproducible property runs that leave no example database behind.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class TestDatasetValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(X=np.array([[1.0, np.nan]]), y=np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(X=np.eye(3), y=np.ones(2))

    def test_rejects_bad_feature_names(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(X=np.eye(2), y=np.ones(2), feature_names=("a",))

    def test_arrays_frozen(self):
        data = Dataset(X=np.eye(2), y=np.ones(2))
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0

    @pytest.mark.parametrize("lam,k", [(0.0, 1), (-1.0, 1), (0.1, 0), (0.1, 3),
                                       (np.nan, 1), (0.1, 1.5), (0.1, np.nan),
                                       pytest.param(0.1, 10**400, id="0.1-k10**400")])
    def test_spec_invariants(self, lam, k):
        with pytest.raises(InvalidArgumentError):
            ProblemSpec(data=Dataset(X=np.eye(2), y=np.ones(2)), lam=lam, k=k)


class TestRidgeObjective:
    def test_zero_estimator(self, rng):
        spec = random_spec(rng, 8, 4, 2, 0.3)
        assert ridge_objective(spec, np.zeros(4)) == pytest.approx(
            float(spec.y @ spec.y) / spec.n, rel=1e-14
        )

    def test_identity_pair_single_feature(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        beta = np.array([5.0 / 6.0, 0.0])
        assert ridge_objective(spec, beta) == pytest.approx(0.5833333333333334, abs=1e-12)

    def test_matches_naive_loops(self, rng):
        spec = random_spec(rng, 10, 6, 2, 0.2)
        beta = restricted_estimator(spec, {1, 3}).beta
        expected = naive_ridge_objective(spec.X, spec.y, spec.lam, beta)
        assert ridge_objective(spec, beta) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        spec = random_spec(rng, 6, 3, 1, 0.1)
        with pytest.raises(InvalidArgumentError):
            ridge_objective(spec, np.zeros(4))


class TestRestrictedEstimator:
    def test_identity_pair(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        est = restricted_estimator(spec, {0})
        assert est.beta == pytest.approx(np.array([5.0 / 6.0, 0.0]), abs=1e-12)
        assert est.objective == pytest.approx(0.5833333333333334, abs=1e-10)

    def test_empty_support(self, rng):
        spec = random_spec(rng, 12, 5, 2, 0.4)
        est = restricted_estimator(spec, [])
        assert not est.support
        assert np.all(est.beta == 0.0)
        assert est.objective == pytest.approx(float(spec.y @ spec.y) / spec.n)

    def test_matches_gaussian_elimination(self, rng):
        spec = random_spec(rng, 20, 8, 3, 0.15)
        S = [1, 4, 6]
        est = restricted_estimator(spec, S)
        Xs = spec.X[:, S]
        expected = gauss_solve(
            Xs.T @ Xs + spec.n * spec.lam * np.eye(3), Xs.T @ spec.y
        )
        assert est.beta[S] == pytest.approx(expected, rel=1e-10)

    def test_budget_exceeded(self, rng):
        spec = random_spec(rng, 10, 6, 2, 0.1)
        with pytest.raises(BudgetExceededError):
            restricted_estimator(spec, [0, 1, 2])

    def test_normal_equation_residual(self, rng):
        for _ in range(10):
            spec = random_spec(rng, 15, 9, 4, float(rng.uniform(0.01, 1.0)))
            S = sorted(rng.choice(9, size=3, replace=False).tolist())
            est = restricted_estimator(spec, S)
            Xs = spec.X[:, S]
            rhs = Xs.T @ spec.y
            resid = (Xs.T @ Xs + spec.n * spec.lam * np.eye(3)) @ est.beta[S] - rhs
            assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("S", [[1.5], {2.7}, [0, np.nan]],
                             ids=["fraction", "set_fraction", "nan"])
    def test_non_integral_index_rejected(self, rng, S):
        spec = random_spec(rng, 10, 6, 2, 0.1)
        with pytest.raises(InvalidArgumentError, match="integers"):
            restricted_estimator(spec, S)
        with pytest.raises(InvalidArgumentError, match="integers"):
            mic_value(spec, set(S))

    def test_integral_indices_accepted(self, rng):
        spec = random_spec(rng, 10, 6, 2, 0.1)
        ref = restricted_estimator(spec, [0, 2])
        for S in ([2.0, 0], [np.int64(2), np.int64(0)], {0.0, 2}):
            est = restricted_estimator(spec, S)
            assert est.support == (0, 2)
            assert est.beta.tobytes() == ref.beta.tobytes()
            assert mic_value(spec, set(S)) == ref.objective

    def test_objective_field_consistent(self, rng):
        for n, p in [(14, 7), (5, 12)]:  # p < n and p > n
            spec = random_spec(rng, n, p, 3, 0.2)
            est = restricted_estimator(spec, [0, 2, 5])
            assert est.objective == pytest.approx(
                ridge_objective(spec, est.beta), rel=1e-12
            )


class TestMicValue:
    def test_identity_pair(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        assert mic_value(spec, np.array([1.0, 0.0])) == pytest.approx(
            0.5833333333333334, abs=1e-10
        )

    def test_empty_selection(self, rng):
        spec = random_spec(rng, 9, 4, 2, 0.3)
        assert mic_value(spec, np.zeros(4)) == pytest.approx(
            float(spec.y @ spec.y) / spec.n, rel=1e-12
        )

    def test_matches_restricted_estimator(self, rng):
        spec = random_spec(rng, 15, 6, 2, 0.25)
        z = np.zeros(6)
        z[[2, 5]] = 1.0
        expected = restricted_estimator(spec, [2, 5]).objective
        got = mic_value(spec, z)
        assert abs(got - expected) <= 1e-8 * (1.0 + abs(expected))

    def test_non_binary_rejected(self, rng):
        spec = random_spec(rng, 8, 5, 2, 0.1)
        with pytest.raises(InvalidArgumentError):
            mic_value(spec, np.array([0.5, 0, 0, 0, 0]))

    def test_wide_support_uses_consistent_value(self, rng):
        # support larger than n exercises the n x n route
        spec = random_spec(rng, 3, 10, 3, 0.5, signal=False)
        S = {0, 2, 4, 6, 8}
        expected = selection_value_oracle(spec.X, spec.y, spec.lam, sorted(S))
        assert mic_value(spec, S) == pytest.approx(expected, rel=1e-10)

    def test_route_agreement(self, rng):
        # same support evaluated via both routes must agree
        spec = random_spec(rng, 4, 8, 4, 0.3, signal=False)
        for size in (2, 4, 6):
            S = set(rng.choice(8, size=size, replace=False).tolist())
            direct = selection_value_oracle(spec.X, spec.y, spec.lam, sorted(S))
            assert mic_value(spec, S) == pytest.approx(direct, rel=1e-9)

    def test_monotone_under_support_growth(self, rng):
        for _ in range(8):
            spec = random_spec(rng, 12, 8, 4, float(rng.choice([0.05, 0.3, 1.0])))
            small = set(rng.choice(8, size=2, replace=False).tolist())
            big = small | set(rng.choice(8, size=3, replace=False).tolist())
            assert mic_value(spec, big) <= mic_value(spec, small) + 1e-10

    def test_agreement_with_exact_fit_all_subsets(self, rng):
        spec = random_spec(rng, 10, 5, 3, 0.2)
        import itertools

        for r in range(0, 4):
            for S in itertools.combinations(range(5), r):
                f = mic_value(spec, set(S))
                obj = restricted_estimator(spec, S).objective
                assert abs(f - obj) <= 1e-8 * (1.0 + abs(f))

    def test_wide_support_at_tiny_lam(self):
        # (y^T y - c^T b)/n with a Woodbury b is off by ~4e-3 relative here
        rng = np.random.default_rng(7)
        spec = random_spec(rng, 30, 300, 3, 1e-6)
        S = sorted(rng.choice(300, size=200, replace=False).tolist())
        expected = selection_value_oracle(spec.X, spec.y, spec.lam, S)
        assert mic_value(spec, set(S)) == pytest.approx(expected, rel=1e-12)


@st.composite
def ridge_systems(draw):
    """(X_S, w, nlam) with m = 0, m < n, m = n or m > n columns."""
    n = draw(st.integers(2, 6))
    m = draw(st.sampled_from([0, 1, n - 1, n, n + 1, 2 * n + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.array(draw(st.lists(st.floats(1e-8, 1.0), min_size=m, max_size=m)))
    nlam = n * draw(st.floats(0.05, 1.0))
    return rng.standard_normal((n, m)), w, nlam, rng


class TestRidgeSystem:
    @staticmethod
    def dense(Xs, w, nlam):
        return Xs.T @ Xs + nlam * np.diag(1.0 / w)

    @PROPERTY
    @given(case=ridge_systems())
    def test_fit_matches_gaussian_elimination(self, case):
        Xs, w, nlam, rng = case
        y = rng.standard_normal(Xs.shape[0])
        expected = gauss_solve(self.dense(Xs, w, nlam), Xs.T @ y)
        got, u, value = RidgeSystem(Xs, w, nlam).fit(y)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * (
            1.0 + np.abs(expected).max(initial=0.0)
        )
        # u = A^-1 y with A = nlam*I + X_S diag(w) X_S^T, and value = lam*y^T u.
        n = Xs.shape[0]
        u_want = gauss_solve(nlam * np.eye(n) + (Xs * w) @ Xs.T, y)
        assert np.abs(u - u_want).max() <= 1e-12 * (1.0 + np.abs(u_want).max())
        value_want = nlam / n * float(y @ u_want)
        assert abs(value - value_want) <= 1e-12 * (1.0 + value_want)

    @PROPERTY
    @given(case=ridge_systems())
    def test_solve_matches_gaussian_elimination(self, case):
        Xs, w, nlam, rng = case
        m = Xs.shape[1]
        system = RidgeSystem(Xs, w, nlam)
        K = self.dense(Xs, w, nlam)
        r = rng.standard_normal(m)
        R = rng.standard_normal((m, 2))
        expected = gauss_solve(K, r)
        expected2 = np.column_stack([gauss_solve(K, R[:, j]) for j in range(2)])
        for got, want in [(system.solve(r), expected), (system.solve(R), expected2)]:
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * (
                1.0 + np.abs(want).max(initial=0.0)
            )


    @pytest.mark.parametrize("m", [2, 7])
    def test_nonfinite_system_or_right_side_raises_value_error(self, m):
        Xs = np.random.default_rng(0).standard_normal((4, m))
        system = RidgeSystem(Xs, np.ones(m), 1.0)
        with pytest.raises(ValueError):
            system.solve(np.full(m, np.nan))
        Xs[1, 1] = np.nan
        with pytest.raises(ValueError):
            RidgeSystem(Xs, np.ones(m), 1.0)

    def test_indefinite_system_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            RidgeSystem(np.eye(3)[:, :2], np.array([1.0, -1.0]), 2.0)

    def test_empty_support(self):
        y = np.array([1.0, -2.0, 3.0])
        system = RidgeSystem(np.zeros((3, 0)), np.zeros(0), 2.0)
        b, u, value = system.fit(y)
        assert b.shape == (0,) and np.array_equal(u, y / 2.0)
        assert value == float(y @ y) / 3


class TestSpectral:
    @pytest.mark.parametrize("s", [2.5, np.nan, "2"], ids=["fraction", "nan", "string"])
    @pytest.mark.parametrize("mode", ["exact", "upper_bound"])
    def test_non_integral_size_rejected(self, rng, mode, s):
        spec = random_spec(rng, 6, 4, 2, 0.1)
        with pytest.raises(InvalidArgumentError, match="integer"):
            theta(spec, s, mode=mode)

    def test_identity_design(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        assert theta(spec, 1, mode="exact") == pytest.approx(1.0, abs=1e-12)
        spec2 = identity_pair_spec(lam=0.1, k=2)
        assert theta(spec2, 2, mode="exact") == pytest.approx(1.0, abs=1e-12)
        assert theta(spec, 1, mode="upper_bound") == pytest.approx(1.0, abs=1e-12)

    def test_exact_matches_enumeration_oracle(self, rng):
        spec = random_spec(rng, 5, 8, 2, 0.1, signal=False)
        assert theta(spec, 2, mode="exact") == pytest.approx(
            max_subset_eig_oracle(spec.X, 2), rel=1e-10
        )

    def test_exact_on_wide_design_builds_no_p_by_p_gram(self, rng):
        spec = random_spec(rng, 5, 3000, 1, 0.1, signal=False)
        tracemalloc.start()
        try:
            value = theta(spec, 1, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(max_subset_eig_oracle(spec.X, 1), rel=1e-10)
        # the block budget bounds the gathered stacks; at p = 3000 a p x p Gram takes 72 MB
        assert peak < 4 * 8 * core._BLOCK_ELEMENTS

    def test_monotone_and_dominated_by_upper_bound(self, rng):
        spec = random_spec(rng, 8, 6, 4, 0.1, signal=False)
        prev = 0.0
        for s in range(1, 5):
            exact = theta(spec, s, mode="exact")
            upper = theta(spec, s, mode="upper_bound")
            assert exact >= prev - 1e-12
            assert upper >= exact - 1e-12
            prev = exact

    def test_cap_error(self, rng):
        spec = random_spec(rng, 6, 10, 3, 0.1)
        with pytest.raises(EnumerationCapError):
            theta(spec, 3, mode="exact", cap=10)

    @pytest.mark.parametrize("cap", [math.nan, 2.5, -1], ids=["nan", "fraction", "negative"])
    @pytest.mark.parametrize("quantity", ["theta", "underline_theta", "spectral_stats"])
    def test_invalid_cap_rejected(self, rng, quantity, cap):
        spec = random_spec(rng, 3, 6, 2, 0.1)
        call = {
            "theta": lambda: theta(spec, 2, cap=cap),
            "underline_theta": lambda: underline_theta(spec, cap=cap),
            "spectral_stats": lambda: spectral_stats(spec, cap=cap),
        }[quantity]
        with pytest.raises(InvalidArgumentError, match="cap"):
            call()

    def test_underline_identity(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        assert underline_theta(spec) == pytest.approx(1.0, abs=1e-12)

    def test_underline_matches_oracle(self, rng):
        spec = random_spec(rng, 3, 6, 2, 0.1, signal=False)
        assert underline_theta(spec) == pytest.approx(
            min_large_subset_eig_oracle(spec.X, 2), rel=1e-9, abs=1e-12
        )

    def test_underline_wide_rank_deficient_design(self, rng):
        # p - k + 1 = 8 exceeds n = 4: enumeration still runs, value >= 0
        spec = random_spec(rng, 4, 10, 3, 0.1, signal=False)
        val = underline_theta(spec)
        assert val >= 0.0
        assert val == pytest.approx(
            min_large_subset_eig_oracle(spec.X, 3), rel=1e-9, abs=1e-12
        )

    def test_underline_enumerates_smallest_size_only(self, rng):
        # Larger T add PSD terms, so the C(6, 4) = 15 subsets of size 4 are
        # enough; counting sizes 5 and 6 too (22 subsets) would break cap=15.
        spec = random_spec(rng, 4, 6, 3, 0.1, signal=False)
        assert underline_theta(spec, cap=15) == pytest.approx(
            min_large_subset_eig_oracle(spec.X, 3), rel=1e-9, abs=1e-12
        )

    def test_underline_zero_fast_path(self, rng):
        # p - k + 1 < n forces rank deficiency
        spec = random_spec(rng, 6, 6, 2, 0.1, signal=False)
        assert underline_theta(spec) == 0.0

    def test_spectral_stats_bundle(self, rng):
        spec = random_spec(rng, 9, 6, 3, 0.2, signal=False)
        stats = spectral_stats(spec)
        assert stats.theta[0] == 0.0
        assert set(stats.theta) == {0, 1, 2, 3}
        assert stats.mode == "exact"
        loose = spectral_stats(spec, mode="upper_bound")
        assert loose.underline_theta == 0.0
        for s in (1, 2, 3):
            assert loose.theta[s] >= stats.theta[s] - 1e-12


class TestSubsetBlocks:
    @pytest.mark.parametrize("p, s", [(1, 1), (4, 1), (5, 2), (6, 3), (4, 4), (7, 5)])
    @pytest.mark.parametrize("budget", [1, 3, 8, 2**16])
    def test_combinations_order(self, monkeypatch, p, s, budget):
        # budget 1 is smaller than one subset (s^2 elements) once s > 1
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", budget)
        blocks = list(_subset_blocks(p, s))
        m = max(1, budget // (s * s))
        assert all(b.dtype == np.intp and b.ndim == 2 and b.shape[1] == s for b in blocks)
        assert all(1 <= b.shape[0] <= m for b in blocks)
        assert all(b.shape[0] == m for b in blocks[:-1])
        rows = [tuple(row) for b in blocks for row in b.tolist()]
        assert rows == list(itertools.combinations(range(p), s))

    def test_blocked_theta_matches_oracles(self, rng, monkeypatch):
        spec = random_spec(rng, 4, 7, 3, 0.1, signal=False)
        whole = [theta(spec, s) for s in (1, 2, 3)] + [underline_theta(spec)]
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 5)
        blocked = [theta(spec, s) for s in (1, 2, 3)] + [underline_theta(spec)]
        assert blocked == pytest.approx(whole, rel=1e-12, abs=1e-14)
        for s in (1, 2, 3):
            assert whole[s - 1] == pytest.approx(max_subset_eig_oracle(spec.X, s), rel=1e-10)
        assert whole[3] == pytest.approx(
            min_large_subset_eig_oracle(spec.X, 3), rel=1e-9, abs=1e-12
        )


def test_normalize_columns(rng):
    spec = random_spec(rng, 20, 5, 2, 0.1)
    scaled = normalize_columns(spec.data)
    assert np.sum(scaled.X**2, axis=0) == pytest.approx(np.full(5, 20.0), rel=1e-12)

    with_zero = Dataset(X=np.column_stack([np.ones(4), np.zeros(4)]), y=np.ones(4))
    scaled = normalize_columns(with_zero)
    assert np.all(scaled.X[:, 1] == 0.0)
