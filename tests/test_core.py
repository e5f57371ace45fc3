import ast
import itertools
import json
import math
import pathlib
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_pair_spec, overflow_data, random_spec
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
    NumericalError,
    ProblemSpec,
    SparseRidgeError,
    SyntheticConfig,
    branch_and_bound,
    brute_force,
    gcv_score,
    gcv_select,
    greedy_select,
    mic_value,
    normalize_columns,
    randomized_solve,
    restricted_estimator,
    ridge_objective,
    run_benchmark,
    solve_v4,
    spectral_stats,
    theta,
    underline_theta,
)
from sparseridge import core, extensions
from sparseridge.core import RidgeSystem, _subset_blocks

# Examples per property test; tests/conftest.py makes every run reproducible.
PROPERTY = settings(max_examples=50)


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

    def test_constructor_copies_and_adoption_does_not(self):
        X = np.eye(3)
        data = Dataset(X=X, y=np.ones(3))
        X[0, 0] = 5.0
        assert data.X[0, 0] == 1.0 and X.flags.writeable
        adopted = Dataset._adopt(X, np.ones(3))
        assert adopted.X is X and not X.flags.writeable

    @pytest.mark.parametrize("X", [np.array([[1.0, np.nan]]), np.array([[np.inf, 1.0]]),
                                   np.array([[1.0, -np.inf]])])
    def test_adoption_checks_as_the_constructor_does(self, X):
        with pytest.raises(InvalidArgumentError, match="finite"):
            Dataset._adopt(X, np.ones(1))

    @pytest.mark.parametrize("lam,k", [(0.0, 1), (-1.0, 1), (0.1, 0), (0.1, 3),
                                       (np.nan, 1), (0.1, 1.5), (0.1, np.nan), (0.1, True),
                                       (True, 1), ("0.08", 1),
                                       pytest.param(0.1, 10**400, id="0.1-k10**400")])
    def test_spec_invariants(self, lam, k):
        with pytest.raises(InvalidArgumentError):
            ProblemSpec(data=Dataset(X=np.eye(2), y=np.ones(2)), lam=lam, k=k)


# bool is an int subclass, but True is no count: each entry point must refuse it
@pytest.mark.parametrize("call", [
    lambda spec: SyntheticConfig(n=10, p=5, k_true=True),
    lambda spec: run_benchmark([{"n": 10, "p": 5, "k": 2}], ["greedy"], reps=True),
    lambda spec: brute_force(spec, cap=True),
    lambda spec: randomized_solve(spec, np.full(spec.p, 0.4), trials=True),
], ids=["synthetic-k_true", "benchmark-reps", "brute-cap", "randomized-trials"])
def test_boolean_is_not_an_integer(rng, call):
    spec = random_spec(rng, 8, 5, 2, 0.1)
    with pytest.raises(InvalidArgumentError, match="must be an integer, got True"):
        call(spec)


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

    @pytest.mark.parametrize("n, p", [(14, 7), (5, 12)], ids=["tall", "wide"])
    def test_integer_arrays_refit_as_lists_do(self, rng, n, p):
        # an integer array is checked by its dtype, with no scan of its items; its
        # indices, unsorted and repeated, give the refit they give as a list
        spec = random_spec(rng, n, p, 3, 0.2)
        S = [5, 0, 2, 5]
        ref = restricted_estimator(spec, S)
        assert ref.support == (0, 2, 5)
        for form in (tuple(S), *(np.array(S, dtype=t) for t in (np.int32, np.int64, np.uint64))):
            est = restricted_estimator(spec, form)
            assert est.support == ref.support
            assert est.beta.tobytes() == ref.beta.tobytes()
            assert est.objective == ref.objective

    @pytest.mark.parametrize("S, message", [
        (np.array([True, False, True]), None),
        (np.array([[1, 2]]), None),
        (np.array([1.0, 2.5]), "feature indices must be integers, got 2.5"),
        (np.array([2, -1]), "feature indices must lie in [0, 5], got [-1, 2]"),
        (np.array([-3, 1], dtype=np.int32), "feature indices must lie in [0, 5], got [-3, 1]"),
        (np.array([6, 2, 6]), "feature indices must lie in [0, 5], got [2, 6]"),
        (np.array([6, 2], dtype=np.uint64), "feature indices must lie in [0, 5], got [2, 6]"),
    ], ids=["bool", "2-D", "fraction", "negative", "negative-int32", "index-p", "index-p-uint64"])
    def test_refused_arrays_keep_their_messages(self, rng, S, message):
        spec = random_spec(rng, 10, 6, 2, 0.1)
        with pytest.raises(InvalidArgumentError) as info:
            restricted_estimator(spec, S)
        assert str(info.value) == (message or f"feature indices must be integers, got {S!r}")

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

    def test_lone_index_refused(self, rng):
        # z is a collection of indices or an indicator; a lone index is neither
        spec = random_spec(rng, 8, 5, 2, 0.1)
        for call in (mic_value, restricted_estimator):
            with pytest.raises(InvalidArgumentError, match="must be a collection, got 3"):
                call(spec, 3)

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

    @staticmethod
    def system(Xs, w, nlam):
        """RidgeSystem on the first m columns of a dataset with one column more,
        so that m = 0 makes a dataset too and m = n a wide one (no X^T X)."""
        n, m = Xs.shape
        data = Dataset(X=np.column_stack([Xs, np.ones(n)]), y=np.zeros(n))
        return RidgeSystem(data, np.arange(m), w, nlam)

    @PROPERTY
    @given(case=ridge_systems())
    def test_fit_matches_gaussian_elimination(self, case):
        Xs, w, nlam, rng = case
        y = rng.standard_normal(Xs.shape[0])
        expected = gauss_solve(self.dense(Xs, w, nlam), Xs.T @ y)
        got, u, value = self.system(Xs, w, nlam).fit(y)
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
        system = self.system(Xs, w, nlam)
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


    @pytest.mark.parametrize("every", [False, True])
    def test_column_blocks_match_a_dense_solve(self, every):
        # n = 130 gives blocks of 256 columns, so 600 columns take three
        n, m, nlam = 130, 600, 13.0
        rng = np.random.default_rng(8)
        data = Dataset(X=rng.standard_normal((n, m + (not every))), y=rng.standard_normal(n))
        S = np.arange(m) if every else np.sort(rng.choice(m + 1, m, replace=False))
        w = rng.uniform(0.01, 1.0, m)
        Xs = data.X[:, S]
        system = RidgeSystem(data, S, w, nlam)
        assert system.wide
        b, u, value = system.fit(data.y)
        u_want = gauss_solve(nlam * np.eye(n) + (Xs * w) @ Xs.T, data.y)
        assert np.abs(u - u_want).max() <= 1e-12 * np.abs(u_want).max()
        assert np.abs(b - w * (Xs.T @ u_want)).max() <= 1e-12 * np.abs(b).max()
        assert value == pytest.approx(nlam / n * float(data.y @ u_want), rel=1e-12)
        R = rng.standard_normal((m, 2))
        want = np.linalg.solve(Xs.T @ Xs + nlam * np.diag(1.0 / w), R)
        assert np.abs(system.solve(R) - want).max() <= 1e-9 * np.abs(want).max()
        for got, want in [(system.matvec(R), Xs @ R), (system.rmatvec(data.y), Xs.T @ data.y)]:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_solve_on_a_formed_gram_gathers_no_columns(self):
        # With X^T X formed, K is a block of it and X_S is gathered on first use:
        # a system that only solves holds K and its factor (0.03 x X here), where
        # X_S on 150 of the 300 columns would take 0.5 x X.
        rng = np.random.default_rng(11)
        data = Dataset(X=rng.standard_normal((4000, 300)), y=rng.standard_normal(4000))
        data.normal.G
        S, w, nlam = np.sort(rng.choice(300, 150, replace=False)), rng.uniform(0.1, 1.0, 150), 320.0
        tracemalloc.start()
        try:
            system = RidgeSystem(data, S, w, nlam)
            b = system.solve(data.normal.c[S])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * data.X.nbytes, f"{peak / data.X.nbytes:.3f} x X"
        # the fit gathers X_S then, and matches a system on a dataset with no X^T X
        fresh = Dataset(X=data.X, y=data.y)
        got, want = system.fit(data.y), RidgeSystem(fresh, S, w, nlam).fit(data.y)
        assert fresh.normal.formed_gram() is None
        for g, v in zip(got[:2], want[:2]):
            assert np.abs(g - v).max() <= 1e-12 * np.abs(v).max()
        assert got[2] == pytest.approx(want[2], rel=1e-12)
        assert np.abs(b - want[0]).max() <= 1e-12 * np.abs(want[0]).max()

    @pytest.mark.parametrize("m", [40, 600])
    def test_columns_matvec_matches_the_gathered_product(self, m):
        # n = 130 gives blocks of 504 columns: 40 is one block, 600 two
        rng = np.random.default_rng(9)
        X = rng.standard_normal((130, 700))
        S, b = np.sort(rng.choice(700, m, replace=False)), rng.standard_normal(m)
        eq = Dataset(X=X, y=np.zeros(130)).normal
        got, want = eq.matvec(S, b), X[:, S] @ b
        if m == 40:
            assert np.array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("m", [2, 7])
    def test_nonfinite_system_or_right_side_raises_value_error(self, m):
        Xs = np.random.default_rng(0).standard_normal((4, m))
        system = self.system(Xs, np.ones(m), 1.0)
        with pytest.raises(NumericalError):
            system.solve(np.full(m, np.nan))
        # a dataset is finite, so a non-finite system comes from its weights
        w = np.ones(m)
        w[1] = np.nan
        with pytest.raises(NumericalError):
            self.system(Xs, w, 1.0)

    @pytest.mark.parametrize("m", [3, 5, 9])
    @pytest.mark.parametrize("gram", [False, True])
    def test_unit_weights_as_none_match_ones_bit_for_bit(self, m, gram):
        # None builds no weight vector on the m x m side (m <= n = 5); the n x n side
        # (m = 9) sums weighted blocks with ones
        rng = np.random.default_rng(m)
        data = Dataset(X=rng.standard_normal((5, 10)), y=rng.standard_normal(5))
        if gram:
            data = Dataset(X=rng.standard_normal((12, 10)), y=rng.standard_normal(12))
            data.normal.G
        S = np.sort(rng.choice(10, m, replace=False))
        unit, ones = RidgeSystem(data, S, None, 0.7), RidgeSystem(data, S, np.ones(m), 0.7)
        r = rng.standard_normal((m, 2))
        for got, want in [(unit.fit(data.y), ones.fit(data.y)),
                          ((unit.solve(r), unit.hat_diagonal(), unit.matvec(r[:, 0])),
                           (ones.solve(r), ones.hat_diagonal(), ones.matvec(r[:, 0])))]:
            for g, v in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(v).tobytes()

    def test_indefinite_system_raises_linalg_error(self):
        with pytest.raises(NumericalError):
            self.system(np.eye(3)[:, :2], np.array([1.0, -1.0]), 2.0)

    def test_empty_support(self):
        y = np.array([1.0, -2.0, 3.0])
        b, u, value = self.system(np.zeros((3, 0)), np.zeros(0), 2.0).fit(y)
        assert b.shape == (0,) and np.array_equal(u, y / 2.0)
        assert value == float(y @ y) / 3


class TestNormalEquations:
    def test_formed_once_per_dataset_and_read_only(self, rng):
        spec = random_spec(rng, 8, 5, 2, 0.1)
        eq = spec.data.normal
        assert ProblemSpec(data=spec.data, lam=0.3, k=1).data.normal is eq
        assert np.array_equal(eq.G, spec.X.T @ spec.X)
        assert np.array_equal(eq.c, spec.X.T @ spec.y) and eq.yy == spec.y @ spec.y
        for arr in (eq.c, eq.sq, eq.G):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_wide_design_forms_no_gram(self, rng):
        spec = random_spec(rng, 4, 9, 2, 0.1)
        eq = spec.data.normal
        assert eq.G is None
        S = np.array([[1, 5, 6], [0, 2, 8]])
        want = np.stack([spec.X[:, r].T @ spec.X[:, r] for r in S])
        assert np.allclose(eq.block(S, S), want, rtol=1e-14, atol=1e-14)
        assert np.allclose(eq.block(S[0], slice(3, None)), spec.X[:, S[0]].T @ spec.X[:, 3:],
                           rtol=1e-14, atol=1e-14)

    def test_threads_share_one_dataset(self, rng):
        # the view is formed on first read; threads racing to it must all see
        # the same normal equations and so get the same fits
        spec = random_spec(rng, 30, 12, 3, 0.1)
        want = restricted_estimator(ProblemSpec(data=Dataset(X=spec.X, y=spec.y), lam=0.1, k=3),
                                    (0, 1, 2))
        results = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(
                restricted_estimator(spec, (0, 1, 2)))) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and len(results) == 8
        for est in results:
            assert est.objective == want.objective
            assert np.array_equal(est.beta, want.beta)

    def test_one_off_fits_form_no_gram(self, rng):
        # a tall design's X^T X is formed only for the stacked scorers and big_m;
        # a single fit, greedy or GCV reads its own columns (at p = 400 a p x p
        # float array takes 1.28 MB)
        calls = [lambda spec: restricted_estimator(spec, (0, 1, 2)), greedy_select,
                 lambda spec: gcv_score(spec, (0, 1, 2), 0.1)]
        for call in calls:
            spec = random_spec(rng, 2000, 400, 3, 0.1)
            tracemalloc.start()
            try:
                call(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 400 * 400 / 4
            S = np.array([[0, 1], [2, 3]])
            want = np.stack([spec.X[:, r].T @ spec.X[:, r] for r in S])
            assert np.allclose(spec.data.normal.block(S, S), want, rtol=1e-13, atol=0.0)
            G = spec.data.normal.G  # formed now, and read by later blocks
            assert np.array_equal(spec.data.normal.block(S, S), G[S[:, :, None], S[:, None, :]])

    @pytest.mark.parametrize("n, p, s", [(8, 6, 3), (5, 12, 4), (4, 12, 6)])
    def test_ridge_scores_match_support_fits(self, rng, monkeypatch, n, p, s):
        # (4, 12, 6) fits each row alone on the n x n side; a small budget
        # splits the stacked solves into blocks
        spec = random_spec(rng, n, p, min(n, p), 0.1)
        rows = np.array([np.sort(rng.choice(p, s, replace=False)) for _ in range(7)])
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 50)
        b, values = core._ridge_scores(spec, rows)
        assert b.shape == rows.shape and values.shape == (len(rows),)
        for S, got_b, got_value in zip(rows, b, values):
            want_b, _, want_value = RidgeSystem(spec.data, S, np.ones(s), n * 0.1).fit(spec.y)
            assert np.abs(got_b - want_b).max() <= 1e-12 * (1.0 + np.abs(want_b).max())
            assert abs(got_value - want_value) <= 1e-12 * (1.0 + want_value)

    @pytest.mark.parametrize("n, p", [(8, 6), (5, 12)])
    def test_padded_rows_score_their_own_features(self, rng, monkeypatch, n, p):
        # rows of 0 to 6 features padded with -1 to width 6: padding gets b = 0
        # exactly, and at (5, 12) rows of 6 features are fit alone on the n x n side
        spec = random_spec(rng, n, p, min(n, p), 0.1)
        sizes = [0, 1, 6, 3, 6, 2, 5, 4]
        rows = np.full((len(sizes), 6), -1)
        for row, size in zip(rows, sizes):
            row[:size] = np.sort(rng.choice(p, size, replace=False))
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 50)
        b, values = core._ridge_scores(spec, rows)
        for row, size, got_b, got_value in zip(rows, sizes, b, values):
            S = row[:size]
            want_b, _, want_value = RidgeSystem(spec.data, S, np.ones(size), n * 0.1).fit(spec.y)
            assert np.all(got_b[size:] == 0.0)
            assert np.abs(got_b[:size] - want_b).max(initial=0.0) <= 1e-12 * (
                1.0 + np.abs(want_b).max(initial=0.0))
            assert abs(got_value - want_value) <= 1e-12 * (1.0 + want_value)
        # padding is decoupled in the stacks themselves: its row and column are 0
        # but for the shift on the diagonal
        for S, K in core._gram_stacks(spec, 6, rows, shift=3.0):
            at, pos = np.nonzero(S < 0)
            assert np.array_equal(K[at, pos], 3.0 * np.eye(6)[pos])
            assert np.array_equal(K, K.swapaxes(1, 2))

    def test_gram_stack_shift_leaves_the_view_unchanged(self, rng):
        spec = random_spec(rng, 8, 5, 2, 0.1)
        G = spec.data.normal.G.copy()
        for S, K in core._gram_stacks(spec, 2, shift=3.0):
            assert np.array_equal(K, G[S[:, :, None], S[:, None, :]] + 3.0 * np.eye(2))
        assert np.array_equal(spec.data.normal.G, G)

    def test_wide_solvers_build_no_p_by_p_object(self, rng):
        # at p = 3000 a p x p float array takes 72 MB
        calls = [greedy_select, brute_force, solve_v4,
                 lambda spec: randomized_solve(spec, np.full(spec.p, 1.0 / spec.p))]
        for call in calls:
            spec = random_spec(rng, 5, 3000, 1, 0.1, signal=False)
            tracemalloc.start()
            try:
                call(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 8 * core._BLOCK_ELEMENTS


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

    def test_overflowed_gram_raises(self):
        # x_0^T x_0 overflows, so eigvalsh gives NaN for every support holding
        # column 0; a theta that skipped them would be too small to bound greedy.
        spec = ProblemSpec(data=overflow_data(1e160), lam=0.1, k=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite eigenvalue"):
                theta(spec, 2)
        assert theta(spec, 2, mode="upper_bound") == math.inf

    def test_one_cap_check_for_every_enumeration(self, rng):
        # theta and brute force enumerate C(10, 3) supports, underline_theta C(10, 8)
        spec = random_spec(rng, 6, 10, 3, 0.1)
        for call, s in [(lambda: theta(spec, 3, cap=44), 3),
                        (lambda: underline_theta(spec, cap=44), 8),
                        (lambda: brute_force(spec, cap=44), 3)]:
            message = f"C(10, {s}) = {math.comb(10, s)} exceeds the enumeration cap 44"
            with pytest.raises(EnumerationCapError, match=f"^{re.escape(message)}$"):
                call()

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

    def test_underline_blocks_hold_their_working_set(self, rng, monkeypatch):
        # t = n = 4: a subset holds X_T (t x n) and X_T X_T^T (n x n), 32 floats,
        # so blocks sized by t^2 = 16 would take twice the budget
        spec = random_spec(rng, 4, 7, 4, 0.1, signal=False)
        whole = underline_theta(spec)
        sizes, blocks = [], core._subset_blocks

        def recorded(p, s, elements):
            for T in blocks(p, s, elements):
                sizes.append(T.shape[0] * (4 * 4 + 4 * 4))
                yield T

        monkeypatch.setattr(core, "_subset_blocks", recorded)
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 64)
        assert underline_theta(spec) == pytest.approx(whole, rel=1e-12, abs=1e-14)
        assert sum(sizes) == 32 * math.comb(7, 4) and max(sizes) <= 64

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
        blocks = list(_subset_blocks(p, s, s * s))
        m = max(1, budget // (s * s))
        assert all(b.dtype == np.intp and b.ndim == 2 and b.shape[1] == s for b in blocks)
        assert all(1 <= b.shape[0] <= m for b in blocks)
        assert all(b.shape[0] == m for b in blocks[:-1])
        rows = [tuple(row) for b in blocks for row in b.tolist()]
        assert rows == list(itertools.combinations(range(p), s))

    @pytest.mark.parametrize("p", [0, 1, 5])
    def test_empty_subset_is_one_block(self, p):
        # C(p, 0) = 1: the empty subset, as one (1, 0) block
        blocks = list(_subset_blocks(p, 0, 0))
        assert len(blocks) == 1
        assert blocks[0].shape == (1, 0) and blocks[0].dtype == np.intp

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


def _gcv_with_a_failed_point(spec, monkeypatch):
    real_fit = extensions.fit

    def flaky_fit(s, method, **kw):
        if s.lam < 0.05:
            raise SparseRidgeError("synthetic failure")
        return real_fit(s, method, **kw)

    monkeypatch.setattr(extensions, "fit", flaky_fit)
    with pytest.warns(UserWarning, match="excluded"):
        return gcv_select(spec.data, k=2, grid=[0.01, 0.2], method="greedy")


# every public record with to_json_dict, each at the edge where a field is
# least likely to be an ordinary number
RECORDS = {
    # stopped before the root: gap inf, no root bound
    "branch_and_bound node_cap=0": lambda spec, mp: branch_and_bound(spec, node_cap=0),
    # the failed point scores NaN
    "gcv_select failed point": _gcv_with_a_failed_point,
    # k = p: the capped box is one point, solved in closed form with no loop
    "solve_v4 closed form": lambda spec, mp: solve_v4(ProblemSpec(spec.data, spec.lam, spec.p)),
    # every draw empty, and no repaired fields
    "randomized_solve empty draws": lambda spec, mp: randomized_solve(
        spec, np.zeros(spec.p), trials=3, repair=False),
    "restricted_estimator empty support": lambda spec, mp: restricted_estimator(spec, []),
    "SyntheticConfig": lambda spec, mp: SyntheticConfig(n=10, p=6, k_true=2),
}


@pytest.mark.parametrize("record", RECORDS)
def test_every_record_writes_strict_json(record, monkeypatch):
    spec = random_spec(np.random.default_rng(0), 10, 6, 2, 0.1)
    payload = RECORDS[record](spec, monkeypatch).to_json_dict()
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload


# Reads of the original rows (``.X``, ``.y``, or the view's private ``._X``) outside
# the view, by (module, enclosing class or function; None for the whole module),
# each with its reason.  Every other solver reads the design through Dataset.normal.
ORIGINAL_ROW_READERS = {
    ("core", "Dataset"): "the dataset holds X and y and builds the view from them",
    ("core", "NormalEquations"): "the view itself",
    ("core", "ProblemSpec.X"): "the public accessor",
    ("core", "ProblemSpec.y"): "the public accessor",
    ("core", "normalize_columns"): "a design builder: it rescales the original rows",
    ("core", "underline_theta"): "X_T X_T^T is n x n, defined on the original rows",
    ("data_io", None): "a CSV file holds the original rows",
    ("extensions", "gcv_score"): "GCV's fitted values and hat diagonal are per original row",
    ("greedy", "GreedyState.inv_products"): "a public n x p product on the original rows",
    ("heuristic", "elastic_net_cd"): "no library code calls it",
}


def _design_reads(source: str):
    """(enclosing qualified name, attribute, line) of every load of .X, .y or ._X."""
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Attribute) and child.attr in ("X", "y", "_X")
                  and isinstance(child.ctx, ast.Load)):
                reads.append((".".join(scope), child.attr, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), ())
    return reads


def test_solvers_read_the_design_through_the_view():
    used, stray = set(), []
    for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py")):
        module = path.stem
        for name, attr, line in _design_reads(path.read_text()):
            parts = name.split(".") if name else []
            scopes = [(module, ".".join(parts[:i])) for i in range(len(parts), 0, -1)]
            key = next((k for k in [*scopes, (module, None)] if k in ORIGINAL_ROW_READERS), None)
            if key is None:
                stray.append(f"{path.name}:{line} {name or '<module>'} reads .{attr}")
            used.add(key)
    assert not stray, "read X or y through Dataset.normal:\n" + "\n".join(stray)
    assert set(ORIGINAL_ROW_READERS) <= used, "an exception that no longer reads the rows"
