import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import KINDS, identity_pair_spec, masked_nodes, random_spec
from oracles import subset_value_oracle
from sparseridge import core
from sparseridge import (
    Dataset,
    EnumerationCapError,
    InvalidArgumentError,
    NumericalError,
    ProblemSpec,
    branch_and_bound,
    brute_force,
    mic_value,
    restricted_estimator,
    solve_v4,
)

# Examples per property test; tests/conftest.py makes every run reproducible.
PROPERTY = settings(max_examples=15)


class TestBruteForce:
    def test_identity_pair(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        est = brute_force(spec)
        assert est.support == (0,)  # tie resolved to the lexicographically first
        assert est.objective == pytest.approx(0.1 / 1.2 + 0.5, abs=1e-12)

    def test_full_budget_single_subset(self, rng):
        spec = random_spec(rng, 10, 4, 4, 0.3)
        est = brute_force(spec)
        full = restricted_estimator(spec, range(4))
        assert est.support == (0, 1, 2, 3)
        assert est.objective == pytest.approx(full.objective, rel=1e-12)

    def test_beats_random_subsets(self, rng):
        spec = random_spec(rng, 20, 12, 4, 0.2)
        est = brute_force(spec)
        for _ in range(50):
            S = sorted(rng.choice(12, size=4, replace=False).tolist())
            assert est.objective <= subset_value_oracle(
                spec.X, spec.y, spec.lam, S
            ) + 1e-9

    def test_cap_error(self, rng):
        spec = random_spec(rng, 20, 12, 4, 0.2)
        with pytest.raises(EnumerationCapError):
            brute_force(spec, cap=10)

    @pytest.mark.parametrize("cap", [math.nan, 2.5, -1], ids=["nan", "fraction", "negative"])
    def test_invalid_cap_rejected(self, rng, cap):
        spec = random_spec(rng, 8, 5, 2, 0.2)
        with pytest.raises(InvalidArgumentError, match="cap"):
            brute_force(spec, cap=cap)

    def test_wide_design_builds_no_p_by_p_gram(self, rng):
        spec = random_spec(rng, 5, 3000, 1, 0.1, signal=False)
        tracemalloc.start()
        try:
            est = brute_force(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a one-feature ridge fit in closed form: (y^T y - (x^T y)^2 / (x^T x + n*lam)) / n
        c, g = spec.X.T @ spec.y, np.sum(spec.X**2, axis=0)
        values = (spec.y @ spec.y - c**2 / (g + spec.n * 0.1)) / spec.n
        assert est.support == (int(np.argmin(values)),)
        assert est.objective == pytest.approx(values.min(), rel=1e-10)
        # the block budget bounds the gathered stacks; at p = 3000 a p x p Gram takes 72 MB
        assert peak < 4 * 8 * core._BLOCK_ELEMENTS

    def test_wide_pairs_stay_within_the_block_budget(self, rng):
        # k = 2 extends each one-column prefix by every later column: the budget
        # must bound the Gram rows and the score rows of a block together
        spec = random_spec(rng, 5, 2000, 2, 0.1, signal=False)
        tracemalloc.start()
        try:
            est = brute_force(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * core._BLOCK_ELEMENTS
        # every pair in closed form: c_S^T K_S^-1 c_S with K_S = G_SS + n*lam*I
        G, c = spec.X.T @ spec.X, spec.X.T @ spec.y
        a = np.diag(G) + spec.n * 0.1
        i, j = np.triu_indices(spec.p, 1)  # row-major: lexicographic pairs
        fitted = (a[j] * c[i]**2 - 2 * G[i, j] * c[i] * c[j] + a[i] * c[j]**2) \
            / (a[i] * a[j] - G[i, j]**2)
        values = (spec.y @ spec.y - fitted) / spec.n
        first = int(np.argmin(values))
        assert est.support == (i[first], j[first])
        assert est.objective == pytest.approx(values[first], rel=1e-10)

    @pytest.mark.parametrize("column", [0, 4], ids=["prefix-pivot", "extension-score"])
    def test_non_finite_value_raises(self, column):
        # X^T X overflows in the scaled column: at a prefix's pivot for column 0,
        # in the extension values for column 4; neither may be skipped or returned
        X = np.random.default_rng(0).standard_normal((8, 5))
        X[:, column] *= 1e160
        spec = ProblemSpec(data=Dataset(X=X, y=np.arange(8.0)), lam=0.1, k=2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="brute force"):
            brute_force(spec)

    @pytest.mark.parametrize("budget", [1, 2, 3, core._BLOCK_ELEMENTS])
    def test_tie_across_blocks_goes_to_first_support(self, monkeypatch, budget):
        # Integer data sum exactly, so columns 1 and 3 (equal) tie bit for bit.
        # With k = 1 every column extends the one empty prefix, so each budget
        # scores all four in one block and the row-major argmin keeps column 1.
        X = np.array([[1, 2, 0, 2], [0, 1, 3, 1], [2, 3, 1, 3],
                      [1, 0, 1, 0], [0, 2, 2, 2]], dtype=float)
        y = np.array([2.0, 1.0, 3.0, 0.0, 2.0])
        spec = ProblemSpec(data=Dataset(X=X, y=y), lam=0.1, k=1)
        values = [subset_value_oracle(X, y, 0.1, [j]) for j in range(4)]
        assert min(values) == values[1] < min(values[0], values[2])
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", budget)
        assert brute_force(spec).support == (1,)

    def test_tied_pairs_across_blocks(self, monkeypatch):
        # Column 4 duplicates column 1: {0, 1} and {0, 4} tie, far apart in order.
        X = np.array([[1, 2, 0, 1, 2], [0, 1, 3, 0, 1], [2, 3, 1, 1, 3],
                      [1, 0, 1, 2, 0], [0, 2, 2, 1, 2], [1, 1, 0, 0, 1]], dtype=float)
        y = X[:, 0] + X[:, 1]
        spec = ProblemSpec(data=Dataset(X=X, y=y), lam=0.01, k=2)
        expected = brute_force(spec)
        assert expected.support == (0, 1)
        for budget in (1, 8, 12):  # both pairs extend prefix (0,): one block each time
            monkeypatch.setattr(core, "_BLOCK_ELEMENTS", budget)
            est = brute_force(spec)
            assert est.support == (0, 1)
            assert est.objective == expected.objective

    @pytest.mark.parametrize("budget", [1, 64, core._BLOCK_ELEMENTS])
    def test_tie_between_prefixes_goes_to_first_support(self, monkeypatch, budget):
        # Column 3 duplicates column 0, so {0, 2} ties {2, 3}: two supports that
        # extend different prefixes, (0,) and (2,).  Columns 0 and 2 are
        # orthogonal with X^T X + n*lam*I = 4 on their diagonal, so both values
        # are exact.  Budget 1 puts each prefix in its own block, 64 puts (0,)
        # and (1,) in a block before (2,), and the default scores all at once.
        X = np.array([[1, 1, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0]], dtype=float)
        y = np.array([1.0, 2.0, 1.0, 2.0])
        spec = ProblemSpec(data=Dataset(X=X, y=y), lam=0.5, k=2)
        values = {S: subset_value_oracle(X, y, 0.5, S)
                  for S in itertools.combinations(range(4), 2)}
        assert values[(0, 2)] == values[(2, 3)] < min(
            v for S, v in values.items() if S not in {(0, 2), (2, 3)})
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", budget)
        est = brute_force(spec)
        assert est.support == (0, 2)
        assert est.objective == restricted_estimator(spec, (0, 2)).objective

    @pytest.mark.parametrize("budget", [1, 64, 128, core._BLOCK_ELEMENTS])
    @pytest.mark.parametrize("k", [3, 4])
    def test_deep_tie_between_prefixes_goes_to_first_support(self, monkeypatch, k, budget):
        # Columns 0, 2, ..., k are orthogonal unit columns with x^T y = 2, column 1
        # a weaker one (x^T y = 1), and column k + 1 duplicates column 0.  So
        # {0, 2, ..., k} ties {2, ..., k + 1}: they extend different (k-1)-prefixes,
        # (0, 2, ..., k-1) and (2, ..., k), and the tie is reached after k - 1
        # elimination steps.  With n*lam = 3 every pivot is 4, every root 2 and
        # every entry dyadic, so both values are exact.  Budgets 1 and 64 put each
        # prefix in its own block, 128 two or three prefixes in a block (the two
        # tied ones in different blocks), and the default scores all at once.
        p = k + 2
        X = np.zeros((12, p))
        X[np.arange(k + 1), np.arange(k + 1)] = 1.0
        X[0, k + 1] = 1.0
        y = np.zeros(12)
        y[:k + 1] = 2.0
        y[1] = 1.0
        spec = ProblemSpec(data=Dataset(X=X, y=y), lam=0.25, k=k)
        first, second = (0, *range(2, k + 1)), (*range(2, k + 1), k + 1)
        values = {S: subset_value_oracle(X, y, 0.25, S)
                  for S in itertools.combinations(range(p), k)}
        assert values[first] == values[second] < min(
            v for S, v in values.items() if S not in {first, second})
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", budget)
        est = brute_force(spec)
        assert est.support == first
        assert est.objective == restricted_estimator(spec, first).objective

    @pytest.mark.parametrize("shape", ["k1", "kp", "wide", "tall"])
    @PROPERTY
    @given(data=st.data())
    def test_first_lexicographic_minimizer(self, shape, data):
        if shape == "wide":
            n = data.draw(st.integers(2, 5))
            p = data.draw(st.integers(n + 1, 9))
            k = data.draw(st.integers(1, n))
        else:
            p = data.draw(st.integers(2, 7))
            n = data.draw(st.integers(p, 10))
            k = {"k1": 1, "kp": p}.get(shape) or data.draw(st.integers(1, p))
        lam = data.draw(st.sampled_from([0.01, 0.1, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        spec = random_spec(rng, n, p, k, lam, signal=data.draw(st.booleans()))
        supports = list(itertools.combinations(range(p), k))
        values = [subset_value_oracle(spec.X, spec.y, lam, S) for S in supports]
        first = supports[int(np.argmin(values))]
        for budget in (1, core._BLOCK_ELEMENTS):  # one subset per block, and all
            with mock.patch.object(core, "_BLOCK_ELEMENTS", budget):
                est = brute_force(spec)
            assert est.support == first
            assert est.objective == pytest.approx(min(values), rel=1e-10)


class TestBranchAndBound:
    def test_identity_pair_certificate(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        res = branch_and_bound(spec)
        assert res.optimal
        assert res.root_bound == pytest.approx(0.4 / 1.4, abs=1e-6)
        assert res.estimator.objective == pytest.approx(0.5833333333333334, abs=1e-9)
        assert res.final_gap <= 1e-6

    def test_integral_root_closes_immediately(self, rng):
        spec = random_spec(rng, 10, 3, 3, 0.2)  # saturated budget: z = 1 is optimal
        res = branch_and_bound(spec)
        assert res.optimal
        assert res.nodes_explored == 1
        assert res.estimator.objective == pytest.approx(res.root_bound, rel=1e-9)

    def test_matches_brute_force(self, rng):
        for _ in range(6):
            n = int(rng.integers(10, 21))
            p = int(rng.integers(8, 15))
            k = int(rng.integers(2, 5))
            spec = random_spec(rng, n, p, k, float(rng.choice([0.05, 0.2, 1.0])))
            res = branch_and_bound(spec)
            star = brute_force(spec)
            assert res.optimal and res.final_gap <= 1e-6
            assert res.estimator.objective == pytest.approx(
                star.objective, rel=1e-6
            )

    def test_root_bound_is_relaxation_value(self, rng):
        spec = random_spec(rng, 12, 9, 3, 0.1)
        res = branch_and_bound(spec)
        v4 = solve_v4(spec)
        assert res.root_bound == pytest.approx(v4.value, rel=1e-6)

    def test_node_cap_flags_incomplete(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        res = branch_and_bound(spec, node_cap=1)
        assert not res.optimal
        assert res.final_gap > 1e-6
        # incumbent still feasible and correct here (greedy seed is optimal)
        assert res.estimator.objective == pytest.approx(0.5833333333333334, abs=1e-9)

    @pytest.mark.parametrize("kwargs", [
        {"gap_tol": math.inf}, {"gap_tol": math.nan}, {"gap_tol": -1e-6},
        {"node_cap": math.nan}, {"node_cap": 2.5}, {"node_cap": -1},
    ], ids=["gap-inf", "gap-nan", "gap-negative", "cap-nan", "cap-fraction", "cap-negative"])
    def test_invalid_stop_arguments_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError, match=next(iter(kwargs))):
            branch_and_bound(identity_pair_spec(lam=0.1, k=1), **kwargs)

    def test_zero_stop_arguments_allowed(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        assert branch_and_bound(spec, gap_tol=0.0).optimal
        res = branch_and_bound(spec, node_cap=0)
        assert res.nodes_explored == 0 and not res.optimal

    def test_zero_response_is_proved_at_the_root(self, rng):
        # y = 0: the incumbent's value is 0, which no relative gap can divide by;
        # the root's bound is 0 too, so the root is pruned and the heap empties
        X = rng.standard_normal((10, 6))
        spec = ProblemSpec(data=Dataset(X=X, y=np.zeros(10)), lam=0.1, k=2)
        res = branch_and_bound(spec)
        assert res.optimal and res.final_gap == 0.0 and res.nodes_explored == 1
        assert res.root_bound == 0.0
        assert res.estimator.objective == 0.0 and not res.estimator.beta.any()

    def test_report_json(self, rng):
        spec = random_spec(rng, 10, 6, 2, 0.2)
        res = branch_and_bound(spec)
        payload = json.loads(json.dumps(res.to_json_dict()))
        assert set(payload) == {"value", "support", "gap", "nodes", "root_bound"}

    def test_bounds_below_completions(self, rng):
        # every explored node's certified bound must not exceed the optimum
        spec = random_spec(rng, 12, 8, 3, 0.15)
        star = brute_force(spec)
        res = branch_and_bound(spec)
        assert res.root_bound <= star.objective + 1e-9
        assert res.estimator.objective == pytest.approx(star.objective, rel=1e-6)

    def test_masked_relaxation_bounds_node_completions(self, rng):
        import itertools

        from sparseridge import mic_value

        spec = random_spec(rng, 10, 7, 3, 0.2)
        sol = solve_v4(spec, fixed_one=(1,), fixed_zero=(4,))
        free = [i for i in range(7) if i not in (1, 4)]
        best = min(
            mic_value(spec, {1} | set(extra))
            for r in range(spec.k)  # remaining budget k - 1
            for extra in itertools.combinations(free, r)
        )
        assert sol.value <= best + 1e-9


class TestNodeCertificate:
    """The masked v4 bound B&B prunes on, against enumeration of the node."""

    @pytest.mark.parametrize("kind", KINDS)
    @PROPERTY
    @given(data=st.data())
    def test_lower_bound_below_every_completion(self, kind, data):
        spec, ones, free, zeros = data.draw(masked_nodes(kind))
        sol = solve_v4(spec, tol=1e-8, max_iter=20000, fixed_one=ones, fixed_zero=zeros)
        budget = spec.k - len(ones)
        best = min(
            subset_value_oracle(spec.X, spec.y, spec.lam, ones + list(extra))
            for r in range(min(budget, len(free)) + 1)
            for extra in itertools.combinations(free, r)
        )
        assert sol.lower_bound <= best * (1.0 + 1e-10)
        if kind != "open":
            # closed form: the saturated support, value certified as is
            saturated = set(ones) | (set(free) if budget > 0 else set())
            assert np.array_equal(np.flatnonzero(sol.z), sorted(saturated))
            assert sol.lower_bound == sol.value
            assert sol.value == pytest.approx(mic_value(spec, saturated), rel=1e-12)

    @settings(PROPERTY, max_examples=30)
    @given(node=st.sampled_from(KINDS).flatmap(masked_nodes))
    def test_branch_and_bound_matches_brute_force(self, node):
        spec = node[0]
        res = branch_and_bound(spec, gap_tol=1e-6)
        star = brute_force(spec).objective
        assert res.optimal and res.final_gap <= 1e-6
        assert star * (1.0 - 1e-12) <= res.estimator.objective <= star / (1.0 - 1e-6)
