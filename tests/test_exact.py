import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import KINDS, identity_pair_spec, masked_nodes, random_spec
from oracles import subset_value_oracle
from sparseridge import (
    EnumerationCapError,
    branch_and_bound,
    brute_force,
    mic_value,
    restricted_estimator,
    solve_v4,
)

# Reproducible property runs that leave no example database behind.
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)


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
