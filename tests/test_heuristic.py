import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_pair_spec, random_spec
from oracles import (
    elastic_net_objective,
    heuristic_gamma_bisection,
    min_l1_path_scan,
    proximal_gradient_elastic_net,
)
from sparseridge import (
    Dataset,
    InfeasibleLevelError,
    InvalidArgumentError,
    ProblemSpec,
    SyntheticConfig,
    brute_force,
    elastic_net_cd,
    generate_synthetic,
    heuristic_bisection,
    min_l1_given_level,
    restricted_estimator,
    ridge_objective,
)
from sparseridge.heuristic import _ElasticNetPath

PROPERTY = settings(max_examples=40)


class TestElasticNetCd:
    def test_no_l1_term_is_plain_ridge(self, rng):
        spec = random_spec(rng, 12, 5, 5, 0.3)
        beta = elastic_net_cd(spec, gamma=0.0)
        full = restricted_estimator(spec, range(5))
        assert beta == pytest.approx(full.beta, abs=1e-7)

    def test_full_shrinkage_threshold(self, rng):
        spec = random_spec(rng, 15, 6, 2, 0.2)
        gamma = 2.0 * float(np.abs(spec.X.T @ spec.y).max()) / spec.n
        # at the exact threshold rounding can leave O(eps) coefficients
        assert np.abs(elastic_net_cd(spec, gamma=gamma)).max() <= 1e-12
        assert np.all(elastic_net_cd(spec, gamma=1.1 * gamma) == 0.0)

    def test_matches_proximal_gradient_oracle(self, rng):
        spec = random_spec(rng, 30, 8, 3, 0.1)
        gamma = 0.2
        beta = elastic_net_cd(spec, gamma=gamma)
        oracle = proximal_gradient_elastic_net(spec.X, spec.y, spec.lam, gamma)
        ours = elastic_net_objective(spec.X, spec.y, spec.lam, gamma, beta)
        ref = elastic_net_objective(spec.X, spec.y, spec.lam, gamma, oracle)
        assert ours <= ref + 1e-7

    def test_coordinatewise_stationarity(self, rng):
        spec = random_spec(rng, 20, 7, 3, 0.2)
        gamma = 0.15
        beta = elastic_net_cd(spec, gamma=gamma, tol=1e-10)
        r = spec.y - spec.X @ beta
        for i in range(spec.p):
            c = float(spec.X[:, i] @ r) / spec.n
            if beta[i] != 0.0:
                # smooth gradient balances the L1 subgradient exactly
                viol = abs(-2 * c + 2 * spec.lam * beta[i] + gamma * np.sign(beta[i]))
                assert viol <= 1e-6
            else:
                assert abs(c) <= gamma / 2 + 1e-8

    def test_negative_gamma_rejected(self, rng):
        spec = random_spec(rng, 8, 3, 1, 0.1)
        with pytest.raises(InvalidArgumentError):
            elastic_net_cd(spec, gamma=-0.1)
        with pytest.raises(InvalidArgumentError):
            elastic_net_cd(spec, gamma=math.nan)


class TestMinL1GivenLevel:
    def test_naive_level_needs_nothing(self, rng):
        spec = random_spec(rng, 10, 4, 2, 0.2)
        beta = min_l1_given_level(spec, float(spec.y @ spec.y) / spec.n)
        assert np.all(beta == 0.0)

    def test_level_respected_and_l1_minimal(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        level = 0.583334
        beta = min_l1_given_level(spec, level)
        assert ridge_objective(spec, beta) <= level + 1e-8
        assert np.count_nonzero(beta) <= 2
        oracle_l1 = min_l1_path_scan(spec.X, spec.y, spec.lam, level)
        assert float(np.abs(beta).sum()) <= oracle_l1 + 1e-6

    def test_level_at_ridge_minimum_gives_dense_fit(self, rng):
        spec = random_spec(rng, 12, 5, 5, 0.3)
        full = restricted_estimator(spec, range(5))
        beta = min_l1_given_level(spec, full.objective + 1e-12)
        assert beta == pytest.approx(full.beta, abs=1e-4)

    def test_infeasible_level(self, rng):
        from sparseridge import ProblemSpec

        spec = random_spec(rng, 12, 5, 2, 0.3)
        wide = ProblemSpec(data=spec.data, lam=spec.lam, k=5)
        full = restricted_estimator(wide, range(5))
        with pytest.raises(InfeasibleLevelError):
            min_l1_given_level(spec, full.objective * 0.5)

    def test_nan_level_rejected(self, rng):
        spec = random_spec(rng, 20, 6, 2, 0.3)
        with pytest.raises(InvalidArgumentError, match="NaN"):
            min_l1_given_level(spec, math.nan)


class TestBisection:
    def test_tolerance_above_initial_gap(self, rng):
        spec = random_spec(rng, 10, 4, 2, 0.2)
        yy = float(spec.y @ spec.y) / spec.n
        est, trace = heuristic_bisection(spec, delta_hat=yy + 1.0)
        assert trace.iterations == 0
        assert est.cardinality == 0
        assert trace.final_value == pytest.approx(yy, rel=1e-12)

    def test_identity_pair_contract(self):
        # the symmetric instance never certifies a 1-sparse witness through
        # the L1 route, so the output is the safe zero estimator; the
        # iteration bound and feasibility still hold
        spec = identity_pair_spec(lam=0.1, k=1)
        est, trace = heuristic_bisection(spec, delta_hat=1e-4)
        bound = math.floor(math.log2(float(spec.y @ spec.y) / (spec.n * 1e-4))) + 1
        assert trace.iterations <= bound
        assert est.cardinality <= spec.k
        star = brute_force(spec)
        assert trace.final_value >= star.objective - 1e-9

    def test_random_instances_contract(self, rng):
        for _ in range(6):
            n = int(rng.integers(15, 31))
            spec = random_spec(rng, n, 10, 3, float(rng.choice([0.05, 0.2])))
            delta = 1e-3
            est, trace = heuristic_bisection(spec, delta_hat=delta)
            star = brute_force(spec)
            yy = float(spec.y @ spec.y)
            bound = math.floor(math.log2(yy / (spec.n * delta))) + 1
            assert trace.iterations <= bound
            assert est.cardinality <= spec.k
            assert trace.final_value >= star.objective - 1e-9
            assert est.objective == pytest.approx(
                ridge_objective(spec, est.beta), rel=1e-12
            )

    def test_bracket_one_ulp_wide_stops(self):
        # At this scale delta_hat is below one ulp of the objective, so the
        # bracket stops shrinking before it is delta_hat wide; the loop must
        # still end within the iteration bound.
        data = generate_synthetic(SyntheticConfig(n=60, p=120, k_true=6, seed=1))[0]
        spec = ProblemSpec(data=Dataset(X=data.X, y=data.y * 1e5), lam=0.08, k=6)
        est, trace = heuristic_bisection(spec, delta_hat=1e-6)
        bound = math.floor(math.log2(float(spec.y @ spec.y) / (spec.n * 1e-6))) + 1
        assert trace.iterations <= bound
        last = trace.steps[-1]
        assert last.upper - last.lower > 1e-6
        assert est.cardinality <= spec.k
        assert trace.final_value == min(last.upper, est.objective)
        assert not trace.bracket_met

    def test_bracket_met_in_unit_scale(self):
        data = generate_synthetic(SyntheticConfig(n=60, p=120, k_true=6, seed=1))[0]
        spec = ProblemSpec(data=data, lam=0.08, k=6)
        _, trace = heuristic_bisection(spec, delta_hat=1e-6)
        last = trace.steps[-1]
        assert trace.bracket_met and last.upper - last.lower <= 1e-6

    def test_bracket_halves_every_iteration(self, rng):
        spec = random_spec(rng, 20, 8, 3, 0.1)
        _, trace = heuristic_bisection(spec, delta_hat=1e-3)
        gap = float(spec.y @ spec.y) / spec.n
        for step in trace.steps:
            gap /= 2.0
            assert step.upper - step.lower == pytest.approx(gap, rel=1e-12)

    def test_down_branches_certify_sparsity(self, rng):
        spec = random_spec(rng, 25, 9, 3, 0.1)
        _, trace = heuristic_bisection(spec, delta_hat=1e-3)
        for step in trace.steps:
            if step.branch == "down":
                assert step.zeros >= spec.p - spec.k

    def test_rejects_bad_tolerance(self, rng):
        spec = random_spec(rng, 8, 3, 1, 0.1)
        with pytest.raises(InvalidArgumentError):
            heuristic_bisection(spec, delta_hat=0.0)

    @pytest.mark.parametrize("delta_hat", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, rng, delta_hat):
        spec = random_spec(rng, 8, 3, 1, 0.1)
        with pytest.raises(InvalidArgumentError, match="delta_hat"):
            heuristic_bisection(spec, delta_hat=delta_hat)


@st.composite
def path_specs(draw):
    """Random specs with p < n, with p > n, or with a duplicated column."""
    shape = draw(st.sampled_from(["tall", "wide", "tied"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = draw(st.sampled_from([0.02, 0.1, 0.5]))
    if shape == "wide":
        n = draw(st.integers(3, 10))
        p = draw(st.integers(n + 1, 2 * n + 4))
    else:
        p = draw(st.integers(2, 8))
        n = draw(st.integers(p + 2, 3 * p + 4))
    spec = random_spec(rng, n, p, 1, lam)
    if shape == "tied":
        X = spec.X.copy()
        X[:, 1] = X[:, 0]
        spec = ProblemSpec(data=Dataset(X=X, y=spec.y), lam=lam, k=1)
    return spec


def _full_path(spec):
    path = _ElasticNetPath(spec)
    while not path.done:
        path._extend()
    return path


def _correlations(spec, beta):
    return 2.0 * spec.X.T @ (spec.y - spec.X @ beta) / spec.n - 2.0 * spec.lam * beta


def _kkt_violation(spec, beta, gamma):
    c = _correlations(spec, beta)
    on = beta != 0.0
    return max(np.abs(c[on] - gamma * np.sign(beta[on])).max(initial=0.0),
               (np.abs(c[~on]) - gamma).max(initial=0.0))


def _level_between_ends(path, frac):
    return path.levels[-1] + frac * (path.levels[0] - path.levels[-1])


class TestElasticNetPathProperties:
    @PROPERTY
    @given(spec=path_specs(), frac=st.floats(0.0, 1.0))
    def test_breakpoints_and_level_points_meet_kkt(self, spec, frac):
        path = _full_path(spec)
        for j, gamma in enumerate(path.gammas):
            assert _kkt_violation(spec, path.beta(j), gamma) <= 1e-9
        q = _level_between_ends(path, frac)
        beta = path.at_level(q)
        # off zero, every correlation on the support sits at |c| = gamma
        gamma = float(np.abs(_correlations(spec, beta)).max())
        assert _kkt_violation(spec, beta, gamma) <= 1e-9
        assert ridge_objective(spec, beta) <= q + 1e-12 * (1.0 + q)

    @PROPERTY
    @given(spec=path_specs())
    def test_level_points_are_zero_exactly_off_their_path_support(self, spec):
        # a breakpoint's own support at an end, the union of the ends' inside
        path = _full_path(spec)
        for j in range(1, len(path.levels)):
            upper, lower = path.levels[j - 1], path.levels[j]
            if not upper > lower:
                continue
            own = set(path.supports[j].tolist())
            assert set(np.flatnonzero(path.at_level(lower)).tolist()) == own
            inside = 0.5 * (upper + lower)
            if upper > inside > lower:
                union = own | set(path.supports[j - 1].tolist())
                assert set(np.flatnonzero(path.at_level(inside)).tolist()) == union

    @PROPERTY
    @given(spec=path_specs())
    def test_objective_nonincreasing(self, spec):
        levels = np.array(_full_path(spec).levels)
        assert np.all(np.diff(levels) <= 1e-12 * levels[0])

    @PROPERTY
    @given(spec=path_specs(), frac=st.floats(0.0, 1.0))
    def test_matches_coordinate_descent(self, spec, frac):
        path = _full_path(spec)
        gamma = frac * path.gammas[0]
        j = next(i for i, g in enumerate(path.gammas) if g <= gamma)
        if j == 0:
            beta = path.beta(0)
        else:
            g0, g1 = path.gammas[j - 1], path.gammas[j]
            t = (gamma - g1) / (g0 - g1)
            beta = (1.0 - t) * path.beta(j) + t * path.beta(j - 1)
        cd = elastic_net_cd(spec, gamma, tol=1e-12)
        assert beta == pytest.approx(cd, abs=1e-7)

    @settings(PROPERTY, max_examples=10)
    @given(spec=path_specs(), frac=st.floats(0.0, 1.0))
    def test_min_l1_given_level_is_minimal(self, spec, frac):
        q = _level_between_ends(_full_path(spec), frac)
        beta = min_l1_given_level(spec, q)
        assert ridge_objective(spec, beta) <= q + 1e-12 * (1.0 + q)
        oracle_l1 = min_l1_path_scan(spec.X, spec.y, spec.lam, q, points=400)
        assert float(np.abs(beta).sum()) <= oracle_l1 + 1e-6

    def test_carried_correlations_do_not_drift_over_a_long_walk(self):
        # The path carries its correlations from segment to segment; checked
        # here against fresh ones at every breakpoint of a 325-segment walk.
        data = generate_synthetic(SyntheticConfig(n=100, p=300, k_true=5, seed=3))[0]
        spec = ProblemSpec(data=data, lam=0.08, k=5)
        path = _full_path(spec)
        assert len(path.gammas) > 300
        for j, gamma in enumerate(path.gammas):
            assert _kkt_violation(spec, path.beta(j), gamma) <= 1e-9

    def test_tied_features_enter_together(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        path = _full_path(spec)
        assert path.gammas == [1.0, 0.0]
        assert sorted(path.supports[1].tolist()) == [0, 1]
        assert path.beta(1) == pytest.approx([0.5 / 0.6, 0.5 / 0.6], rel=1e-12)


class TestMatchesGammaBisection:
    """The path engine against the former gamma bisection over coordinate descent."""

    def test_same_branches_zeros_and_support(self, rng):
        specs = [identity_pair_spec(lam=0.1, k=1)]
        for n, p in [(20, 8), (25, 10), (30, 6), (15, 12), (8, 12), (10, 16)]:
            specs.append(random_spec(rng, n, p, 3, float(rng.choice([0.05, 0.2]))))
        for spec in specs:
            est, trace = heuristic_bisection(spec, delta_hat=1e-4)
            support, branches, zero_counts = heuristic_gamma_bisection(spec, 1e-4)
            assert [s.branch for s in trace.steps] == branches
            assert [s.zeros for s in trace.steps] == zero_counts
            assert est.support == support
