"""Caller input is refused by one core helper per kind, before any work starts.

Each row names a public argument and the values it must refuse.  Real-valued
arguments get True and a numeric string; counts and feature indices also get
2.5 and values outside their range.  Every refusal is an InvalidArgumentError
raised before a factorization, an eigenvalue call, a rounding draw, a greedy
run or a dataset draw.
"""

import math

import numpy as np
import pytest

from helpers import random_spec
from sparseridge import (
    BigMVector,
    InvalidArgumentError,
    ProblemSpec,
    SparseEstimator,
    SpectralStats,
    SyntheticConfig,
    big_m,
    branch_and_bound,
    brute_force,
    cardinality_bound,
    elastic_net_cd,
    false_alarm_rate,
    greedy_distance_bound,
    min_l1_given_level,
    precision_to_regression,
    project_capped_simplex,
    randomized_round,
    randomized_solve,
    restricted_estimator,
    run_benchmark,
    solve_v1,
    solve_v3,
    solve_v4,
    spectral_stats,
    theta,
    underline_theta,
    waterfill_z,
)
from sparseridge.data_io import _resolve_response
from sparseridge.greedy import GreedyState, marginal_gain

N, P, K = 12, 6, 2
REAL = (True, "0.5")


def count(*out_of_range):
    return (True, "2", 2.5, *out_of_range)


def zhat():
    return np.full(P, K / P)


BOUNDS = BigMVector(M=np.full(P, 10.0), v_upper=10.0, rho=1.0)
# big-M vectors of the wrong length: length 1 would broadcast
SHORT_OR_LONG = (np.full(1, 10.0), np.full(3, 10.0), np.full(P + 1, 10.0))
STATS = SpectralStats(theta={0: 0.0, 1: 1.0, 2: 2.0})


def estimator(*support):
    return SparseEstimator(support, np.zeros(P), 1.0)


CASES = {
    # real-valued arguments
    "branch_and_bound gap_tol": (lambda s, v: branch_and_bound(s, gap_tol=v), REAL),
    "big_m v_upper": (lambda s, v: big_m(s, v_upper=v), REAL),
    "precision_to_regression lam": (lambda s, v: precision_to_regression(np.eye(2), v, 2), REAL),
    "cardinality_bound alpha": (lambda s, v: cardinality_bound(3, v), REAL),
    "randomized_solve alpha": (lambda s, v: randomized_solve(s, zhat(), alpha=v), REAL),
    "min_l1_given_level v_upper": (lambda s, v: min_l1_given_level(s, v), REAL),
    "elastic_net_cd gamma": (lambda s, v: elastic_net_cd(s, v), REAL),
    "elastic_net_cd tol": (lambda s, v: elastic_net_cd(s, 0.1, tol=v), (*REAL, -1.0, math.nan)),
    "project_capped_simplex k": (lambda s, v: project_capped_simplex(zhat(), v), REAL),
    "waterfill_z k": (lambda s, v: waterfill_z(np.ones(P), v), REAL),
    "run_benchmark time_budget": (
        lambda s, v: run_benchmark([{"n": N, "p": P, "k": K}], ["greedy"], reps=1,
                                   time_budget=v), REAL),
    "run_benchmark lam": (
        lambda s, v: run_benchmark([{"n": N, "p": P, "k": K}], ["greedy"], reps=1, lam=v),
        (*REAL, -1.0, 0.0, math.nan, math.inf)),
    "solve_v4 tol": (lambda s, v: solve_v4(s, tol=v), REAL),
    "solve_v1 tol": (lambda s, v: solve_v1(s, BOUNDS, tol=v), REAL),
    # a coefficient range wider than float range, which the draw cannot take
    "SyntheticConfig coef_high": (
        lambda s, v: SyntheticConfig(n=N, p=P, k_true=K, coef_low=-1e308, coef_high=v),
        (*REAL, 1e308, np.finfo(float).max)),
    # counts
    "ProblemSpec k": (lambda s, v: ProblemSpec(data=s.data, lam=0.1, k=v), count(0, N + 1)),
    "theta s": (lambda s, v: theta(s, v), count(0, P + 1)),
    "theta cap": (lambda s, v: theta(s, 1, cap=v), count(-1)),
    "underline_theta cap": (lambda s, v: underline_theta(s, cap=v), count(-1)),
    "spectral_stats cap": (lambda s, v: spectral_stats(s, cap=v), count(-1)),
    "brute_force cap": (lambda s, v: brute_force(s, cap=v), count(-1)),
    "branch_and_bound node_cap": (lambda s, v: branch_and_bound(s, node_cap=v), count(-1)),
    "solve_v4 max_iter": (lambda s, v: solve_v4(s, max_iter=v), count(0)),
    "solve_v1 max_iter": (lambda s, v: solve_v1(s, BOUNDS, max_iter=v), count(0)),
    # big-M bounds, one per feature
    "solve_v1 M": (lambda s, v: solve_v1(s, BigMVector(M=v, v_upper=10.0, rho=1.0)),
                   SHORT_OR_LONG),
    "solve_v3 M": (lambda s, v: solve_v3(s, BigMVector(M=v, v_upper=10.0, rho=1.0)),
                   SHORT_OR_LONG),
    "elastic_net_cd max_sweeps": (lambda s, v: elastic_net_cd(s, 0.1, max_sweeps=v), count(0, -3)),
    "randomized_round seed": (lambda s, v: randomized_round(zhat(), v), count(-1, 2**128)),
    "cardinality_bound k": (lambda s, v: cardinality_bound(v, 0.1), count(0)),
    "randomized_solve trials": (lambda s, v: randomized_solve(s, zhat(), trials=v), count(0)),
    "randomized_solve seed": (lambda s, v: randomized_solve(s, zhat(), seed=v), count(-1)),
    "SyntheticConfig n": (lambda s, v: SyntheticConfig(n=v, p=P, k_true=K), count(0)),
    "SyntheticConfig p": (lambda s, v: SyntheticConfig(n=N, p=v, k_true=1), count(0)),
    "SyntheticConfig k_true": (lambda s, v: SyntheticConfig(n=N, p=P, k_true=v),
                               count(0, P + 1)),
    "SyntheticConfig seed": (lambda s, v: SyntheticConfig(n=N, p=P, k_true=K, seed=v),
                             count(-1)),
    "false_alarm_rate k": (lambda s, v: false_alarm_rate([0], [0], v), count(0)),
    "false_alarm_rate estimated": (lambda s, v: false_alarm_rate([0, v], [0], K), count(-1)),
    "false_alarm_rate truth": (lambda s, v: false_alarm_rate([0], (v, 1), K), count(-1)),
    "run_benchmark seed": (
        lambda s, v: run_benchmark([{"n": N, "p": P, "k": K}], ["greedy"], seed=v), count(-1)),
    "run_benchmark reps": (
        lambda s, v: run_benchmark([{"n": N, "p": P, "k": K}], ["greedy"], reps=v), count(-1)),
    "precision_to_regression k": (lambda s, v: precision_to_regression(np.eye(2), 0.1, v),
                                  count(0, 5)),
    # feature indices, alone and as members of index sets
    "marginal_gain j": (lambda s, v: marginal_gain(GreedyState.initial(s), v), count(-1, P)),
    "GreedyState.select j": (lambda s, v: GreedyState.initial(s).select(v), count(-1, P)),
    "solve_v4 fixed_one": (lambda s, v: solve_v4(s, fixed_one=(v,)), count(-1, P)),
    "solve_v4 fixed_zero": (lambda s, v: solve_v4(s, fixed_zero=(0, v)), count(-1, P)),
    "restricted_estimator S": (lambda s, v: restricted_estimator(s, [v]), count(-1, P)),
    # an estimator's support is ints already, so only the range is left to refuse
    "greedy_distance_bound greedy_est": (
        lambda s, v: greedy_distance_bound(s, STATS, estimator(0, v), estimator(0)), (-1, P)),
    "greedy_distance_bound optimal_est": (
        lambda s, v: greedy_distance_bound(s, STATS, estimator(0), estimator(0, v)), (-1, P)),
    # a digit string is how the command line names a column, so no text here
    "response column": (lambda s, v: _resolve_response(v, 3, None), (True, 2.5, -4, 3)),
}


@pytest.fixture
def no_work(monkeypatch):
    """Every factorization, big-M eigenvalue call, rounding draw, greedy run and
    benchmark dataset draw fails the test."""
    def work(*args, **kwargs):
        raise AssertionError("work began before the input was checked")

    for target in ("sparseridge.core.cholesky", "sparseridge.relaxation.eigvalsh",
                   "sparseridge.randomized._keyed_uniforms", "sparseridge.exact.greedy_select",
                   "sparseridge.bench.generate_synthetic"):
        monkeypatch.setattr(target, work)


@pytest.mark.parametrize("case, value", [(case, value) for case, (_, values) in CASES.items()
                                         for value in values],
                         ids=lambda x: x if isinstance(x, str) and " " in x else repr(x))
def test_refused_before_any_work(case, value, no_work):
    spec = random_spec(np.random.default_rng(0), N, P, K, 0.1)
    with pytest.raises(InvalidArgumentError):
        CASES[case][0](spec, value)


def test_refused_candidate_leaves_greedy_state_unchanged():
    spec = random_spec(np.random.default_rng(0), N, P, K, 0.1)
    state = GreedyState.initial(spec)
    state.select(1)
    before = {name: np.copy(value) for name, value in vars(state).items() if name != "spec"}
    for j in (2.7, True, "2", P, -1, 1):  # 1 is already selected
        with pytest.raises(InvalidArgumentError):
            state.select(j)
    for name, value in before.items():
        assert np.array_equal(getattr(state, name), value), name
