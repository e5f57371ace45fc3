"""Caller input is refused by one core helper per kind, before any work starts.

Each row names a public argument and the values it must refuse.  Real-valued
arguments get True and a numeric string, and those with a range NaN too;
counts and feature indices also get 2.5 and values outside their range;
boolean options get text, an int, None and a float, since only bool and
np.bool_ are flags.  Array arguments (fractional selections, warm starts,
coefficient vectors, big-M bounds) get a NaN and an inf entry, a wrong length
where the length is fixed, a 2-D array and a 0-d scalar; they and the
matrices (a dataset's X and y, a covariance or precision matrix) also get
complex, text and object arrays, while bool arrays pass.  Every refusal is an
InvalidArgumentError raised before a factorization, an eigenvalue call, a
projection or budget search, a rounding draw, a greedy run or a dataset draw.
"""

import math
import os

import numpy as np
import pytest

from helpers import random_spec
from sparseridge import (
    BigMVector,
    Dataset,
    InvalidArgumentError,
    ProblemSpec,
    SparseEstimator,
    SpectralStats,
    SyntheticConfig,
    big_m,
    branch_and_bound,
    brute_force,
    cardinality_bound,
    decode_omega,
    elastic_net_cd,
    encode_omega,
    false_alarm_rate,
    fit,
    gcv_select,
    greedy_distance_bound,
    mic_value,
    min_l1_given_level,
    precision_to_regression,
    project_capped_simplex,
    randomized_round,
    randomized_solve,
    restricted_estimator,
    restricted_greedy,
    ridge_objective,
    run_benchmark,
    solve_v1,
    solve_v3,
    solve_v4,
    spectral_stats,
    theta,
    underline_theta,
    value_and_gradient,
    waterfill_z,
)
from sparseridge.data_io import _resolve_response, load_dataset_csv, save_dataset_csv
from sparseridge.greedy import GreedyState, marginal_gain

N, P, K = 12, 6, 2
REAL = (True, "0.5")
FLAG = ("no", 2, None, 1.0)
# a file in a directory that does not exist: opening it for reading or writing fails
MISSING = os.path.join(os.path.dirname(__file__), "no-such-directory", "data.csv")


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
    "branch_and_bound gap_tol": (lambda s, v: branch_and_bound(s, gap_tol=v), (*REAL, math.nan)),
    "big_m v_upper": (lambda s, v: big_m(s, v_upper=v), (*REAL, math.nan)),
    "precision_to_regression lam": (lambda s, v: precision_to_regression(np.eye(2), v, 2), REAL),
    "cardinality_bound alpha": (lambda s, v: cardinality_bound(3, v), (*REAL, math.nan)),
    "randomized_solve alpha": (lambda s, v: randomized_solve(s, zhat(), alpha=v),
                               (*REAL, math.nan)),
    "min_l1_given_level v_upper": (lambda s, v: min_l1_given_level(s, v), (*REAL, math.nan)),
    "elastic_net_cd gamma": (lambda s, v: elastic_net_cd(s, v), (*REAL, math.nan)),
    "elastic_net_cd tol": (lambda s, v: elastic_net_cd(s, 0.1, tol=v), (*REAL, -1.0, math.nan)),
    "project_capped_simplex k": (lambda s, v: project_capped_simplex(zhat(), v), REAL),
    "waterfill_z k": (lambda s, v: waterfill_z(np.ones(P), v), REAL),
    "run_benchmark time_budget": (
        lambda s, v: run_benchmark([{"n": N, "p": P, "k": K}], ["greedy"], reps=1,
                                   time_budget=v), (*REAL, math.nan)),
    "run_benchmark lam": (
        lambda s, v: run_benchmark([{"n": N, "p": P, "k": K}], ["greedy"], reps=1, lam=v),
        (*REAL, -1.0, 0.0, math.nan, math.inf)),
    "solve_v4 tol": (lambda s, v: solve_v4(s, tol=v), REAL),
    "solve_v1 tol": (lambda s, v: solve_v1(s, BOUNDS, tol=v), REAL),
    # a coefficient range wider than float range, which the draw cannot take
    "SyntheticConfig coef_high": (
        lambda s, v: SyntheticConfig(n=N, p=P, k_true=K, coef_low=-1e308, coef_high=v),
        (*REAL, 1e308, np.finfo(float).max, math.nan)),
    "SyntheticConfig coef_low": (
        lambda s, v: SyntheticConfig(n=N, p=P, k_true=K, coef_low=v), (math.nan, -math.inf)),
    "SyntheticConfig min_signal": (
        lambda s, v: SyntheticConfig(n=N, p=P, k_true=K, min_signal=v), (math.nan, math.inf)),
    "SyntheticConfig rho": (lambda s, v: SyntheticConfig(n=N, p=P, k_true=K, rho=v), (math.nan,)),
    # an empty coefficient range
    "SyntheticConfig coef_low = coef_high": (
        lambda s, v: SyntheticConfig(n=N, p=P, k_true=K, coef_low=v, coef_high=v), (1.0,)),
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
    "randomized_round counter": (lambda s, v: randomized_round(zhat(), 0, counter=v),
                                 (-1, 2**256, 2.5, True)),
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
    # the cell list and the method list, and the names in it
    "run_benchmark cells": (
        lambda s, v: run_benchmark(v, ["greedy"], reps=1), (5, None, {"n": N, "p": P, "k": K})),
    "run_benchmark methods": (
        lambda s, v: run_benchmark([{"n": N, "p": P, "k": K}], v, reps=1),
        (7, None, "greedy", {"greedy": {}}, [["greedy"]], [{"a": 1}], [5, "greedy"])),
    "precision_to_regression k": (lambda s, v: precision_to_regression(np.eye(2), 0.1, v),
                                  count(0, 5)),
    # feature indices, alone and as members of index sets
    "marginal_gain j": (lambda s, v: marginal_gain(GreedyState.initial(s), v), count(-1, P)),
    "GreedyState.select j": (lambda s, v: GreedyState.initial(s).select(v), count(-1, P)),
    "solve_v4 fixed_one": (lambda s, v: solve_v4(s, fixed_one=(v,)), count(-1, P)),
    "solve_v4 fixed_zero": (lambda s, v: solve_v4(s, fixed_zero=(0, v)), count(-1, P)),
    "restricted_estimator S": (lambda s, v: restricted_estimator(s, [v]), count(-1, P)),
    "mic_value z": (lambda s, v: mic_value(s, [1, v]), count(-1, P)),
    # an estimator's support is ints already, so only the range is left to refuse
    "greedy_distance_bound greedy_est": (
        lambda s, v: greedy_distance_bound(s, STATS, estimator(0, v), estimator(0)), (-1, P)),
    "greedy_distance_bound optimal_est": (
        lambda s, v: greedy_distance_bound(s, STATS, estimator(0), estimator(0, v)), (-1, P)),
    # names and shapes: a mode, a method, a grid, and matrices that are not 2-D,
    # have no column, are not square or are not finite
    "theta mode": (lambda s, v: theta(s, 1, mode=v), ("bogus",)),
    "fit method": (lambda s, v: fit(s, v), ("nope",)),
    "gcv_select grid": (lambda s, v: gcv_select(s.data, K, v), ([], ())),
    "Dataset X shape": (lambda s, v: Dataset(X=v, y=np.zeros(N)), (np.ones(N), np.ones((N, 0)))),
    "precision_to_regression sigma_hat shape": (
        lambda s, v: precision_to_regression(v, 0.1, 2),
        (np.ones((2, 3)), np.ones(4), np.array([[1.0, math.nan], [math.nan, 1.0]]),
         np.diag([1.0, math.inf]))),
    "encode_omega omega shape": (lambda s, v: encode_omega(v), (np.ones((2, 3)), np.ones(4))),
    # boolean options
    "randomized_solve repair": (lambda s, v: randomized_solve(s, zhat(), repair=v), FLAG),
    "save_dataset_csv header": (lambda s, v: save_dataset_csv(s.data, MISSING, header=v), FLAG),
    "load_dataset_csv header": (lambda s, v: load_dataset_csv(MISSING, header=v), FLAG),
    "SyntheticConfig resample_small": (
        lambda s, v: SyntheticConfig(n=N, p=P, k_true=K, resample_small=v), FLAG),
    # a digit string is how the command line names a column, so no text here
    "response column": (lambda s, v: _resolve_response(v, 3, None), (True, 2.5, -4, 3)),
}


@pytest.fixture
def no_work(monkeypatch):
    """Every factorization, big-M eigenvalue call, projection or budget search,
    rounding draw, greedy run and benchmark dataset draw fails the test."""
    def work(*args, **kwargs):
        raise AssertionError("work began before the input was checked")

    for target in ("sparseridge.core.cholesky", "sparseridge.relaxation.eigvalsh",
                   "sparseridge.relaxation._project", "sparseridge.relaxation._fill_budget",
                   "sparseridge.randomized._draw", "sparseridge.exact.greedy_select",
                   "sparseridge.bench.generate_synthetic"):
        monkeypatch.setattr(target, work)


@pytest.mark.parametrize("case, value", [(case, value) for case, (_, values) in CASES.items()
                                         for value in values],
                         ids=lambda x: x if isinstance(x, str) and " " in x else repr(x))
def test_refused_before_any_work(case, value, no_work):
    spec = random_spec(np.random.default_rng(0), N, P, K, 0.1)
    with pytest.raises(InvalidArgumentError):
        CASES[case][0](spec, value)


# array arguments: (call, a valid value, whether its length is fixed)
VECTORS = {
    "ridge_objective beta": (lambda s, v: ridge_objective(s, v), np.zeros(P), True),
    "restricted_greedy zhat": (lambda s, v: restricted_greedy(s, v), zhat(), True),
    "randomized_solve zhat": (lambda s, v: randomized_solve(s, v), zhat(), True),
    "randomized_round zhat": (lambda s, v: randomized_round(v, 0), zhat(), False),
    "project_capped_simplex v": (lambda s, v: project_capped_simplex(v, 1.0), zhat(), False),
    "waterfill_z beta": (lambda s, v: waterfill_z(v, 1.0), np.ones(P), False),
    "waterfill_z lower": (lambda s, v: waterfill_z(np.ones(P), 1.0, lower=v), np.zeros(P), True),
    "value_and_gradient z": (lambda s, v: value_and_gradient(s, v), zhat(), True),
    "solve_v4 z0": (lambda s, v: solve_v4(s, z0=v), zhat(), True),
    "solve_v1 M": (lambda s, v: solve_v1(s, BigMVector(M=v, v_upper=10.0, rho=1.0)),
                   np.full(P, 10.0), True),
    "solve_v3 M": (lambda s, v: solve_v3(s, BigMVector(M=v, v_upper=10.0, rho=1.0)),
                   np.full(P, 10.0), True),
    "decode_omega beta": (
        lambda s, v: decode_omega(v, precision_to_regression(np.eye(2), 0.1, 2)), np.zeros(4),
        True),
    "elastic_net_cd beta0": (lambda s, v: elastic_net_cd(s, 0.1, beta0=v), np.zeros(P), True),
}


def refused(good, fixed):
    """(kind, value) for each value an array argument whose valid value is
    ``good`` must refuse."""
    nan, inf = good.copy(), good.copy()
    nan[0], inf[-1] = math.nan, math.inf
    wrong_length = [("wrong length", good[:-1])] if fixed else []
    return [("nan", nan), ("inf", inf), *wrong_length, ("2-D", good[None, :]),
            ("0-d", good[0])]


@pytest.mark.parametrize("case, kind", [(case, kind) for case, (_, good, fixed) in VECTORS.items()
                                        for kind, _ in refused(good, fixed)])
def test_vector_refused_before_any_work(case, kind, no_work):
    spec = random_spec(np.random.default_rng(0), N, P, K, 0.1)
    call, good, fixed = VECTORS[case]
    with pytest.raises(InvalidArgumentError):
        call(spec, dict(refused(good, fixed))[kind])


# every array argument, with a valid value of its shape: the vectors above and the matrices
REAL_ARRAYS = {
    **{case: (call, good) for case, (call, good, _) in VECTORS.items()},
    "Dataset X": (lambda s, v: Dataset(X=v, y=np.zeros(N)), np.ones((N, P))),
    "Dataset y": (lambda s, v: Dataset(X=s.X, y=v), np.zeros(N)),
    "precision_to_regression sigma_hat": (lambda s, v: precision_to_regression(v, 0.1, 2),
                                          np.eye(2)),
    "encode_omega omega": (lambda s, v: encode_omega(v), np.eye(2)),
    "mic_value z": (lambda s, v: mic_value(s, v), (np.arange(P) < K).astype(float)),
}


def non_real(good):
    """(kind, value) for each array an argument whose valid value is ``good`` must
    refuse by its dtype: complex, text and object entries, and one dict entry."""
    entry = good.astype(object)
    entry.flat[0] = {}
    return [("complex", good + 1j), ("text", good.astype(str)),
            ("object", good.astype(object)), ("dict entry", entry)]


@pytest.mark.parametrize("case, kind", [(case, kind) for case, (_, good) in REAL_ARRAYS.items()
                                        for kind, _ in non_real(good)])
def test_non_real_array_refused_before_any_work(case, kind, no_work):
    # numpy would keep the real part of a complex array and parse the text
    spec = random_spec(np.random.default_rng(0), N, P, K, 0.1)
    call, good = REAL_ARRAYS[case]
    with pytest.raises(InvalidArgumentError, match="must hold real numbers"):
        call(spec, dict(non_real(good))[kind])


def test_bool_arrays_pass_as_zeros_and_ones():
    spec = random_spec(np.random.default_rng(0), N, P, K, 0.1)
    mask = np.arange(P) % 2 == 0
    assert ridge_objective(spec, mask) == ridge_objective(spec, mask.astype(float))
    data = Dataset(X=spec.X > 0.0, y=spec.y > 0.0)
    assert np.array_equal(data.X, (spec.X > 0.0).astype(float))
    assert np.array_equal(data.y, (spec.y > 0.0).astype(float))


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
