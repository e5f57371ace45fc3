"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from helpers import identity_pair_spec, random_spec
from oracles import finite_difference_gradient, perspective_alternating
from sparseridge import (
    BigMVector,
    ProblemSpec,
    SyntheticConfig,
    big_m,
    branch_and_bound,
    brute_force,
    decode_omega,
    encode_omega,
    fit,
    generate_synthetic,
    greedy_distance_bound,
    greedy_ratio_bound,
    greedy_select,
    heuristic_bisection,
    precision_to_regression,
    randomized_round,
    run_benchmark,
    solve_v1,
    solve_v2_perspective,
    solve_v3,
    solve_v4,
    spectral_stats,
    value_and_gradient,
)
from sparseridge.greedy import GreedyState


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _relaxation_corpus(count: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(6, 31))
        p = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(5, min(n, p) + 1)))
        lam = float(rng.choice([0.01, 0.1, 1.0]))
        out.append(random_spec(rng, n, p, k, lam, signal=bool(rng.random() < 0.5)))
    return out


def test_criterion_01_worked_example_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.05, 0.1, 0.2):
        spec = identity_pair_spec(lam=lam, k=1)
        v_star = lam / (1 + 2 * lam) + 0.5
        worst = max(worst, abs(brute_force(spec).objective - v_star))
        v_persp = 4 * lam / (1 + 4 * lam)
        worst = max(worst, abs(solve_v4(spec).value - v_persp))
        worst = max(worst, abs(solve_v2_perspective(spec).value - v_persp))
        M = BigMVector(M=np.full(2, math.sqrt(1 / lam)), v_upper=1.0, rho=0.0)
        worst = max(worst, abs(solve_v1(spec, M).value - 2 * lam / (1 + 2 * lam)))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (worked-example exactness)",
        worst <= 1e-6 and elapsed < 1.0,
        f"max deviation {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_relaxation_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    all_converged = True
    for spec in _relaxation_corpus(50, seed=101):
        v4 = solve_v4(spec)
        v2 = perspective_alternating(spec)
        all_converged &= v4.converged and v2.converged
        if v4.converged and v2.converged:
            worst = max(worst, abs(v2.value - v4.value) / (1 + v4.value))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (relaxation equivalence)",
        worst <= 1e-5 and all_converged and elapsed < 120.0,
        f"worst relative gap {worst:.2e}, all converged {all_converged}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_relaxation_ordering():
    worst = -math.inf
    for spec in _relaxation_corpus(50, seed=101):
        M = big_m(spec)
        v1 = solve_v1(spec, M).value
        v2 = solve_v2_perspective(spec).value
        v3 = solve_v3(spec, M).value
        v4 = solve_v4(spec).value
        v_star = brute_force(spec).objective
        worst = max(
            worst,
            v1 - v3,
            v2 - v3,
            max(v1, v2, v3, v4) - v_star,
        )
    _report(
        "criterion 3 (relaxation ordering)",
        worst <= 1e-6,
        f"worst ordering violation {worst:.2e}",
    )


def test_criterion_04_greedy_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_ratio = 0.0
    worst_dist = -math.inf
    for _ in range(30):
        n = int(rng.integers(10, 26))
        p = int(rng.integers(5, 11))
        k = int(rng.integers(1, 4))
        lam = float(rng.choice([0.05, 0.1, 0.5, 1.0]))
        spec = random_spec(rng, n, p, k, lam)
        est, _ = greedy_select(spec)
        star = brute_force(spec)
        stats = spectral_stats(spec)
        bound = greedy_ratio_bound(spec, stats)
        assert star.objective <= est.objective + 1e-10
        worst_ratio = max(worst_ratio, est.objective - bound * star.objective)
        d_bound = greedy_distance_bound(spec, stats, est, star)
        dist = float(np.linalg.norm(est.beta - star.beta))
        worst_dist = max(worst_dist, dist - d_bound)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (greedy guarantee)",
        worst_ratio <= 1e-10 and worst_dist <= 1e-10 and elapsed < 300.0,
        f"ratio slack {worst_ratio:.2e}, distance slack {worst_dist:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_05_incremental_update_exactness():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 51))
        p = int(rng.integers(10, 101))
        k = int(rng.integers(2, min(9, min(n, p) + 1)))
        lam = float(rng.choice([0.05, 0.2, 1.0]))
        spec = random_spec(rng, n, p, k, lam)
        state = GreedyState.initial(spec)
        _, trace = greedy_select(spec)
        for step in trace.steps:
            state.select(step.chosen)
            A = spec.n * spec.lam * np.eye(n)
            cols = spec.X[:, state.selected]
            A += cols @ cols.T
            Ainv = np.linalg.inv(A)
            worst = max(worst, float(np.abs(state.inv_products - Ainv @ spec.X).max()))
            worst = max(worst, float(np.abs(
                state.quad_terms - np.sum(spec.X * (Ainv @ spec.X), axis=0)
            ).max()))
            worst = max(worst, float(np.abs(
                state.cross_terms - spec.y @ Ainv @ spec.X
            ).max()))
    _report(
        "criterion 5 (incremental update exactness)",
        worst <= 1e-8,
        f"worst deviation from the fresh inverse {worst:.2e}",
    )


def test_criterion_06_bisection_contract():
    rng = np.random.default_rng(606)
    ok = True
    details = []
    for _ in range(12):
        n = int(rng.integers(10, 31))
        p = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        spec = random_spec(rng, n, p, k, float(rng.choice([0.05, 0.2])))
        delta = float(rng.choice([1e-2, 1e-3, 1e-4]))
        est, trace = heuristic_bisection(spec, delta_hat=delta)
        yy = float(spec.y @ spec.y)
        bound = math.floor(math.log2(yy / (spec.n * delta))) + 1
        star = brute_force(spec)
        ok &= trace.iterations <= bound
        ok &= est.cardinality <= spec.k
        ok &= trace.final_value >= star.objective - 1e-9
        details.append((trace.iterations, bound))
    _report(
        "criterion 6 (bisection contract)",
        ok,
        f"iterations vs bounds {details[:4]}... all feasible, all >= optimum",
    )


def test_criterion_07_rounding_statistics():
    rng = np.random.default_rng(707)
    trials = 10**4
    ok = True
    details = []
    for _ in range(5):
        n = int(rng.integers(10, 21))
        p = int(rng.integers(8, 16))
        k = int(rng.integers(2, 6))
        spec = random_spec(rng, n, p, k, 0.1)
        zhat = solve_v2_perspective(spec).z
        cards = np.empty(trials)
        for t in range(trials):
            _, z = randomized_round(zhat, 707000 + t)
            cards[t] = z.sum()
        sigma = math.sqrt(float(np.sum(zhat * (1 - zhat))) / trials)
        mean_ok = abs(cards.mean() - zhat.sum()) <= 3 * sigma
        ok &= mean_ok
        for alpha in (0.1, 0.3):
            bound = (1 + math.sqrt(3 * math.log(2 / alpha) / spec.k)) * spec.k
            freq = float(np.mean(cards > bound))
            slack = 3 * math.sqrt((alpha / 2) * (1 - alpha / 2) / trials)
            ok &= freq <= alpha / 2 + slack
            details.append(round(freq, 4))
    _report(
        "criterion 7 (rounding statistics)",
        ok,
        f"exceed frequencies {details} all within the level+slack",
    )


def test_criterion_08_coefficient_bound_validity():
    rng = np.random.default_rng(808)
    worst = -math.inf
    for _ in range(30):
        n = int(rng.integers(10, 26))
        p = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        lam = float(rng.choice([0.05, 0.2, 1.0]))
        spec = random_spec(rng, n, p, k, lam, signal=bool(rng.random() < 0.5))
        M = big_m(spec)
        star = brute_force(spec)
        worst = max(worst, float(np.max(np.abs(star.beta) - M.M)))
    _report(
        "criterion 8 (coefficient bound validity)",
        worst <= 1e-12,
        f"worst |beta*| - M excess {worst:.2e}",
    )


def test_criterion_09_tree_search_exactness():
    rng = np.random.default_rng(909)
    worst_rel = 0.0
    worst_gap = 0.0
    worst_root = 0.0
    for _ in range(10):
        n = int(rng.integers(10, 21))
        p = int(rng.integers(8, 15))
        k = int(rng.integers(2, 5))
        lam = float(rng.choice([0.05, 0.2, 1.0]))
        spec = random_spec(rng, n, p, k, lam)
        res = branch_and_bound(spec)
        star = brute_force(spec)
        assert res.optimal
        worst_rel = max(
            worst_rel,
            abs(res.estimator.objective - star.objective) / star.objective,
        )
        worst_gap = max(worst_gap, res.final_gap)
        v4 = solve_v4(spec).value
        worst_root = max(worst_root, abs(res.root_bound - v4) / (1 + v4))
    _report(
        "criterion 9 (tree-search exactness)",
        worst_rel <= 1e-6 and worst_gap <= 1e-6 and worst_root <= 1e-6,
        f"worst relative error {worst_rel:.2e}, gap {worst_gap:.2e}, "
        f"root-vs-relaxation {worst_root:.2e}",
    )


def test_criterion_10_scaled_experimental_trend():
    cells = [{"n": 100, "p": 200, "k": 10}, {"n": 1000, "p": 200, "k": 10}]
    report = run_benchmark(cells, ["greedy"], reps=10, seed=2026, lam=0.08)
    rates = {a["n"]: a["mean_false_alarm"] for a in report.aggregates()}
    trend_ok = rates[1000] <= rates[100] and rates[1000] <= 10.0

    config = SyntheticConfig(n=1000, p=1000, k_true=20, seed=99)
    data, _, _, _ = generate_synthetic(config)
    spec = ProblemSpec(data=data, lam=0.08, k=20)
    t0 = time.perf_counter()
    fit(spec, "greedy")
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 10 (scaled experimental trend)",
        trend_ok and elapsed <= 30.0,
        f"false alarm {rates[100]:.1f}% @n=100 -> {rates[1000]:.1f}% @n=1000; "
        f"greedy n=p=1000,k=20 took {elapsed:.2f}s",
    )


def test_criterion_11_gradient_check():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(8, 21))
        p = int(rng.integers(4, 10))
        k = int(rng.integers(1, min(5, p) + 1))
        spec = random_spec(rng, n, p, k, float(rng.choice([0.05, 0.3, 1.0])))

        def f(z, spec=spec):
            return value_and_gradient(spec, z)[0]

        for _ in range(20):
            z = rng.uniform(0.05, 0.95, size=spec.p)
            _, grad = value_and_gradient(spec, z)
            fd = finite_difference_gradient(f, z, h=1e-5)
            rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
            worst = max(worst, rel)
    _report(
        "criterion 11 (gradient check)",
        worst <= 1e-4,
        f"worst relative error vs central differences {worst:.2e}",
    )


def test_criterion_12_precision_identity():
    rng = np.random.default_rng(121)
    worst = 0.0
    cards_ok = True
    for _ in range(20):
        t = int(rng.integers(2, 7))
        A = rng.standard_normal((t, t))
        sigma = A @ A.T + t * np.eye(t)
        k = int(rng.integers(1, t * t + 1))
        mapping = precision_to_regression(sigma, lam=0.3, k=k)
        omega = rng.standard_normal((t, t))
        beta = encode_omega(omega)
        lhs = float(np.sum((np.eye(t) - sigma @ omega) ** 2))
        rhs = float(np.sum((mapping.spec.y - mapping.spec.X @ beta) ** 2))
        worst = max(worst, abs(lhs - rhs))
        worst = max(
            worst, abs(float(np.sum(omega**2)) - float(beta @ beta))
        )
        est = fit(mapping.spec, "greedy")
        decoded = decode_omega(est.beta, mapping)
        cards_ok &= np.count_nonzero(decoded) <= k
    _report(
        "criterion 12 (precision-matrix identity)",
        worst <= 1e-10 and cards_ok,
        f"worst identity residual {worst:.2e}, decoded sparsity within budget "
        f"{cards_ok}",
    )
