import math

import numpy as np
import pytest

from sparseridge import (
    InvalidArgumentError,
    ProblemSpec,
    SyntheticConfig,
    false_alarm_rate,
    fit,
    generate_synthetic,
    run_benchmark,
    solve_v2_perspective,
)
from sparseridge.bench import dataset_seed


class TestGenerator:
    def test_independent_features_when_rho_zero(self):
        config = SyntheticConfig(n=2000, p=6, k_true=2, rho=0.0, seed=4)
        data, _, _, _ = generate_synthetic(config)
        cov = np.cov(data.X, rowvar=False)
        off = np.abs(cov[~np.eye(6, dtype=bool)])
        assert off.mean() <= 3.0 / np.sqrt(2000)

    def test_empirical_snr_near_target(self):
        config = SyntheticConfig(n=5000, p=10, k_true=3, snr=9.0, seed=7)
        data, beta0, _, sigma_sq = generate_synthetic(config)
        signal = data.X @ beta0
        noise = data.y - signal
        ratio = float(np.var(signal) / np.var(noise))
        assert 7.5 <= ratio <= 10.8

    def test_deterministic_given_seed(self):
        config = SyntheticConfig(n=50, p=8, k_true=3, seed=123)
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[0].y, b[0].y)
        assert np.array_equal(a[1], b[1])
        assert a[3] == b[3]

    @pytest.mark.parametrize("n, p, k", [(300, 1500, 15), (60, 120, 6), (50, 30, 4),
                                         (1, 4, 2), (5, 1, 1)])
    def test_draw_matches_the_two_array_recursion(self, n, p, k):
        # The recursion runs in place on the draw; it must give, bit for bit, the
        # dataset of drawing Z and then filling a second array.  Products with
        # rho = 0.5 are exact, so only the other rhos would expose a fused or
        # reordered multiply-add.
        for rho in (0.5, 0.0, -0.7, 0.95):
            config = SyntheticConfig(n=n, p=p, k_true=k, rho=rho, seed=3)
            data, beta0, _, sigma_sq = generate_synthetic(config)
            rng = np.random.default_rng(config.seed)
            Z = rng.standard_normal((n, p))
            X = np.empty((n, p))
            X[:, 0] = Z[:, 0]
            scale = np.sqrt(1.0 - config.rho**2)
            for j in range(1, p):
                X[:, j] = config.rho * X[:, j - 1] + scale * Z[:, j]
            assert data.X.tobytes() == X.tobytes(), rho
            assert not data.X.flags.writeable
            # the later draws follow X's, so y, beta and sigma^2 must match too
            coefs = rng.uniform(config.coef_low, config.coef_high, size=k)
            while (small := np.abs(coefs) < config.min_signal).any():
                coefs[small] = rng.uniform(config.coef_low, config.coef_high,
                                           size=int(small.sum()))
            ii = np.arange(k)
            ref_sigma_sq = float(coefs @ rho ** np.abs(ii[:, None] - ii) @ coefs) / config.snr
            ref_beta = np.zeros(p)
            ref_beta[:k] = coefs
            ref_y = X @ ref_beta + rng.normal(0.0, np.sqrt(ref_sigma_sq), size=n)
            assert beta0.tobytes() == ref_beta.tobytes(), rho
            assert sigma_sq == ref_sigma_sq, rho
            assert data.y.tobytes() == ref_y.tobytes(), rho

    def test_banded_correlation_structure(self):
        config = SyntheticConfig(n=20000, p=5, k_true=2, rho=0.5, seed=9)
        data, _, _, _ = generate_synthetic(config)
        cov = np.cov(data.X, rowvar=False)
        for lag in (1, 2):
            expected = 0.5**lag
            observed = np.mean([cov[i, i + lag] for i in range(5 - lag)])
            assert observed == pytest.approx(expected, abs=0.05)

    def test_small_coefficients_resampled(self):
        config = SyntheticConfig(n=30, p=10, k_true=5, seed=2)
        _, beta0, support, _ = generate_synthetic(config)
        assert np.all(np.abs(beta0[list(support)]) >= config.min_signal)
        config_raw = SyntheticConfig(
            n=30, p=10, k_true=5, seed=2, resample_small=False
        )
        _, beta_raw, _, _ = generate_synthetic(config_raw)
        assert beta_raw is not None  # flag-disableable path works

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticConfig(n=10, p=5, k_true=6)
        with pytest.raises(InvalidArgumentError):
            SyntheticConfig(n=10, p=5, k_true=2, rho=1.0)
        with pytest.raises(InvalidArgumentError):
            SyntheticConfig(n=10, p=5, k_true=2, snr=0.0)

    def test_seed_beyond_float_range_accepted(self):
        # NumPy seeds take any non-negative int
        config = SyntheticConfig(n=6, p=4, k_true=2, seed=10**400)
        assert config.seed == 10**400
        a, b = generate_synthetic(config)[0], generate_synthetic(config)[0]
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("field, value, match", [
        ("n", 5.5, "n must be an integer"),
        ("p", float("nan"), "p must be an integer"),
        ("k_true", "2", "k_true must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.5, "seed must be an integer"),
        ("snr", float("nan"), "snr"),
        ("snr", float("inf"), "snr"),
        ("min_signal", float("nan"), "finite"),
        ("coef_low", float("-inf"), "finite"),
        ("coef_high", float("inf"), "finite"),
        ("snr", "9", "snr must be a real number"),
        ("snr", True, "snr must be a real number"),
        ("rho", "0.5", "rho must be a real number"),
        ("coef_low", True, "coef_low must be a real number"),
        ("coef_high", "3", "coef_high must be a real number"),
        ("min_signal", "0.1", "min_signal must be a real number"),
    ])
    def test_bad_field_rejected(self, field, value, match):
        with pytest.raises(InvalidArgumentError, match=match):
            SyntheticConfig(**{"n": 10, "p": 5, "k_true": 2, field: value})

    def test_integral_floats_become_ints(self):
        config = SyntheticConfig(n=10.0, p=np.int64(5), k_true=2, seed=3.0)
        assert [type(v) for v in (config.n, config.p, config.seed)] == [int, int, int]
        assert generate_synthetic(config)[0].X.shape == (10, 5)

    @pytest.mark.parametrize("low, high", [(-1.0, 1.0), (-2.0, 2.0), (0.5, 1.5)])
    def test_unreachable_min_signal_rejected(self, low, high):
        # Every draw would have |coef| < min_signal, so resampling would never end.
        kw = dict(n=5, p=4, k_true=2, coef_low=low, coef_high=high, min_signal=2.0)
        with pytest.raises(InvalidArgumentError, match="min_signal"):
            SyntheticConfig(**kw)
        _, beta0, _, _ = generate_synthetic(SyntheticConfig(**kw, resample_small=False))
        assert np.all((low <= beta0[:2]) & (beta0[:2] < high))

    @pytest.mark.parametrize("low, high, snr", [(-1e200, 1e200, 9.0), (-3.0, 3.0, 1e-320)])
    def test_infinite_noise_variance_refused(self, low, high, snr):
        # beta^T Sigma beta / snr overflows; refused before the noise draw, with no
        # RuntimeWarning (the test configuration turns one into an error)
        config = SyntheticConfig(n=5, p=4, k_true=2, coef_low=low, coef_high=high, snr=snr)
        with pytest.raises(InvalidArgumentError, match=r"snr = .*\[coef_low, coef_high\]"):
            generate_synthetic(config)

    def test_range_reaching_past_min_signal_accepted(self):
        config = SyntheticConfig(n=5, p=4, k_true=2, coef_low=-1.0, coef_high=2.5,
                                 min_signal=2.0, seed=1)
        _, beta0, _, _ = generate_synthetic(config)
        assert np.all(np.abs(beta0[:2]) >= 2.0)


class TestFalseAlarm:
    def test_perfect_selection(self):
        assert false_alarm_rate({0, 1, 2}, {0, 1, 2}, 3) == 0.0

    def test_fully_wrong_selection(self):
        assert false_alarm_rate({5, 6, 7}, {0, 1, 2}, 3) == 100.0

    def test_partial(self):
        est = set(range(10))
        truth = set(range(8)) | {20, 30}
        assert false_alarm_rate(est, truth, 10) == pytest.approx(20.0)

    def test_requires_positive_budget(self):
        with pytest.raises(InvalidArgumentError):
            false_alarm_rate({0}, {0}, 0)

    def test_numpy_indices_accepted(self):
        assert false_alarm_rate(np.array([0, 3]), (np.int64(0), 1.0), 2) == 50.0


class TestBenchmark:
    def test_text_rho_rejected(self):
        with pytest.raises(InvalidArgumentError, match="rho must be a real number"):
            run_benchmark([{"n": 10, "p": 5, "k": 2}], ["greedy"], reps=1, rho="0.5")

    def test_harness_transparency(self):
        cells = [{"n": 30, "p": 10, "k": 3}]
        report = run_benchmark(cells, ["greedy"], reps=1, seed=5, lam=0.1)
        assert len(report.records) == 1
        rec = report.records[0]
        config = SyntheticConfig(n=30, p=10, k_true=3, seed=rec.seed)
        data, _, truth, _ = generate_synthetic(config)
        spec = ProblemSpec(data=data, lam=0.1, k=3)
        standalone = fit(spec, "greedy")
        assert rec.objective == pytest.approx(standalone.objective, rel=1e-12)
        assert rec.false_alarm == pytest.approx(
            false_alarm_rate(standalone.support, truth, 3)
        )
        assert rec.seed == dataset_seed(5, 0, 0)

    def test_methods_share_datasets_and_order(self):
        cells = [{"n": 25, "p": 8, "k": 2}]
        report = run_benchmark(
            cells, ["brute", "greedy", "heuristic"], reps=2, seed=1, lam=0.1
        )
        assert len(report.records) == 6
        by_rep = {}
        for rec in report.records:
            by_rep.setdefault(rec.rep, {})[rec.method] = rec
        for rep, recs in by_rep.items():
            assert len({r.seed for r in recs.values()}) == 1
            # exact value never exceeds the heuristics on the shared data
            assert recs["brute"].objective <= recs["greedy"].objective + 1e-9
            assert recs["brute"].objective <= recs["heuristic"].objective + 1e-9

    def test_solver_sandwich_with_relaxation(self):
        cells = [{"n": 20, "p": 7, "k": 2}]
        report = run_benchmark(cells, ["bnb", "greedy"], reps=2, seed=3, lam=0.2)
        for rec in report.records:
            if rec.method != "bnb":
                continue
            config = SyntheticConfig(n=20, p=7, k_true=2, seed=rec.seed)
            data, _, _, _ = generate_synthetic(config)
            spec = ProblemSpec(data=data, lam=0.2, k=2)
            relax = solve_v2_perspective(spec)
            assert relax.value <= rec.objective + 1e-6

    def test_soft_time_budget_flagging(self):
        cells = [{"n": 20, "p": 6, "k": 2}]
        report = run_benchmark(
            cells, ["greedy"], reps=1, seed=0, lam=0.1, time_budget=0.0
        )
        assert all(r.timed_out for r in report.records)

    def test_aggregates_are_means(self):
        cells = [{"n": 25, "p": 8, "k": 2}]
        report = run_benchmark(cells, ["greedy"], reps=3, seed=2, lam=0.1)
        agg = report.aggregates()
        assert len(agg) == 1
        objs = [r.objective for r in report.records]
        assert agg[0]["mean_objective"] == pytest.approx(float(np.mean(objs)))
        assert agg[0]["reps"] == 3

    def test_method_error_is_a_record_that_aggregates_skip(self):
        # C(40, 8) = 76904685 subsets is over brute force's enumeration cap
        report = run_benchmark([{"n": 40, "p": 40, "k": 8}], ["brute", "greedy"], reps=1)
        brute, greedy = report.records
        assert brute.method == "brute" and "exceeds the enumeration cap" in brute.error
        assert math.isnan(brute.objective) and math.isnan(brute.false_alarm)
        assert not brute.timed_out
        assert greedy.error is None and math.isfinite(greedy.objective)
        assert [a["method"] for a in report.aggregates()] == ["greedy"]

    def test_csv_output(self, tmp_path):
        cells = [{"n": 15, "p": 5, "k": 2}]
        report = run_benchmark(cells, ["greedy"], reps=2, seed=0, lam=0.1)
        out = tmp_path / "report.csv"
        report.to_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 3

    def test_false_alarm_improves_with_sample_size(self):
        cells = [{"n": n, "p": 200, "k": 10} for n in (100, 500, 1000)]
        report = run_benchmark(cells, ["greedy"], reps=10, seed=2026, lam=0.08)
        rates = [a["mean_false_alarm"] for a in sorted(
            report.aggregates(), key=lambda a: a["n"]
        )]
        # non-increasing in n, allowing one inversion of at most 2 points
        inversions = [max(0.0, b - a) for a, b in zip(rates, rates[1:])]
        assert sum(1 for v in inversions if v > 0) <= 1
        assert all(v <= 2.0 for v in inversions)
