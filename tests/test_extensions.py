import warnings

import numpy as np
import pytest

import sparseridge.extensions as ext
from helpers import random_spec
from oracles import hat_diagonal_oracle
from sparseridge import (
    Dataset,
    DegenerateHatError,
    InvalidArgumentError,
    NumericalError,
    ProblemSpec,
    SparseRidgeError,
    decode_omega,
    encode_omega,
    gcv_score,
    gcv_select,
    precision_to_regression,
    ridge_objective,
)
from sparseridge.extensions import fit as registry_fit
from sparseridge.synthetic import SyntheticConfig, generate_synthetic


class TestGcvScore:
    def test_huge_weight_approaches_naive_score(self, rng):
        spec = random_spec(rng, 20, 6, 3, 0.1)
        score = gcv_score(spec, [0, 2, 4], lam=1e6)
        assert score == pytest.approx(float(spec.y @ spec.y) / spec.n, rel=1e-3)

    def test_empty_support_is_exact(self, rng):
        spec = random_spec(rng, 15, 5, 2, 0.2)
        assert gcv_score(spec, [], lam=0.2) == pytest.approx(
            float(spec.y @ spec.y) / spec.n, rel=1e-14
        )

    def test_matches_explicit_hat_matrix(self, rng):
        spec = random_spec(rng, 25, 8, 3, 0.1)
        S = [1, 4, 6]
        hdiag, yhat = hat_diagonal_oracle(spec.X, spec.y, 0.1, S)
        expected = float(np.mean(((spec.y - yhat) / (1 - hdiag)) ** 2))
        assert gcv_score(spec, S, lam=0.1) == pytest.approx(expected, rel=1e-10)

    def test_hat_diagonal_in_unit_interval(self, rng):
        spec = random_spec(rng, 12, 6, 3, 0.05)
        hdiag, _ = hat_diagonal_oracle(spec.X, spec.y, 0.05, [0, 1, 5])
        assert np.all(hdiag >= 0.0) and np.all(hdiag < 1.0)

    def test_non_integral_index_rejected(self, rng):
        spec = random_spec(rng, 15, 5, 2, 0.2)
        with pytest.raises(InvalidArgumentError, match="integers"):
            gcv_score(spec, [0.5], lam=0.2)

    @pytest.mark.parametrize("lam", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    def test_bad_weight_rejected(self, rng, lam):
        spec = random_spec(rng, 15, 5, 2, 0.2)
        with pytest.raises(InvalidArgumentError, match="lam"):
            gcv_score(spec, [0, 1], lam=lam)

    def test_degenerate_hat_detected(self):
        X = np.eye(2)
        spec = ProblemSpec(data=Dataset(X=X, y=np.ones(2)), lam=1e-16, k=2)
        with pytest.raises(DegenerateHatError):
            gcv_score(spec, [0, 1], lam=1e-16)


class TestGcvSelect:
    def test_singleton_grid(self, rng):
        spec = random_spec(rng, 30, 8, 3, 0.1)
        report = gcv_select(spec.data, k=3, grid=[0.3], method="greedy")
        assert report.best_lambda == 0.3
        assert len(report.scores) == 1

    def test_scores_recomputable(self):
        config = SyntheticConfig(n=200, p=50, k_true=10, seed=11)
        data, _, _, _ = generate_synthetic(config)
        grid = [1e-4, 1e-2, 1.0]
        report = gcv_select(data, k=10, grid=grid, method="greedy")
        recomputed = []
        for lam in grid:
            spec = ProblemSpec(data=data, lam=lam, k=10)
            est = registry_fit(spec, "greedy")
            recomputed.append(gcv_score(spec, est.support, lam))
        assert report.scores == pytest.approx(recomputed, rel=1e-12)
        best = min(zip(recomputed, grid))
        assert report.best_lambda == best[1]

    def test_grid_shape_protocol(self):
        config = SyntheticConfig(n=80, p=20, k_true=5, seed=3)
        data, _, _, _ = generate_synthetic(config)
        grid = [1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.2, 0.5, 1.0]
        report = gcv_select(data, k=5, grid=grid, method="greedy")
        assert len(report.scores) == len(grid)
        finite = [s for s in report.scores if np.isfinite(s)]
        assert min(finite) == pytest.approx(
            report.scores[report.grid.index(report.best_lambda)]
        )

    def test_failed_grid_point_excluded(self, rng, monkeypatch):
        spec = random_spec(rng, 20, 6, 2, 0.1)
        real_fit = ext.fit

        def flaky_fit(s, method, **kw):
            if s.lam < 0.05:
                raise SparseRidgeError("synthetic failure")
            return real_fit(s, method, **kw)

        monkeypatch.setattr(ext, "fit", flaky_fit)
        with pytest.warns(UserWarning, match="excluded"):
            report = gcv_select(spec.data, k=2, grid=[0.01, 0.2], method="greedy")
        assert np.isnan(report.scores[0])
        assert report.best_lambda == 0.2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.1], ids=["nan", "inf", "zero", "negative"])
    def test_bad_grid_weight_rejected_before_any_fit(self, rng, monkeypatch, bad):
        spec = random_spec(rng, 20, 6, 2, 0.1)
        fits = []
        monkeypatch.setattr(ext, "fit", lambda *a, **kw: fits.append(a))
        with pytest.raises(InvalidArgumentError, match="grid weight"):
            gcv_select(spec.data, k=2, grid=[0.1, bad])
        assert fits == []

    def test_invalid_budget_raised_before_any_fit(self, rng, monkeypatch):
        # k = 50 > min(n, p) is the caller's error, not a failed grid point
        spec = random_spec(rng, 30, 8, 2, 0.1)
        fits = []
        monkeypatch.setattr(ext, "fit", lambda *a, **kw: fits.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="k must lie in"):
                gcv_select(spec.data, k=50, grid=[0.1, 0.2])
        assert fits == []

    def test_invalid_argument_from_a_fit_is_raised(self, rng, monkeypatch):
        spec = random_spec(rng, 20, 6, 2, 0.1)

        def bad_option_fit(s, method, **kw):
            raise InvalidArgumentError("delta must be positive and finite")

        monkeypatch.setattr(ext, "fit", bad_option_fit)
        with pytest.raises(InvalidArgumentError, match="delta"):
            gcv_select(spec.data, k=2, grid=[0.1, 0.2])

    @pytest.mark.parametrize("errors, raised", [
        ((NumericalError, NumericalError), NumericalError),
        ((NumericalError, SparseRidgeError), SparseRidgeError),
    ], ids=["all_numerical", "mixed"])
    def test_all_points_failing_error_kind(self, rng, monkeypatch, errors, raised):
        spec = random_spec(rng, 10, 4, 2, 0.1)
        queue = list(errors)

        def failing_fit(s, method, **kw):
            raise queue.pop(0)("nope")

        monkeypatch.setattr(ext, "fit", failing_fit)
        with pytest.warns(UserWarning, match="excluded"):
            with pytest.raises(SparseRidgeError) as info:
                gcv_select(spec.data, k=2, grid=[0.1, 0.2])
        assert type(info.value) is raised

    def test_all_points_failing_raises(self, rng, monkeypatch):
        spec = random_spec(rng, 10, 4, 2, 0.1)

        def broken_fit(s, method, **kw):
            raise SparseRidgeError("nope")

        monkeypatch.setattr(ext, "fit", broken_fit)
        with pytest.warns(UserWarning):
            with pytest.raises(SparseRidgeError):
                gcv_select(spec.data, k=2, grid=[0.1, 0.2])


class TestPrecisionMapping:
    def test_identity_covariance_layout(self):
        mapping = precision_to_regression(np.eye(2), lam=0.2, k=4)
        assert mapping.spec.y.tolist() == [1.0, 0.0, 0.0, 1.0]
        assert np.array_equal(mapping.spec.X, np.eye(4))
        est = registry_fit(mapping.spec, "brute")
        omega = decode_omega(est.beta, mapping)
        # full-budget fit of the identity target is a scaled identity
        assert omega[0, 0] == pytest.approx(omega[1, 1], rel=1e-10)
        assert abs(omega[0, 1]) < 1e-12 and abs(omega[1, 0]) < 1e-12

    def test_frobenius_identity_any_omega(self, rng):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        mapping = precision_to_regression(sigma, lam=0.3, k=4)
        for _ in range(5):
            omega = rng.standard_normal((2, 2))  # deliberately asymmetric
            beta = encode_omega(omega)
            lhs = float(np.sum((np.eye(2) - sigma @ omega) ** 2))
            rhs = float(np.sum((mapping.spec.y - mapping.spec.X @ beta) ** 2))
            assert abs(lhs - rhs) <= 1e-10
            assert float(np.sum(omega**2)) == pytest.approx(
                float(beta @ beta), rel=1e-14
            )

    def test_objective_scale_round_trip(self, rng):
        A = rng.standard_normal((3, 3))
        sigma = A @ A.T + 3 * np.eye(3)
        mapping = precision_to_regression(sigma, lam=0.5, k=5)
        est = registry_fit(mapping.spec, "greedy")
        omega = decode_omega(est.beta, mapping)
        assert np.count_nonzero(omega) <= 5
        assert mapping.matrix_objective(omega) == pytest.approx(
            mapping.scale * est.objective, rel=1e-10
        )
        assert mapping.scale * ridge_objective(mapping.spec, est.beta) == (
            pytest.approx(mapping.matrix_objective(omega), rel=1e-10)
        )

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError):
            precision_to_regression(np.array([[1.0, 0.5], [0.2, 1.0]]), 0.1, 2)

    def test_symmetry_is_relative_to_sigma(self):
        # an absolute bound passed this one in 1e-12 units ...
        with pytest.raises(InvalidArgumentError):
            precision_to_regression(np.array([[1.0, 0.5], [0.1, 1.0]]) * 1e-12, 0.1, 2)
        # ... and refused this one in 1e8 units, one ulp from symmetric
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]]) * 1e8
        sigma[0, 1] = np.nextafter(sigma[0, 1], np.inf)
        assert precision_to_regression(sigma, 0.1, 2).t == 2

    def test_round_trip_exact(self, rng):
        mapping = precision_to_regression(np.eye(4), lam=0.1, k=16)
        omega = rng.standard_normal((4, 4))
        assert np.array_equal(decode_omega(encode_omega(omega), mapping), omega)

    def test_zero_and_identity_decode(self):
        mapping = precision_to_regression(np.eye(2), lam=0.1, k=4)
        assert np.all(decode_omega(np.zeros(4), mapping) == 0.0)
        assert np.array_equal(
            decode_omega(encode_omega(np.eye(2)), mapping), np.eye(2)
        )

    def test_length_mismatch(self):
        mapping = precision_to_regression(np.eye(3), lam=0.1, k=4)
        with pytest.raises(InvalidArgumentError):
            decode_omega(np.zeros(8), mapping)
