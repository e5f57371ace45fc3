"""Ridge-weight selection by GCV and the sparse precision-matrix reduction.

GCV scores a fitted support S at weight ``lam`` through the ridge hat
matrix H_S = X_S (X_S^T X_S + n*lam*I)^{-1} X_S^T:

    GCV(lam) = (1/n) * sum_i ((y_i - yhat_i) / (1 - (H_S)_ii))^2.

The precision-matrix reduction rewrites

    min ||I_t - Sigma_hat @ Omega||_F^2 + lam * ||Omega||_F^2,
    ||Omega||_0 <= k

as a sparse ridge problem with design block-diag(Sigma_hat, ..., Sigma_hat)
(t blocks, shape t^2 x t^2), response vec(I_t), and beta the column-stacked
Omega; both squared norms carry over exactly.  The induced problem divides
its residual term by n = t^2, so its ridge weight is lam / t^2 and decoded
objectives are rescaled back.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset, ProblemSpec, RidgeSystem, SparseEstimator, _check_integer, _check_positive,
    _check_real_array, _check_vector, _clean_support, _freeze,
)
from .errors import (
    DegenerateHatError, EnumerationCapError, InvalidArgumentError, NumericalError, SparseRidgeError,
)
from .methods import check_options, fit


@dataclass(frozen=True)
class GcvReport:
    """GCV scores over a weight grid and the winning fit."""

    grid: tuple[float, ...]
    scores: tuple[float, ...]
    best_lambda: float
    best_estimator: SparseEstimator

    def to_json_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "scores": [s if math.isfinite(s) else None for s in self.scores],
            "best_lambda": self.best_lambda,
            "best": self.best_estimator.to_json_dict(),
        }


@dataclass(frozen=True)
class PrecisionMapping:
    """The induced regression problem for a t x t precision estimate.

    ``scale`` is t^2: the induced objective times ``scale`` equals the
    matrix objective at the user's original ``lam``.  ``beta`` layouts are
    column-stacked (beta[i + t*j] = Omega[i, j]).
    """

    t: int
    sigma_hat: np.ndarray
    spec: ProblemSpec
    lam: float
    scale: int

    def __post_init__(self) -> None:
        _freeze(self, "sigma_hat")

    def matrix_objective(self, omega: np.ndarray) -> float:
        """||I - Sigma_hat @ Omega||_F^2 + lam * ||Omega||_F^2 at the user lam."""
        r = np.eye(self.t) - self.sigma_hat @ omega
        return float(np.sum(r**2) + self.lam * np.sum(omega**2))


def gcv_score(spec: ProblemSpec, S, lam: float) -> float:
    """Generalized cross-validation score of support S at ridge weight lam."""
    _check_positive("lam", lam)
    idx = _clean_support(spec, S)
    system = RidgeSystem(spec.data, idx, None, spec.n * lam)
    yhat = system.matvec(system.fit(spec.y)[0])  # GCV is per original row: y itself
    denom = 1.0 - system.hat_diagonal()
    if np.any(denom <= 1e-12):
        raise DegenerateHatError(
            "a hat-matrix diagonal entry is within 1e-12 of 1"
        )
    return float(np.mean(((spec.y - yhat) / denom) ** 2))


def gcv_select(
    data: Dataset,
    k: int,
    grid,
    method: str = "greedy",
    **method_options,
) -> GcvReport:
    """Fit once per grid weight, score each fitted support, keep the minimizer.

    Grid points where the solver fails are excluded with a warning; score
    ties break toward the smallest weight.  An empty grid, a weight that is
    not positive and finite, a budget k outside [1, min(n, p)], or an unknown
    method or option raises InvalidArgumentError before any fit, and an
    InvalidArgumentError from a fit is raised, not excluded.  When no point
    is left, the error names the first failure; if every fit failed with a
    NumericalError or an EnumerationCapError, it is the first failure's kind of
    the two, else a SparseRidgeError.
    """
    grid = tuple(_check_positive("grid weight", g) for g in grid)
    if not grid:
        raise InvalidArgumentError("grid must be a non-empty list of positive lam")
    check_options(method, method_options)
    scores: list[float] = []
    valid: list[tuple[float, float, SparseEstimator]] = []  # (score, lam, fit)
    failures: list[SparseRidgeError] = []
    for lam in grid:
        try:
            spec = ProblemSpec(data=data, lam=lam, k=k)
            est = fit(spec, method, **method_options)
            score = gcv_score(spec, est.support, lam)
        except InvalidArgumentError:
            raise  # the caller's input is at fault, not this grid point
        except SparseRidgeError as exc:
            warnings.warn(
                f"solver failed at lam={lam:g} ({exc}); grid point excluded",
                stacklevel=2,
            )
            failures.append(exc)
            score = math.nan
        else:
            if math.isfinite(score):
                valid.append((score, lam, est))
        scores.append(score)
    if not valid:
        kind, solver = SparseRidgeError, (NumericalError, EnumerationCapError)
        if len(failures) == len(grid) and all(isinstance(exc, solver) for exc in failures):
            kind = next(error for error in solver if isinstance(failures[0], error))
        raise kind("every grid point failed" + (f"; the first: {failures[0]}" if failures else ""))
    _, best_lam, best = min(valid, key=lambda v: (v[0], v[1]))
    return GcvReport(
        grid=grid,
        scores=tuple(scores),
        best_lambda=best_lam,
        best_estimator=best,
    )


def precision_to_regression(
    sigma_hat: np.ndarray, lam: float, k: int
) -> PrecisionMapping:
    """Build the induced regression problem for a symmetric t x t matrix.

    For every Omega and its column-stacked beta the identities
    ||I - Sigma_hat @ Omega||_F^2 == ||y - X beta||^2 and
    ||Omega||_F^2 == ||beta||^2 hold exactly.
    """
    sigma = np.asarray(_check_real_array("sigma_hat", sigma_hat), dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InvalidArgumentError(f"sigma_hat must be square, got {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise InvalidArgumentError("sigma_hat must be finite")
    if float(np.abs(sigma - sigma.T).max()) > 1e-10 * float(np.abs(sigma).max()):
        raise InvalidArgumentError("sigma_hat must be symmetric (tol 1e-10 of max |sigma_hat|)")
    lam = _check_positive("lam", lam)
    t = sigma.shape[0]
    k = _check_integer("k", k, 1, t * t)
    X = np.kron(np.eye(t), sigma)  # builds a design: these are its original rows
    y = np.eye(t).flatten(order="F")
    spec = ProblemSpec(data=Dataset._adopt(X, y), lam=lam / (t * t), k=k)
    return PrecisionMapping(t=t, sigma_hat=sigma, spec=spec, lam=lam, scale=t * t)


def encode_omega(omega: np.ndarray) -> np.ndarray:
    """Column-stack a t x t matrix into the induced problem's beta."""
    omega = np.asarray(_check_real_array("omega", omega), dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise InvalidArgumentError(f"omega must be square, got {omega.shape}")
    return omega.flatten(order="F")


def decode_omega(beta: np.ndarray, mapping: PrecisionMapping) -> np.ndarray:
    """Invert the column stacking; exact round trip with :func:`encode_omega`."""
    t = mapping.t
    return _check_vector("beta", beta, t * t).reshape((t, t), order="F")
