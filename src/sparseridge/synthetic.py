"""Synthetic data generation and selection-accuracy metrics.

Rows of X are drawn i.i.d. from N(0, Sigma) with the banded correlation
Sigma_ij = rho^|i-j|; the draw applies the AR(1) Cholesky factor directly
as the recursion x_j = rho * x_{j-1} + sqrt(1 - rho^2) * z_j.  The first
``k_true`` coefficients are uniform on [coef_low, coef_high] (optionally
resampled away from zero so the true support is meaningful) and the noise
variance is set from the target signal-to-noise ratio
snr = var(x^T beta) / var(eps), i.e. sigma^2 = beta^T Sigma beta / snr.

Draw order (fixed, so results are reproducible given the seed): the n x p
standard-normal block for X, then the coefficient values, then the noise.

The recursion runs in place on the draw, with one length-n scratch vector and
no temporary the size of X: the columns 1..p-1 are first scaled by
sqrt(1 - rho^2) in one multiply, then each column, in order, gets
rho * (the finished previous column) added through the scratch vector.
Every element still takes the same two IEEE products and one sum as the
two-array loop x_j = rho * x_{j-1} + sqrt(1 - rho^2) * z_j, and separate
multiply and add ufuncs cannot fuse them, so X matches that loop bit for bit
on every CPU.  (A banded triangular solve such as LAPACK's dtbtrs fuses the
multiply-add in OpenBLAS, so its last bits would change with the CPU.)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import _FLOAT_MAX, Dataset, _check_flag, _check_integer, _check_positive, _check_real
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class SyntheticConfig:
    n: int
    p: int
    k_true: int
    rho: float = 0.5
    snr: float = 9.0
    coef_low: float = -3.0
    coef_high: float = 3.0
    seed: int = 0
    min_signal: float = 0.1
    resample_small: bool = True

    def __post_init__(self) -> None:
        for name, low in (("n", 1), ("p", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low))
        object.__setattr__(self, "k_true", _check_integer("k_true", self.k_true, 1, self.p))
        object.__setattr__(self, "resample_small",
                           _check_flag("resample_small", self.resample_small))
        if not -1.0 < _check_real("rho", self.rho) < 1.0:
            raise InvalidArgumentError(f"rho must lie in (-1, 1), got {self.rho}")
        lo, hi, floor = (_check_real(name, getattr(self, name), -_FLOAT_MAX, _FLOAT_MAX)
                         for name in ("coef_low", "coef_high", "min_signal"))
        _check_positive("snr", self.snr)
        if lo >= hi:
            raise InvalidArgumentError("coef_low must be < coef_high")
        if not math.isfinite(hi - lo):  # Python floats: no overflow warning
            raise InvalidArgumentError(
                f"coef_high - coef_low must be finite, got [{lo}, {hi}]"
            )
        # Resampling draws until |coef| >= min_signal, which never happens
        # when the whole range lies within [-min_signal, min_signal].
        if self.resample_small and -floor <= lo and hi <= floor:
            raise InvalidArgumentError(
                f"with resample_small, [coef_low, coef_high] = [{lo}, {hi}] must reach "
                f"outside [-min_signal, min_signal] = [{-floor}, {floor}]"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)


def generate_synthetic(
    config: SyntheticConfig,
) -> tuple[Dataset, np.ndarray, tuple[int, ...], float]:
    """Returns (dataset, true_beta, true_support, sigma_sq)."""
    n, p, k = config.n, config.p, config.k_true
    rho = config.rho
    rng = np.random.default_rng(config.seed)

    # a design builder, on its own rows; AR(1) in place on the draw (module docstring)
    X = rng.standard_normal((n, p))
    cols = X.T
    cols[1:] *= math.sqrt(1.0 - rho * rho)
    step = np.empty(n)
    for prev, col in zip(cols, cols[1:]):
        np.multiply(prev, rho, out=step)
        np.add(col, step, out=col)

    coefs = rng.uniform(config.coef_low, config.coef_high, size=k)
    if config.resample_small:
        small = np.abs(coefs) < config.min_signal
        while small.any():
            coefs[small] = rng.uniform(
                config.coef_low, config.coef_high, size=int(small.sum())
            )
            small = np.abs(coefs) < config.min_signal
    beta0 = np.zeros(p)
    beta0[:k] = coefs

    # signal variance beta^T Sigma beta over the nonzero block only
    ii = np.arange(k)
    sigma_block = rho ** np.abs(ii[:, None] - ii[None, :])
    # a huge range or a tiny snr overflows; refuse it here rather than draw infinite noise
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_sq = float(coefs @ sigma_block @ coefs) / config.snr
    if not math.isfinite(sigma_sq):
        raise InvalidArgumentError(
            f"the noise variance beta^T Sigma beta / snr is not finite with snr = "
            f"{config.snr} and [coef_low, coef_high] = [{config.coef_low}, {config.coef_high}]"
        )

    eps = rng.normal(0.0, math.sqrt(sigma_sq), size=n)
    y = X @ beta0 + eps
    return Dataset._adopt(X, y), beta0, tuple(range(k)), sigma_sq


def false_alarm_rate(estimated, truth, k: int) -> float:
    """Percentage of selected features outside the true support, over k."""
    k = _check_integer("k", k, 1)
    extra = ({_check_integer("feature index", i, 0) for i in estimated}
             - {_check_integer("feature index", i, 0) for i in truth})
    return 100.0 * len(extra) / k
