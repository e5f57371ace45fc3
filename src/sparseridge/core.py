"""Problem data model and core quantities for sparse ridge regression.

The problem solved throughout the package is

    minimize (1/n) * ||y - X beta||^2 + lam * ||beta||^2
    subject to ||beta||_0 <= k,

with design matrix ``X`` (n observations, p features), response ``y``,
ridge weight ``lam > 0`` and sparsity budget ``k``.  This module owns the
immutable containers (:class:`Dataset`, :class:`ProblemSpec`,
:class:`SparseEstimator`, :class:`SpectralStats`) plus the closed-form
pieces every solver builds on: the ridge objective, the one
support-restricted ridge solve (:class:`RidgeSystem`), the exact estimator
on a support set, the projected objective over binary selections, and the
extremal subset singular values used by the a-priori quality bounds.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import BudgetExceededError, EnumerationCapError, InvalidArgumentError

DEFAULT_ENUMERATION_CAP = 10**6
# Elements of the (m, s, s) stack gathered for one enumeration block: 512 KB
# of floats, so a block's memory is bounded whatever C(p, s) is.
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class Dataset:
    """Design matrix ``X`` (n x p), response ``y`` (n,) and optional names.

    Arrays are copied and frozen at construction, so instances are safe to
    share across threads.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float).ravel()
        if X.ndim != 2:
            raise InvalidArgumentError(f"X must be 2-D, got ndim={X.ndim}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise InvalidArgumentError(f"X must be at least 1x1, got {X.shape}")
        if y.shape != (n,):
            raise InvalidArgumentError(
                f"y has length {y.shape[0]}, expected {n} (rows of X)"
            )
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise InvalidArgumentError("X and y must be finite")
        names = self.feature_names
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != p:
                raise InvalidArgumentError(
                    f"feature_names has length {len(names)}, expected {p}"
                )
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class ProblemSpec:
    """A dataset together with the ridge weight ``lam`` and budget ``k``."""

    data: Dataset
    lam: float
    k: int

    def __post_init__(self) -> None:
        lam = _check_positive("lam", self.lam)
        k = _check_integer("k", self.k)
        if not 1 <= k <= min(self.data.n, self.data.p):
            raise InvalidArgumentError(
                f"k must satisfy 1 <= k <= min(n, p) = "
                f"{min(self.data.n, self.data.p)}, got {k}"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "k", k)

    @property
    def X(self) -> np.ndarray:
        return self.data.X

    @property
    def y(self) -> np.ndarray:
        return self.data.y

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def p(self) -> int:
        return self.data.p


@dataclass(frozen=True)
class SparseEstimator:
    """A solver output: support set, coefficient vector and objective value.

    ``beta`` has length p and is zero outside ``support``; ``objective`` is
    the ridge objective of ``beta`` on the originating problem.
    """

    support: tuple[int, ...]
    beta: np.ndarray
    objective: float

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "objective", float(self.objective))

    @property
    def cardinality(self) -> int:
        return len(self.support)

    def to_json_dict(self) -> dict:
        return {
            "support": list(self.support),
            "beta": self.beta.tolist(),
            "objective": self.objective,
        }


@dataclass(frozen=True)
class SpectralStats:
    """Extremal subset singular values driving the quality bounds.

    ``theta[s]`` is the largest eigenvalue of ``X_S X_S^T`` over all
    supports of size ``s`` (``theta[0] == 0``); ``underline_theta`` is the
    smallest eigenvalue of ``X_T X_T^T`` over all ``T`` with
    ``|T| >= p - k + 1``.  In ``upper_bound`` mode ``theta[s]`` is the sum
    of the ``s`` largest squared column norms (a valid upper bound) and
    ``underline_theta`` is 0 (a valid lower bound), so the derived ratio
    bound stays valid, just weaker.
    """

    theta: dict[int, float] = field(default_factory=dict)
    underline_theta: float = 0.0
    mode: str = "exact"


def _check_positive(name: str, value) -> float:
    """``value`` as a float; raises unless it is positive and finite (NaN fails)."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")
    return value


def _check_integer(name: str, value) -> int:
    """``value`` as an int; 2, 2.0 and np.int64(2) pass, and 2.5, NaN or "2" raise."""
    # an int is checked as an int: converting one beyond float range would overflow
    if not (isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer()):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_count(name: str, value) -> int:
    """``value`` as an int; raises unless it is an integer >= 0 (see _check_integer)."""
    value = _check_integer(name, value)
    if value < 0:
        raise InvalidArgumentError(f"{name} must be >= 0, got {value}")
    return value


def ridge_objective(spec: ProblemSpec, beta: np.ndarray) -> float:
    """Evaluate (1/n)*||y - X beta||^2 + lam*||beta||^2."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (spec.p,):
        raise InvalidArgumentError(
            f"beta has shape {beta.shape}, expected ({spec.p},)"
        )
    if not np.isfinite(beta).all():
        raise InvalidArgumentError("beta must be finite")
    r = spec.y - spec.X @ beta
    return float(r @ r / spec.n + spec.lam * (beta @ beta))


def _unique_indices(values) -> np.ndarray:
    """Sorted distinct feature indices as an int array; 2, 2.0 and
    np.int64(2) are all index 2, and a non-integral value raises."""
    arr = np.fromiter(values, dtype=float)
    whole = np.isfinite(arr) & (arr == np.round(arr))
    if not whole.all():
        raise InvalidArgumentError(
            f"feature indices must be integers, got {arr[~whole][0]}"
        )
    return np.unique(arr.astype(np.intp))


def _clean_support(spec: ProblemSpec, S) -> np.ndarray:
    """Validate and sort a support set; returns an int array."""
    idx = _unique_indices(S)
    if idx.size and (idx[0] < 0 or idx[-1] >= spec.p):
        raise InvalidArgumentError(
            f"support indices must lie in [0, {spec.p}), got {idx.tolist()}"
        )
    return idx


def _check_zhat(zhat, p: int | None = None) -> np.ndarray:
    """A fractional selection vector (length p when given), finite and in
    [0, 1] up to 1e-9, clipped onto [0, 1]."""
    zhat = np.asarray(zhat, dtype=float)
    if zhat.ndim != 1 or (p is not None and zhat.shape != (p,)):
        raise InvalidArgumentError(
            f"zhat has shape {zhat.shape}, expected a 1-D vector of length p"
        )
    if not np.isfinite(zhat).all() or np.any(zhat < -1e-9) or np.any(zhat > 1 + 1e-9):
        raise InvalidArgumentError("zhat entries must be finite and lie in [0, 1]")
    return np.clip(zhat, 0.0, 1.0)


def cholesky(K: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of the symmetric matrix K, read from its upper triangle.

    LAPACK ``potrf`` called directly, with the checks of scipy's
    ``cho_factor``: a non-finite K raises ``ValueError`` and one that is not
    positive definite raises ``np.linalg.LinAlgError``.  The strict lower
    triangle of the result is left as scratch (0 x 0 is allowed).
    """
    if not np.isfinite(K).all():
        raise ValueError("matrix to factor must be finite")
    c, info = dpotrf(K, lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the matrix is not positive definite"
        )
    return c


def cholesky_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with (c^T c) x = b for a factor from :func:`cholesky` (LAPACK ``potrs``).

    ``b`` is a vector or a matrix of right sides; a non-finite b raises
    ``ValueError``.
    """
    if not np.isfinite(b).all():
        raise ValueError("right side must be finite")
    if b.size == 0:
        return np.empty(b.shape)  # potrs rejects an empty right side
    return dpotrs(c, b, lower=0)[0]


class RidgeSystem:
    """The weighted ridge system (X_S^T X_S + nlam*diag(1/w)) b = r, factored once.

    ``X_S`` is n x m and the weights ``w`` are positive.  The m x m matrix is
    factored when m <= n; otherwise A = nlam*I + X_S diag(w) X_S^T (n x n) is,
    and solves go through it.  m = 0 is allowed (the 0 x 0 side).
    """

    def __init__(self, Xs: np.ndarray, w: np.ndarray, nlam: float):
        self.Xs, self.w, self.nlam = Xs, w, nlam
        n, m = Xs.shape
        self.wide = m > n
        # K is a fresh contiguous product: ravel() is a view, [::size + 1] its diagonal.
        if self.wide:
            K = (Xs * w) @ Xs.T
            K.ravel()[:: n + 1] += nlam
        else:
            K = Xs.T @ Xs
            K.ravel()[:: m + 1] += nlam * (1.0 / w)
        self._chol = cholesky(K)

    def fit(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """b for the right side X_S^T y, u = A^-1 y and the value of the fit.

        A = nlam*I + X_S diag(w) X_S^T.  On the m x m side u = (y - X_S b)/nlam;
        on the n x n side b = W X_S^T u, which avoids Woodbury's cancellation
        when nlam is small.  The value (||y - X_S b||^2 + nlam*sum(b_i^2/w_i))/n
        (= nlam*y^T u/n) is stationary in b, so it rounds at machine level.
        """
        if self.wide:
            u = cholesky_solve(self._chol, y)
            b = self.w * (self.Xs.T @ u)
            r = y - self.Xs @ b
        else:
            b = cholesky_solve(self._chol, self.Xs.T @ y)
            r = y - self.Xs @ b
            u = r / self.nlam
        return b, u, float(r @ r + self.nlam * (b @ (b / self.w))) / y.size

    def solve(self, r: np.ndarray) -> np.ndarray:
        """b for any right side r (m or m x c); Woodbury on the n x n side."""
        if not self.wide:
            return cholesky_solve(self._chol, r)
        w = self.w if r.ndim == 1 else self.w[:, None]
        wr = w * r
        v = cholesky_solve(self._chol, self.Xs @ wr)
        return (wr - w * (self.Xs.T @ v)) / self.nlam


def _support_fit(spec: ProblemSpec, idx: np.ndarray) -> tuple[np.ndarray, float]:
    """Length-p ridge solution restricted to ``idx`` (no budget check) and its
    ridge objective."""
    system = RidgeSystem(spec.X[:, idx], np.ones(idx.size), spec.n * spec.lam)
    b, _, value = system.fit(spec.y)
    beta = np.zeros(spec.p)
    beta[idx] = b
    return beta, value


def restricted_estimator(spec: ProblemSpec, S) -> SparseEstimator:
    """Exact ridge fit on the support ``S`` (all other coefficients zero).

    Solves (X_S^T X_S + n*lam*I) beta_S = X_S^T y by Cholesky on the |S|
    side of :class:`RidgeSystem` (|S| <= k <= n; lam > 0 makes it definite).  Raises
    :class:`~sparseridge.errors.BudgetExceededError` when ``|S| > k``.
    """
    idx = _clean_support(spec, S)
    if idx.size > spec.k:
        raise BudgetExceededError(
            f"support of size {idx.size} exceeds the budget k={spec.k}"
        )
    beta, value = _support_fit(spec, idx)
    return SparseEstimator(support=tuple(idx.tolist()), beta=beta, objective=value)


def _support_from_z(spec: ProblemSpec, z) -> np.ndarray:
    """Interpret ``z`` as a binary indicator vector or an index set.

    A length-p array whose entries are all 0/1 is read as an indicator;
    anything else must be a collection of distinct feature indices.
    """
    if isinstance(z, (set, frozenset)):
        return _clean_support(spec, z)
    arr = np.asarray(z)
    if arr.ndim == 1 and arr.shape[0] == spec.p:
        as_float = arr.astype(float)
        on = np.abs(as_float - 1.0) <= 1e-12
        off = np.abs(as_float) <= 1e-12
        if np.all(on | off):
            return np.flatnonzero(on)
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidArgumentError(
                "z of length p must be binary (entries 0 or 1)"
            )
    return _clean_support(spec, np.atleast_1d(arr).tolist())


def mic_value(spec: ProblemSpec, z) -> float:
    """Projected objective f(z) = lam * y^T [n*lam*I + sum z_i x_i x_i^T]^-1 y.

    ``z`` is a binary indicator vector or an index set.  For a support S
    this equals the ridge objective of the exact fit on S, which is how it
    is computed on both sides of :class:`RidgeSystem` (the |S| x |S| system
    when |S| <= n, the n x n one otherwise).
    """
    return _support_fit(spec, _support_from_z(spec, z))[1]


def _block_rows(s: int, width: int) -> int:
    """Rows m of a block whose (m, s, width) stack stays within _BLOCK_ELEMENTS (m >= 1)."""
    return max(1, _BLOCK_ELEMENTS // max(1, s * width))


def _subset_blocks(p: int, s: int, width: int | None = None):
    """Every size-s subset of range(p), in ``itertools.combinations`` order,
    as (m, s) int arrays; m = _block_rows(s, width), so an (m, s, width) stack
    gathered per block stays within the element budget (width s by default)."""
    m = _block_rows(s, s if width is None else width)
    combos = itertools.chain.from_iterable(itertools.combinations(range(p), s))
    while True:
        block = np.fromiter(itertools.islice(combos, m * s), dtype=np.intp)
        if block.size == 0:
            return
        yield block.reshape(-1, s)


def _gram_stacks(spec: ProblemSpec, s: int, rows: np.ndarray | None = None,
                 shift: float = 0.0):
    """(S, K) for blocks S of size-s supports, with K the (m, s, s) stack of
    X_S^T X_S + shift*I over the rows of S.  The supports are the rows of
    ``rows`` (m, s), or every size-s subset in ``_subset_blocks`` order.  When
    p <= n, X^T X is formed once and each K sliced from it; otherwise each K
    is gathered from its block's own columns, (m, s, n) within the element
    budget, so no p x p Gram is formed."""
    X, n, p = spec.X, spec.n, spec.p
    width = s if p <= n else max(s, n)
    if rows is None:
        blocks = _subset_blocks(p, s, width)
    else:
        m = _block_rows(s, width)
        blocks = (rows[lo:lo + m] for lo in range(0, len(rows), m))
    if p <= n:
        G = X.T @ X
        G.ravel()[:: p + 1] += shift
        for S in blocks:
            yield S, G[S[:, :, None], S[:, None, :]]
        return
    Xt, d = np.ascontiguousarray(X.T), np.arange(s)  # contiguous rows gather faster
    for S in blocks:
        Xg = Xt[S]  # the rows of Xg[i] are the columns of X_{S_i}
        K = Xg @ Xg.transpose(0, 2, 1)
        K[:, d, d] += shift
        yield S, K


def _ridge_scores(spec: ProblemSpec, s: int, rows: np.ndarray | None = None):
    """(S, b, values) for the blocks S of ``_gram_stacks``: b_i is the ridge
    fit on the support S_i and values_i its objective (y^T y - (X^T y)_S . b_i)/n,
    from one stacked solve per block.  A row wider than n is fit alone on
    the n x n side of ``RidgeSystem``."""
    if s > spec.n:
        for S in rows:
            beta, value = _support_fit(spec, S)
            yield S[None], beta[S][None], np.array([value])
        return
    c, yy = spec.X.T @ spec.y, float(spec.y @ spec.y)
    for S, K in _gram_stacks(spec, s, rows, spec.n * spec.lam):
        cS = c[S]
        # the explicit trailing axis: a 2-D right side would be read as one matrix
        b = np.linalg.solve(K, cS[..., None])[..., 0]
        yield S, b, (yy - np.einsum("ij,ij->i", cS, b)) / spec.n


def theta(
    spec: ProblemSpec,
    s: int,
    mode: str = "exact",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Largest eigenvalue of X_S X_S^T over all supports of size ``s``.

    ``exact`` mode enumerates every size-s subset (requires C(p, s) <= cap),
    in blocks: one batched eigenvalue call per block of X_S^T X_S from
    ``_gram_stacks``, so no p x p Gram is formed when p > n.
    ``upper_bound`` mode returns the sum of the ``s`` largest squared column
    norms, which dominates the exact value.
    """
    s = _check_integer("s", s)
    cap = _check_count("cap", cap)
    if not 1 <= s <= spec.p:
        raise InvalidArgumentError(f"s must lie in [1, {spec.p}], got {s}")
    if mode == "upper_bound":
        sq = np.sum(spec.X**2, axis=0)
        return float(np.sort(sq)[-s:].sum())
    if mode != "exact":
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    count = math.comb(spec.p, s)
    if count > cap:
        raise EnumerationCapError(
            f"C({spec.p}, {s}) = {count} exceeds the cap {cap}; "
            "use mode='upper_bound'"
        )
    best = 0.0
    for _, K in _gram_stacks(spec, s):
        best = max(best, float(np.linalg.eigvalsh(K)[:, -1].max()))
    return best


def underline_theta(spec: ProblemSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Smallest eigenvalue of X_T X_T^T over all T with |T| >= p - k + 1.

    Adding a column to T adds the PSD term x x^T, so the minimum is attained
    at |T| = p - k + 1 and only that size is enumerated (C(p, p - k + 1)
    subsets, which must stay within the cap).  Whenever p - k + 1 < n every
    such subset is rank deficient and the minimum is 0 without enumeration.
    Subsets go in blocks: one batched eigenvalue call per stack of n x n
    matrices.
    """
    n, p, k = spec.n, spec.p, spec.k
    cap = _check_count("cap", cap)
    t = p - k + 1
    if t < n:
        return 0.0
    total = math.comb(p, t)
    if total > cap:
        raise EnumerationCapError(
            f"enumerating {total} subsets of size {t} exceeds the cap {cap}"
        )
    best = math.inf
    Xt = spec.X.T
    for T in _subset_blocks(p, t):
        XT = Xt[T]  # (m, t, n): rows are the columns of X_T
        low = float(np.linalg.eigvalsh(XT.transpose(0, 2, 1) @ XT)[:, 0].min())
        best = min(best, max(0.0, low))
    return float(best)


def spectral_stats(
    spec: ProblemSpec,
    mode: str = "exact",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SpectralStats:
    """theta_s for s = 0..k plus underline_theta, as one bundle."""
    cap = _check_count("cap", cap)
    thetas = {0: 0.0}
    for s in range(1, spec.k + 1):
        thetas[s] = theta(spec, s, mode=mode, cap=cap)
    if mode == "exact":
        under = underline_theta(spec, cap=cap)
    else:
        under = 0.0
    return SpectralStats(theta=thetas, underline_theta=under, mode=mode)


def normalize_columns(data: Dataset) -> Dataset:
    """Rescale every column of X to squared norm n (zero columns untouched)."""
    X = data.X.copy()
    norms = np.linalg.norm(X, axis=0)
    nz = norms > 0
    X[:, nz] *= math.sqrt(data.n) / norms[nz]
    return Dataset(X=X, y=data.y, feature_names=data.feature_names)
