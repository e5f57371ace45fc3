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

Solvers read the design through one view per dataset, :class:`NormalEquations`
(``Dataset.normal``): X^T y, y^T y and the squared column norms formed on first
use, X^T X only when p <= n and a consumer that reads it many times asks for it
(the stacked scorers, ``big_m``, v4's loop), Gram entries from one block
accessor, and, in the view's own row space (every 1/n and n*lam reads the
problem's n), y, X^T u, X_S b and the gathered columns.  Only what is defined on
the original rows reads X or y itself: GCV, underline_theta, greedy's
``inv_products``, ``elastic_net_cd``, ``data_io`` and the design builders.

Every walk over subsets (theta, underline_theta, brute force) passes one cap
check, ``_check_enumeration``, and takes its subsets from ``_subset_blocks``
in blocks sized by the floats each of its own subsets holds.  Brute force
(``_best_support``) holds a block's prefix rows step-major, so each
elimination step updates one contiguous slab of every prefix.  Every Cholesky
goes through :func:`cholesky`, which raises NumericalError for a system that
is not finite or not positive definite.

Caller input is checked by one helper per kind, used by every module:
``_check_integer`` for a count or a single feature index (type and range in
one call), ``_check_real`` for a real scalar in a closed range (True, text and
NaN fail) and ``_check_positive`` for a positive one, ``_check_flag`` for a
boolean option (only bool and np.bool_ pass), ``_check_vector`` for an array
(a finite 1-D vector of its length with entries in its range, clipped onto the
range when a slack lets rounding stray outside it), and ``_clean_support`` for
a set of feature indices.  Every caller array, ``Dataset``'s X and y included,
first passes ``_check_real_array``, which refuses complex, text and object
arrays by their dtype before any conversion (bool arrays pass).  Input is
checked once, at the public entry point: index arrays the library builds
itself pass ``_clean_support`` by their dtype, with no scan of their items
(and, sorted and distinct already, with no sort).  Frozen records copy and
write-protect their arrays with ``_freeze``; the exact refit hands its own
fresh beta to ``SparseEstimator._adopt``, which freezes it in place.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import BudgetExceededError, EnumerationCapError, InvalidArgumentError, NumericalError

DEFAULT_ENUMERATION_CAP = 10**6
# Floats in the working set of one enumeration block: 512 KB, so a block's
# memory is bounded whatever C(p, s) is.
_BLOCK_ELEMENTS = 2**16
# The least columns in a block of RidgeSystem's n x n side: a thinner rank update
# starves the matrix product (one v4 start at (1000, 2000) took 2.3x the unblocked
# time in blocks of 32 columns, 1.1x in blocks of 256).
_MIN_BLOCK_COLUMNS = 256
# The largest float; as a bound of _check_real's range it refuses infinities.
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class Dataset:
    """Design matrix ``X`` (n x p), response ``y`` (n,) and optional names.

    The constructor copies the arrays it is given and freezes the copies, so
    instances are safe to share across threads; two threads that first read
    :attr:`normal` together may both form it, and either copy serves.  Arrays
    the library has just made itself (a generated design, rescaled columns)
    are adopted by ``Dataset._adopt`` instead, with the same checks and
    freezing but no copy of X.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self._settle(np.array(_check_real_array("X", self.X), dtype=float))

    @classmethod
    def _adopt(cls, X: np.ndarray, y, feature_names=None) -> Dataset:
        """A dataset holding ``X`` itself, frozen in place: X must be a fresh
        array that nothing else holds (it is copied only when it is not float64
        and C-contiguous)."""
        data = cls.__new__(cls)
        object.__setattr__(data, "y", y)
        object.__setattr__(data, "feature_names", feature_names)
        data._settle(np.asarray(X, dtype=float, order="C"))
        return data

    def _settle(self, X: np.ndarray) -> None:
        """Check X (owned by this dataset), a copy of y and the names, and freeze them."""
        y = np.array(_check_real_array("y", self.y), dtype=float).ravel()
        if X.ndim != 2:
            raise InvalidArgumentError(f"X must be 2-D, got ndim={X.ndim}")
        n, p = X.shape
        if n < 1 or p < 1:
            raise InvalidArgumentError(f"X must be at least 1x1, got {X.shape}")
        if y.shape != (n,):
            raise InvalidArgumentError(
                f"y has length {y.shape[0]}, expected {n} (rows of X)"
            )
        # min and max carry any NaN or inf, with no temporary the size of X
        if not (math.isfinite(X.min()) and math.isfinite(X.max()) and np.isfinite(y).all()):
            raise InvalidArgumentError("X and y must be finite")
        names = self.feature_names
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != p:
                raise InvalidArgumentError(
                    f"feature_names has length {len(names)}, expected {p}"
                )
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def normal(self) -> NormalEquations:
        """The normal equations of (X, y), formed once, on first use."""
        return NormalEquations(self.X, self.y)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _freeze(record, *names: str) -> None:
    """Set each named field of a frozen dataclass to a read-only float copy of
    its value, which must hold real numbers; a field holding None stays None."""
    for name in names:
        if (a := getattr(record, name)) is not None:
            object.__setattr__(record, name,
                               _frozen(np.array(_check_real_array(name, a), dtype=float)))


class NormalEquations:
    """The one view of a dataset's design that solvers read.  ``c`` = X^T y, ``yy``
    = y^T y and ``sq``, the squared column norms, are formed once; ``G`` = X^T X on
    first read, only when p <= n (no p x p object on a wide design), for consumers
    that read it many times (the stacked scorers, ``big_m``, v4's loop): a one-off
    fit uses G only if it is formed (:meth:`formed_gram`, :meth:`block`), since
    forming it costs n*p^2 against the fit's n*|S|^2.  In the view's row space,
    whose count ``rows`` is kept apart from the problem's n (every 1/n and n*lam
    reads n), it hands out y (``response``), X^T u (:meth:`rmatvec`), X_S b
    (:meth:`matvec`) and gathered columns (:meth:`columns`, :meth:`column_blocks`).
    Its rows are X's own: what is defined on them (GCV, underline_theta, greedy's
    ``inv_products``, the design builders) reads the dataset.  Arrays are read-only."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self._X, self.response, self.rows = X, y, X.shape[0]
        self.c = _frozen(X.T @ y)
        self.yy = float(y @ y)
        self.sq = _frozen(np.einsum("ij,ij->j", X, X))

    @cached_property
    def G(self) -> np.ndarray | None:
        """X^T X when p <= n, else None."""
        return _frozen(self._X.T @ self._X) if self._X.shape[1] <= self.rows else None

    def formed_gram(self) -> np.ndarray | None:
        """G if it is already formed, else None; never forms it."""
        return self.__dict__.get("G")

    def block(self, rows: np.ndarray, cols) -> np.ndarray:
        """x_i^T x_j for i in ``rows`` (..., a) and j in ``cols`` (a slice, or (..., b)
        broadcasting with ``rows``) as a fresh (..., a, b) array: entries of G once
        it is formed (for a slice, a view of the whole rows, gathered fresh),
        otherwise products of the gathered columns."""
        G, Xt = self.formed_gram(), self._X.T
        if G is None:
            A = Xt[rows]  # the rows of A are the columns of X_rows
            return A @ (A if cols is rows else Xt[cols]).swapaxes(-1, -2)
        if isinstance(cols, slice):
            return G.take(rows, 0)[..., cols]  # faster than one gather of the slice
        return G[rows[..., :, None], cols[..., None, :]]

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """X^T u for u of length ``rows``."""
        return self._X.T @ u

    def _every(self, S) -> bool:  # whether the index array S is every column in order
        return S.size == self._X.shape[1] and bool((S == np.arange(S.size)).all())

    def columns(self, S) -> np.ndarray:
        """X[:, S] for an index array, slice or index S (X itself for all columns in order)."""
        return self._X if isinstance(S, np.ndarray) and self._every(S) else self._X[:, S]

    def column_blocks(self, S: np.ndarray, width: int):
        """(pos, X_b) over X[:, S]: slices ``pos`` of ``width`` positions in S, each
        gathered on use (a slice of X, no copy, when S is every column in order)."""
        X, every = self._X, self._every(S)
        for lo in range(0, S.size, width):
            pos = slice(lo, lo + width)
            yield pos, X[:, pos] if every else X[:, S[pos]]

    @staticmethod
    def sum_blocks(parts):
        """The sum of the fresh arrays the iterator ``parts`` yields (at least one), in
        place in the first, so one part alone is returned as it is."""
        total = next(parts)
        for part in parts:
            total += part
            del part  # not held while the next one forms
        return total

    def matvec(self, S: np.ndarray, b: np.ndarray) -> np.ndarray:
        """X[:, S] @ b for b of length |S|, with no gathered block of X wider than
        max(_block_rows(rows), _MIN_BLOCK_COLUMNS) columns; within one block it is
        the plain product."""
        width = max(_block_rows(self.rows), _MIN_BLOCK_COLUMNS)
        return self.sum_blocks(Xb @ b[pos] for pos, Xb in self.column_blocks(S, width))


@dataclass(frozen=True)
class ProblemSpec:
    """A dataset together with the ridge weight ``lam`` and budget ``k``."""

    data: Dataset
    lam: float
    k: int

    def __post_init__(self) -> None:
        lam = _check_positive("lam", self.lam)
        k = _check_integer("k", self.k, 1, min(self.data.n, self.data.p))
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
        _freeze(self, "beta")
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))
        object.__setattr__(self, "objective", float(self.objective))

    @classmethod
    def _adopt(cls, support: tuple[int, ...], beta: np.ndarray, objective: float):
        """An estimator holding ``beta`` itself, frozen in place: the library's own
        refit, whose beta is a fresh float array, support a tuple of ints and
        objective a float, so nothing is copied or converted."""
        est = cls.__new__(cls)
        object.__setattr__(est, "support", support)
        object.__setattr__(est, "beta", _frozen(beta))
        object.__setattr__(est, "objective", objective)
        return est

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


def _check_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float in the closed range [low, high]; raises unless it is a
    real number there (True, "0.5" and NaN fail).  The default range takes +-inf;
    a bound of +-_FLOAT_MAX refuses them."""
    # an exact int or float skips the abstract-class test, slow enough to show in loops
    if type(value) not in (int, float) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not low <= value <= high:  # NaN fails too
        kind = "a finite number" if math.isfinite(low) and math.isfinite(high) else "a number"
        raise InvalidArgumentError(f"{name} must be {kind} in [{low:g}, {high:g}], got "
                                   f"{'NaN' if math.isnan(value) else value}")
    return value


def _check_positive(name: str, value) -> float:
    """``value`` as a float; raises unless it is a positive, finite real (NaN fails)."""
    if not 0.0 < (value := _check_real(name, value)) < math.inf:
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")
    return value


def _check_integer(name: str, value, low, high=math.inf) -> int:
    """``value`` as an int in [low, high]; 2, 2.0 and np.int64(2) pass, and 2.5, NaN,
    "2" or True raise, as does an integer outside the range."""
    # an exact int skips the abstract-class tests; any other int is checked as an
    # int, since converting one beyond float range would overflow
    if type(value) is not int and (isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, numbers.Real) and float(value).is_integer())):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not low <= value <= high:
        raise InvalidArgumentError(f"{name} must be >= {low}, got {value}" if high == math.inf
                                   else f"{name} must lie in [{low}, {high}], got {value}")
    return value


def _check_flag(name: str, value) -> bool:
    """``value`` as a bool; raises unless it is a bool or np.bool_ (1, "no" and None fail)."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidArgumentError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def _check_real_array(name: str, a) -> np.ndarray:
    """``a`` as an array, not yet converted; raises unless its dtype is bool, integer
    or real floating, so complex, text and object entries fail before numpy would
    drop an imaginary part or parse a string."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise InvalidArgumentError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a


def _check_vector(name: str, v, size: int | None = None, low: float = -math.inf,
                  high: float = math.inf, slack: float = 0.0) -> np.ndarray:
    """``v`` as a 1-D float array, of length ``size`` when given, whose entries are
    finite and lie in [low - slack, high + slack]; a 2-D array, a 0-d scalar, NaN and
    inf fail.  With a slack the array is clipped onto [low, high], so rounding just
    outside the range reads as its bound; without one a float array is returned as
    it is, with no copy."""

    def refuse(got):
        entries = ("" if low == -math.inf and high == math.inf
                   else f" whose entries are finite and lie in [{low:g}, {high:g}]")
        length = "" if size is None else f" of length {size}"
        return InvalidArgumentError(f"{name} must be a finite 1-D vector{length}{entries}, "
                                    f"got {got}")

    v = np.asarray(_check_real_array(name, v), dtype=float)
    if v.ndim != 1 or size is not None and v.size != size:
        raise refuse(f"shape {v.shape}")
    if v.size:
        lo, hi = v.min(), v.max()  # either carries a NaN
        if not (math.isfinite(lo) and low - slack <= lo):
            raise refuse(lo)
        if not (math.isfinite(hi) and hi <= high + slack):
            raise refuse(hi)
    return v.clip(low, high) if slack else v


def ridge_objective(spec: ProblemSpec, beta: np.ndarray) -> float:
    """Evaluate (1/n)*||y - X beta||^2 + lam*||beta||^2."""
    beta, eq = _check_vector("beta", beta, spec.p), spec.data.normal
    r = eq.response - eq.columns(slice(None)) @ beta
    return float(r @ r / spec.n + spec.lam * (beta @ beta))


def _clean_support(spec: ProblemSpec, S) -> np.ndarray:
    """The distinct feature indices in the collection S, sorted, as an int array;
    2, 2.0 and np.int64(2) are all index 2, and a flag such as True, text, a
    non-integral value or an index outside [0, p) raises.  A numeric ndarray
    (how the library hands on the supports it picks) is checked by its dtype,
    with no scan of its items."""
    if isinstance(S, np.ndarray) and S.dtype != object:
        arr = S  # its items share its dtype, and a bool array fails the dtype test
        flagged = False
    else:
        try:
            items = list(S)
        except TypeError:  # a lone index is not a collection of them
            raise InvalidArgumentError(f"feature indices must be a collection, got {S!r}") from None
        arr = np.asarray(items)
        # each item's type is looked at, since numpy reads a flag among numbers as 0 or 1
        flagged = not {bool, np.bool_}.isdisjoint(map(type, items))
    if arr.ndim != 1 or arr.dtype.kind not in "iuf" or flagged:
        raise InvalidArgumentError(f"feature indices must be integers, got {S!r}")
    if arr.dtype.kind == "f":  # an integer dtype holds whole numbers only
        whole = np.isfinite(arr) & (arr == np.round(arr))
        if not whole.all():
            raise InvalidArgumentError(f"feature indices must be integers, got {arr[~whole][0]}")
    idx = arr.astype(np.intp, copy=False)
    if idx.size > 1 and not (idx[1:] > idx[:-1]).all():  # sorted and distinct as it is
        idx = np.unique(idx)
    if idx.size and (idx[0] < 0 or idx[-1] >= spec.p):
        raise InvalidArgumentError(
            f"feature indices must lie in [0, {spec.p - 1}], got {idx.tolist()}"
        )
    return idx


def cholesky(K: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of the symmetric matrix K, read from its upper triangle.

    LAPACK ``potrf`` called directly, with the checks of scipy's
    ``cho_factor``: a K that is not finite or not positive definite raises
    NumericalError.  The strict lower triangle of the result is left as
    scratch (0 x 0 is allowed).
    """
    if not np.isfinite(K).all():
        raise NumericalError("matrix to factor must be finite")
    c, info = dpotrf(K, lower=0, clean=0)
    if info > 0:
        raise NumericalError(f"{info}-th leading minor of the matrix is not positive definite")
    return c


def cholesky_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with (c^T c) x = b for a factor from :func:`cholesky` (LAPACK ``potrs``).

    ``b`` is a vector or a matrix of right sides; a non-finite b raises
    NumericalError.
    """
    if not np.isfinite(b).all():
        raise NumericalError("right side must be finite")
    if b.size == 0:
        return np.empty(b.shape)  # potrs rejects an empty right side
    return dpotrs(c, b, lower=0)[0]


class RidgeSystem:
    """The weighted ridge system (X_S^T X_S + nlam*diag(1/w)) b = r on the
    support S (m indices) of ``data``, with positive weights w (None for unit
    weights, which the m x m side never builds), factored once, on the columns,
    column blocks and row count n of the dataset's view (``Dataset.normal``).

    The m x m matrix is factored when m <= n: a block of X^T X once it is formed
    (:meth:`NormalEquations.block`), else X_S^T X_S from X_S, gathered on first
    use and then held, so a system on a formed X^T X that only solves reads no
    row of X.  Otherwise A = nlam*I + X_S diag(w) X_S^T (n x n) is, and solves go
    through it; A and every product with X_S are summed over the view's column
    blocks, each gathered on use with its weighted copy within _BLOCK_ELEMENTS
    floats (_MIN_BLOCK_COLUMNS columns when n is large), so that side holds no
    wider copy of X_S.  m = 0 is allowed (the 0 x 0 side).
    """

    def __init__(self, data: Dataset, S: np.ndarray, w: np.ndarray | None, nlam: float):
        eq, m = data.normal, S.size
        self.wide = m > eq.rows
        if self.wide and w is None:
            w = np.ones(m)  # the n x n side sums weighted blocks
        self.w, self.nlam, self._n, self._eq, self._S, self._Xs = w, nlam, data.n, eq, S, None
        # K is a fresh contiguous array: ravel() is a view, [::size + 1] its diagonal.
        if self.wide:
            # blocks of a gathered block and its weighted copy per column
            self._width = max(_block_rows(2 * eq.rows), _MIN_BLOCK_COLUMNS)
            K = eq.sum_blocks((Xb * w[pos]) @ Xb.T for pos, Xb in eq.column_blocks(S, self._width))
            K.ravel()[:: eq.rows + 1] += nlam
        else:
            K = (eq.block(S, S) if eq.formed_gram() is not None
                 else self._columns().T @ self._columns())
            K.ravel()[:: m + 1] += nlam if w is None else nlam * (1.0 / w)
        self._chol = cholesky(K)

    def _columns(self) -> np.ndarray:
        """X_S on the m x m side, gathered from the view on first use and then held."""
        if self._Xs is None:
            self._Xs = self._eq.columns(self._S)
        return self._Xs

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """X_S @ b for b of length m (or m x c)."""
        if not self.wide:
            return self._columns() @ b
        blocks = self._eq.column_blocks(self._S, self._width)
        return self._eq.sum_blocks(Xb @ b[pos] for pos, Xb in blocks)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """X_S^T @ v for v of length n (or n x c)."""
        if not self.wide:
            return self._columns().T @ v
        return np.concatenate([Xb.T @ v for _, Xb in self._eq.column_blocks(self._S, self._width)])

    def fit(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """b for the right side X_S^T y, u = A^-1 y and the value of the fit.

        A = nlam*I + X_S diag(w) X_S^T.  On the m x m side u = (y - X_S b)/nlam;
        on the n x n side b = W X_S^T u, which avoids Woodbury's cancellation
        when nlam is small.  The value (||y - X_S b||^2 + nlam*sum(b_i^2/w_i))/n
        (= nlam*y^T u/n) is stationary in b, so it rounds at machine level.
        """
        if self.wide:
            u = cholesky_solve(self._chol, y)
            b = self.w * self.rmatvec(u)
            r = y - self.matvec(b)
            penalty = b @ (b / self.w)
        else:
            Xs = self._columns()
            b = cholesky_solve(self._chol, Xs.T @ y)
            r = y - Xs @ b
            u = r / self.nlam
            penalty = b @ b if self.w is None else b @ (b / self.w)
        return b, u, float(r @ r + self.nlam * penalty) / self._n

    def solve(self, r: np.ndarray) -> np.ndarray:
        """b for any right side r (m or m x c); Woodbury on the n x n side."""
        if not self.wide:
            return cholesky_solve(self._chol, r)
        w = self.w if r.ndim == 1 else self.w[:, None]
        wr = w * r
        v = cholesky_solve(self._chol, self.matvec(wr))
        return (wr - w * self.rmatvec(v)) / self.nlam

    def hat_diagonal(self) -> np.ndarray:
        """diag(H), H = X_S (X_S^T X_S + nlam*diag(1/w))^-1 X_S^T: row by row on the
        m x m side, and as I - nlam*A^-1, which H equals, on the n x n side."""
        if self.wide:  # one entry per original row (GCV's), as the view holds X itself
            return 1.0 - self.nlam * np.diag(cholesky_solve(self._chol, np.eye(self._eq.rows)))
        Xs = self._columns()
        return np.einsum("ij,ji->i", Xs, cholesky_solve(self._chol, Xs.T))


def _support_fit(spec: ProblemSpec, idx: np.ndarray) -> tuple[np.ndarray, float]:
    """Length-p ridge solution restricted to ``idx`` (no budget check) and its
    ridge objective."""
    system = RidgeSystem(spec.data, idx, None, spec.n * spec.lam)
    b, _, value = system.fit(spec.data.normal.response)
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
    return SparseEstimator._adopt(tuple(idx.tolist()), beta, value)


def _support_from_z(spec: ProblemSpec, z) -> np.ndarray:
    """Interpret ``z`` as a binary indicator vector or an index set.

    A length-p array (or list) is an indicator when its dtype is bool, integer
    or real floating and its entries are all 0/1; complex, text and object
    arrays of length p are refused, even when their items would be indices.
    A length-p integer array that is not 0/1 and anything else goes to
    ``_clean_support`` as it was given, a collection of distinct feature indices.
    """
    arr = np.asarray(z)
    if arr.ndim == 1 and arr.shape[0] == spec.p:
        arr = _check_real_array("z", arr)
        on = np.abs(arr - 1.0) <= 1e-12
        if np.all(on | (np.abs(arr) <= 1e-12)):
            return np.flatnonzero(on)
        if arr.dtype.kind not in "iu":
            raise InvalidArgumentError("z of length p must be binary (entries 0 or 1)")
    return _clean_support(spec, z)


def mic_value(spec: ProblemSpec, z) -> float:
    """Projected objective f(z) = lam * y^T [n*lam*I + sum z_i x_i x_i^T]^-1 y.

    ``z`` is a binary indicator vector or an index set.  For a support S
    this equals the ridge objective of the exact fit on S, which is how it
    is computed on both sides of :class:`RidgeSystem` (the |S| x |S| system
    when |S| <= n, the n x n one otherwise).
    """
    return _support_fit(spec, _support_from_z(spec, z))[1]


def _block_rows(elements: int) -> int:
    """Rows m (>= 1) of a block of ``elements`` floats a row, within _BLOCK_ELEMENTS."""
    return max(1, _BLOCK_ELEMENTS // max(1, elements))


def _check_enumeration(p: int, s: int, cap: int) -> None:
    """Raises EnumerationCapError when the C(p, s) size-s subsets exceed ``cap``."""
    count = math.comb(p, s)
    if count > cap:
        raise EnumerationCapError(f"C({p}, {s}) = {count} exceeds the enumeration cap {cap}")


def _subset_blocks(p: int, s: int, elements: int):
    """Every size-s subset of range(p), in ``itertools.combinations`` order, as
    (m, s) int arrays, m = _block_rows(elements) for a working set of ``elements``
    floats per subset; s = 0 gives one (1, 0) block, the empty subset."""
    m, left = _block_rows(elements), math.comb(p, s)
    combos = itertools.combinations(range(p), s)
    while left:
        rows = min(m, left)
        left -= rows
        yield np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, rows)),
                          np.intp, rows * s).reshape(rows, s)


def _gram_stacks(spec: ProblemSpec, s: int, rows: np.ndarray | None = None,
                 shift: float = 0.0):
    """(S, K) for blocks S of size-s supports, with K the (m, s, s) stack of
    X_S^T X_S + shift*I over the rows of S, from the normal equations'
    blocks.  The supports are the rows of ``rows`` (m, s), or every size-s
    subset in ``_subset_blocks`` order.  An entry -1 in a row is padding:
    its row and column of K are decoupled, 0 but for shift on the diagonal.
    Gathered columns (s x n per support when p > n) count in the element
    budget."""
    eq = spec.data.normal
    width = s if eq.G is not None else max(s, eq.rows)
    if rows is None:
        blocks = _subset_blocks(spec.p, s, s * width)
    else:
        m = _block_rows(s * width)
        blocks = (rows[lo:lo + m] for lo in range(0, len(rows), m))
    d = np.arange(s)
    for S in blocks:
        K = eq.block(S, S)  # padding gathers feature p - 1, then is cleared
        pad = S < 0
        K[pad] = 0.0
        K.swapaxes(1, 2)[pad] = 0.0
        K[:, d, d] += shift
        yield S, K


def _ridge_scores(spec: ProblemSpec, rows: np.ndarray):
    """(b, values) for the supports ``rows`` (m, s), each a row of feature
    indices padded at its end with -1: b[i] (m, s) is the ridge fit on the
    features of rows[i], exactly 0 at its padding, and values[i] its objective
    (y^T y - (X^T y)_S . b[i])/n.  Supports of at most n features take one
    stacked solve per block of ``_gram_stacks`` at width min(s, n), where
    padding is decoupled with right side 0; wider ones are fit one by one on
    the n x n side of ``RidgeSystem``."""
    eq, sizes = spec.data.normal, (rows >= 0).sum(axis=1)
    b, values = np.zeros(rows.shape), np.empty(len(rows))
    for i in np.flatnonzero(sizes > eq.rows):
        S = rows[i, :sizes[i]]
        beta, values[i] = _support_fit(spec, S)
        b[i, :S.size] = beta[S]
    narrow = np.flatnonzero(sizes <= eq.rows)
    w, lo = min(rows.shape[1], eq.rows), 0  # a narrow row's features are its first w entries
    for S, K in _gram_stacks(spec, w, rows[narrow, :w], spec.n * spec.lam):
        cS = np.where(S < 0, 0.0, eq.c[S])
        at, lo = narrow[lo:lo + len(S)], lo + len(S)
        # the explicit trailing axis: a 2-D right side would be read as one matrix
        bS = np.linalg.solve(K, cS[..., None])[..., 0]
        b[at, :w] = bS
        values[at] = (eq.yy - np.einsum("ij,ij->i", cS, bS)) / spec.n
    return b, values


def _best_support(spec: ProblemSpec) -> np.ndarray:
    """A size-k support of least computed ridge value, as a sorted int array.

    P + (j,), j > max P, extends its (k-1)-prefix P (Furnival & Wilson's leaps
    and bounds): with L L^T = G_PP + n*lam*I, G = X^T X, c = X^T y,
    l_j = L^-1 G[P, j] and w = L^-1 c_P, its value is (y^T y - |w|^2 - e_j^2/d_j)/n,
    d_j = G_jj + n*lam - |l_j|^2, e_j = c_j - l_j . w.  Prefixes go in lexicographic
    blocks within the element budget (no p x p object when p > n).  A block's rows
    are held step-major, (s, a, W) for a prefixes of s = k-1 features and the W
    columns from its smallest feature on: elimination step i updates one (a, W)
    slab of every prefix at once, and the sums over earlier steps are einsums
    over the leading axis.  Every column is scored and the extensions out of
    order (j <= max P) are then set to +inf, which is cheaper at this size than
    gathering the ones in order.  The argmin is row-major and a later block
    must be strictly better, so equal computed values go to the first support;
    a tie in exact arithmetic is decided by rounding.  A non-finite pivot or
    value raises NumericalError."""
    eq, n, p, s = spec.data.normal, spec.n, spec.p, spec.k - 1
    nlam = n * spec.lam
    g = eq.sq + nlam
    # per prefix: s Gram rows (s columns of X too when p > n) and six score rows
    elements = (s + 6) * p + (s * eq.rows if eq.G is None else 0)
    best_val, best, after = math.inf, None, np.arange(p)
    for P in _subset_blocks(p - 1, s, elements):
        lo = int(P[0, 0]) if s else 0  # the block's smallest feature
        Pt = P.T  # (s, a): step i's feature of every prefix is one row
        at, cols = np.arange(len(P)), Pt - lo
        R = eq.block(Pt, slice(lo, None))  # (s, a, W), step-major
        w = eq.c[Pt]
        # rows of L^-1 G[P, lo:] and w = L^-1 c_P in place; n*lam enters only the
        # pivots, as the entries it would shift (columns j in P) feed no valid value
        for i in range(s):
            Ri, wi = R[i], w[i]
            if i:  # row 0 has no earlier row to eliminate
                Li = R[:i, at, cols[i]]  # L[i, :i] of each prefix, (i, a)
                Ri -= np.einsum("ha,haw->aw", Li, R[:i])
                wi -= np.einsum("ha,ha->a", Li, w[:i])
            pivot = Ri[at, cols[i]] + nlam
            if not 0 < pivot.min() <= pivot.max() < math.inf:  # NaN fails too
                raise NumericalError("brute force met a non-finite or non-positive pivot")
            root = np.sqrt(pivot)
            Ri /= root[:, None]
            wi /= root
        d = g[lo:] - np.einsum("saw,saw->aw", R, R)
        e = eq.c[lo:] - np.einsum("sa,saw->aw", w, R)
        # a prefix's largest feature is its last one (the empty prefix's is -1):
        # extensions by j <= it are out of order and score +inf.  Their d has no
        # use, and may round to 0 where n*lam is tiny against G_jj.
        out = after[lo:] <= (P[:, -1:] if s else np.full((1, 1), -1))
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (eq.yy - np.einsum("sa,sa->a", w, w))[:, None] - e * e / d
        np.putmask(values, out, math.inf)
        # entries out of order are never finite, so each in order must be
        if np.count_nonzero(np.isfinite(values)) + np.count_nonzero(out) < values.size:
            raise NumericalError("brute force met a non-finite support value")
        a, j = divmod(int(values.argmin()), values.shape[1])
        if values[a, j] < best_val:
            best_val, best = values[a, j], np.append(P[a], lo + j)
    return best


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
    s = _check_integer("s", s, 1, spec.p)
    cap = _check_integer("cap", cap, 0)
    if mode == "upper_bound":
        return float(np.sort(spec.data.normal.sq)[-s:].sum())
    if mode != "exact":
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    _check_enumeration(spec.p, s, cap)
    best = 0.0
    for _, K in _gram_stacks(spec, s):
        top = np.linalg.eigvalsh(K)[:, -1]
        if not np.isfinite(top).all():  # NaN would lose every max and leave theta too small
            raise NumericalError("theta met a non-finite eigenvalue")
        best = max(best, float(top.max()))
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
    cap = _check_integer("cap", cap, 0)
    t = p - k + 1
    if t < n:
        return 0.0
    _check_enumeration(p, t, cap)
    best = math.inf
    Xt = spec.X.T  # X_T X_T^T is n x n: it is defined on the original rows
    for T in _subset_blocks(p, t, t * n + n * n):  # X_T and X_T X_T^T per subset
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
    cap = _check_integer("cap", cap, 0)
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
    X = data.X.copy()  # builds a design: it rescales the original rows
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    nz = norms > 0
    # one factor per column, 1 on zero columns, so the scaling gathers no columns
    X *= np.divide(math.sqrt(data.n), norms, out=np.ones_like(norms), where=nz)
    return Dataset._adopt(X, data.y, data.feature_names)
