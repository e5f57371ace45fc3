"""Objective-level bisection heuristic with an exact elastic-net path engine.

The driver brackets the optimal value between L (unreachable) and U (the
value of a known feasible estimator, starting from beta = 0) and halves the
bracket: at the midpoint q it asks for the minimum-L1-norm coefficient
vector whose ridge objective is at most q.  If that vector is k-sparse the
level is attainable (U <- q, keep the witness), otherwise not (L <- q).

The minimum-L1 point at level q lies on the path of minimizers of the
elastic-net objective (1/n)||y - X b||^2 + lam*||b||^2 + gamma*||b||_1: it is
the path point with the largest gamma whose ridge objective R is still at
most q.  That path does not depend on q and is piecewise linear in gamma,
so one homotopy walk from gamma_max = (2/n)||X^T y||_inf down to 0 serves
every level of a bisection.  Each segment keeps a fixed active set and
sign pattern; it ends where a feature enters, an active coefficient hits
zero, or gamma reaches 0.  On a segment b(gamma) = u - gamma*w, where u is
the ridge fit on the active set, so R(gamma) = R(u) + c*gamma^2 and a level
is met in closed form by interpolating gamma^2 between the segment's ends.
The correlations (2/n) X^T (y - X b) are carried from breakpoint to
breakpoint, so a segment makes one product with X, for their rate along it.
The walk is lazy: it stops as soon as R falls to the lowest level asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ProblemSpec,
    RidgeSystem,
    SparseEstimator,
    _check_integer,
    _check_positive,
    _check_real,
    _check_vector,
    _support_fit,
    restricted_estimator,
)
from .errors import InfeasibleLevelError, InvalidArgumentError, NumericalError

# Correlations within this fraction of gamma_max of the boundary count as
# tied, so features that reach it together enter together.
TIE_REL_TOL = 1e-11


@dataclass(frozen=True)
class BisectionStep:
    iteration: int
    lower: float
    upper: float
    q: float
    l1_norm: float
    zeros: int
    branch: str  # "down" when the level was attainable, else "up"


@dataclass
class BisectionTrace:
    steps: list[BisectionStep] = field(default_factory=list)
    final_value: float = math.nan
    bracket_met: bool = False  # whether the final bracket is at most delta_hat wide

    @property
    def iterations(self) -> int:
        return len(self.steps)


def elastic_net_cd(
    spec: ProblemSpec,
    gamma: float,
    tol: float = 1e-8,
    max_sweeps: int = 100000,
    beta0: np.ndarray | None = None,
) -> np.ndarray:
    """Cyclic coordinate descent for the L1-plus-ridge penalized objective.

    Each coordinate update is the exact scalar minimizer
    soft(x_i^T r_{-i} / n, gamma/2) / (||x_i||^2/n + lam); sweeps stop when
    the largest coordinate change in a sweep is at most ``tol``, an absolute
    width the caller sets.
    """
    gamma = _check_real("gamma", gamma, 0.0)
    tol, max_sweeps = _check_positive("tol", tol), _check_integer("max_sweeps", max_sweeps, 1)
    X, y, n, lam, p = spec.X, spec.y, spec.n, spec.lam, spec.p  # no library caller: reads X, y
    beta = np.zeros(p) if beta0 is None else _check_vector("beta0", beta0, p).copy()
    r = y - X @ beta
    a = np.sum(X**2, axis=0) / n + lam
    half_gamma = gamma / 2.0
    for _ in range(max_sweeps):
        max_delta = 0.0
        for i in range(p):
            c = float(X[:, i] @ r) / n + (a[i] - lam) * beta[i]
            b_new = math.copysign(max(abs(c) - half_gamma, 0.0), c) / a[i]
            d = b_new - beta[i]
            if d != 0.0:
                r -= X[:, i] * d
                beta[i] = b_new
                max_delta = max(max_delta, abs(d))
        if max_delta <= tol:
            break
    return beta


class _ElasticNetPath:
    """Breakpoints (gamma_j, beta_j, R_j) of the elastic-net path, gamma
    decreasing from gamma_max, grown one segment at a time on demand.

    KKT on the path: every inactive feature has |rho_j| <= gamma, and every
    active one rho_i - 2*lam*b_i = gamma * sign(b_i).  rho is kept for the last
    breakpoint only, and each beta_j on its support only.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self._rho = 2.0 * spec.data.normal.c / spec.n
        gamma_max = float(np.abs(self._rho).max())
        self._tie = TIE_REL_TOL * gamma_max
        self.gammas = [gamma_max]
        self.supports = [np.empty(0, dtype=int)]
        self.values = [np.empty(0)]
        self.levels = [spec.data.normal.yy / spec.n]
        self._signs = np.empty(0)
        self.done = gamma_max == 0.0
        # Every segment ends at an event or at gamma = 0, and a feature can
        # only re-enter after gamma has moved on; this cap only guards
        # against a numerical cycle.
        self._max_segments = 20 * (spec.p + spec.n) + 100

    def beta(self, j: int) -> np.ndarray:
        b = np.zeros(self.spec.p)
        b[self.supports[j]] = self.values[j]
        return b

    def _extend(self) -> None:
        """Append the breakpoint that ends the segment below the last one."""
        if len(self.gammas) > self._max_segments:
            raise NumericalError(
                f"elastic-net path did not reach gamma = 0 in {self._max_segments} segments"
            )
        eq, n, lam = self.spec.data.normal, self.spec.n, self.spec.lam
        gamma, active, c = self.gammas[-1], self.supports[-1], self._rho
        # Features on the boundary join with the sign of their correlation,
        # all at once; one whose coefficient would move against that sign
        # stays out (the worst first, then re-solve).
        at_bound = np.abs(c) >= gamma - self._tie
        at_bound[active] = False
        new = np.flatnonzero(at_bound)
        while True:
            cand = np.concatenate([active, new])
            signs = np.concatenate([self._signs, np.sign(c[new])])
            # (X_A^T X_A + n*lam*I) [u, w] = [X_A^T y, n*s/2]
            system = RidgeSystem(self.spec.data, cand, None, n * lam)
            rhs = np.column_stack([eq.c[cand], 0.5 * n * signs])
            u, w = system.solve(rhs).T
            grow = (signs * w)[active.size:]
            if new.size == 0 or grow.min() > 0.0:
                break
            new = np.delete(new, int(np.argmin(grow)))
        # On the segment b_A(g) = u - g*w and, off A, c(g) = e + g*f; c(gamma) = rho.
        Xw = system.matvec(w)
        f = (2.0 / n) * eq.rmatvec(Xw)
        e = c - gamma * f
        with np.errstate(divide="ignore", invalid="ignore"):
            exits = np.where(signs * w < 0.0, np.minimum(u / w, gamma), -np.inf)
            enter_up = np.where(1.0 - f > 0.0, e / (1.0 - f), -np.inf)
            enter_dn = np.where(1.0 + f > 0.0, -e / (1.0 + f), -np.inf)
        enters = np.maximum(enter_up, enter_dn)
        enters[cand] = -np.inf
        enters[enters >= gamma - self._tie] = -np.inf  # already on the boundary
        g1 = max(0.0, float(exits.max(initial=-np.inf)), float(enters.max()))
        b1 = u - g1 * w
        keep = exits < g1 - self._tie
        cand, signs, b1 = cand[keep], signs[keep], b1[keep]
        r = eq.response - system.matvec(u) + g1 * Xw
        self.gammas.append(g1)
        self.supports.append(cand)
        self.values.append(b1)
        self.levels.append(float(r @ r / n + lam * (b1 @ b1)))
        self._signs, self._rho = signs, e + g1 * f
        self.done = g1 == 0.0

    def at_level(self, q: float) -> np.ndarray:
        """The path point with the largest gamma whose ridge objective is at
        most ``q``; the gamma = 0 end when no path point reaches ``q``.

        Its nonzeros are its support on the path, with no threshold: at a
        breakpoint that breakpoint's own, and inside a segment the union of
        its ends' supports (a feature that enters at the upper end or leaves
        at the lower one is nonzero strictly inside, and the others keep
        their sign along the segment).
        """
        while self.levels[-1] > q and not self.done:
            self._extend()
        j = next((i for i, r in enumerate(self.levels) if r <= q), None)
        if j is None:
            return self.beta(len(self.levels) - 1)
        if j == 0:
            return self.beta(0)
        g0, g1 = self.gammas[j - 1], self.gammas[j]
        r0, r1 = self.levels[j - 1], self.levels[j]
        # R = R(u) + const * gamma^2 on the segment, so gamma^2 is linear in R.
        g = math.sqrt(g1 * g1 + (q - r1) / (r0 - r1) * (g0 * g0 - g1 * g1))
        t = (g - g1) / (g0 - g1) if g0 > g1 else 0.0
        return (1.0 - t) * self.beta(j) + t * self.beta(j - 1)


def min_l1_given_level(spec: ProblemSpec, v_upper: float) -> np.ndarray:
    """Minimum-L1-norm coefficients with ridge objective at most ``v_upper``.

    Walks the exact elastic-net path down to the first point that meets the
    level; that point has the minimal L1 norm among level-feasible points.
    Raises :class:`InfeasibleLevelError` when ``v_upper`` is below the
    unconstrained ridge minimum, and :class:`InvalidArgumentError` when it
    is NaN.
    """
    v_upper = _check_real("v_upper", v_upper)
    ridge_min = _support_fit(spec, np.arange(spec.p))[1]
    if v_upper < ridge_min * (1.0 - 1e-10):
        raise InfeasibleLevelError(
            f"level {v_upper:.6g} is below the ridge minimum {ridge_min:.6g}"
        )
    return _ElasticNetPath(spec).at_level(v_upper)


def heuristic_bisection(
    spec: ProblemSpec, delta_hat: float
) -> tuple[SparseEstimator, BisectionTrace]:
    """Bisection on the objective level down to bracket width ``delta_hat``.

    Every accepted upper bound corresponds to a certified k-sparse witness;
    the output refits the final witness support exactly, so the reported
    value is min(U, refit objective) and the estimator is always feasible.
    Terminates in at most floor(log2(||y||^2 / (n*delta_hat))) + 1
    iterations; it stops sooner if the bracket is one ulp wide, which can be
    wider than ``delta_hat`` (then ``trace.bracket_met`` is False).  All
    levels are read off one elastic-net path.
    """
    _check_positive("delta_hat", delta_hat)
    p, k = spec.p, spec.k
    # Unconstrained ridge minimum: levels below it are unattainable outright.
    ridge_min = _support_fit(spec, np.arange(p))[1]
    path = _ElasticNetPath(spec)
    lower, upper = 0.0, path.levels[0]
    incumbent_support = np.empty(0, dtype=int)
    trace = BisectionTrace()
    while upper - lower > delta_hat:
        q = 0.5 * (lower + upper)
        if not lower < q < upper:  # the bracket is one ulp wide: it cannot shrink
            break
        if q < ridge_min:
            l1_norm, zeros, attained = math.inf, 0, False
        else:
            beta_hat = path.at_level(q)
            support = np.flatnonzero(beta_hat)
            l1_norm, zeros = float(np.abs(beta_hat).sum()), p - support.size
            attained = support.size <= k
        if attained:
            upper = q
            incumbent_support = support
        else:
            lower = q
        trace.steps.append(
            BisectionStep(
                iteration=trace.iterations + 1, lower=lower, upper=upper, q=q,
                l1_norm=l1_norm, zeros=zeros, branch="down" if attained else "up",
            )
        )
    est = restricted_estimator(spec, incumbent_support)
    trace.final_value = min(upper, est.objective)
    trace.bracket_met = upper - lower <= delta_hat
    return est, trace
