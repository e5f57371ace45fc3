"""Continuous relaxations of the cardinality-constrained ridge problem.

Four relaxation values are computed, named ``v1`` .. ``v4`` after the
formulation they relax:

* ``v1`` -- big-M linking ``|beta_i| <= M_i z_i`` with ``z`` relaxed to the
  capped box (solved with ``z`` eliminated, as a weighted-L1-ball plus box
  constrained ridge problem);
* ``v2`` -- perspective (conic) strengthening ``beta_i^2 <= mu_i z_i``;
* ``v3`` -- perspective and big-M constraints together;
* ``v4`` -- the projected objective ``f(z) = lam * y^T A(z)^{-1} y`` with
  ``A(z) = n*lam*I + sum_i z_i x_i x_i^T`` minimized directly over the
  capped box.

``v2`` and ``v4`` coincide (one is an exact reformulation of the other),
so v2 is v4's record, beta included; the test suite checks the two against
an independent alternating-minimization reference.  One evaluator,
``_evaluator``, made once per solve with what it reads of the spec bound,
gives f(z), its gradient, its minimizer (v2's and v4's beta) and f's Hessian
on a face from one RidgeSystem on supp z.  v3 evaluates through it too: its
g(z), the perspective minimum over beta with |beta_i| <= M_i z_i, is f(z)
where v4's b keeps every bound, and ``_perspective_fit`` runs its bounded
passes where one binds.  The perspective constraint set is the convex hull
of its mixed-binary counterpart, so v2 cannot be improved by valid
inequalities in the same variables; tightening requires outside information
such as the big-M bounds (v3).

Each evaluation takes one of two routes on the system on S = supp z.  The X
route fits y: it gathers X_S and forms X^T u.  The Gram route reads no row of
X, only the normal equations G = X^T X, c = X^T y and y^T y: the system's
K = G_SS + n*lam*diag(1/z_S) is a block of G, b_S = K^-1 c_S,
f = (y^T y - c . b)/n and the gradient is -lam*((c - G b)/(n*lam))^2, and
the system gathers no X_S.  That value cancels as f falls below y^T y/n:
its rounding is of order eps*y^T y/n, where the X route's value, stationary
in b, rounds at eps*f.  So an evaluator given G keeps the Gram formulas only
for a value that passes the floor, f >= _GRAM_FLOOR*y^T y/n (1e-3), which
bounds its relative error by about eps/_GRAM_FLOOR, 2e-13, times the growth
of the dot products behind G and c; below the floor the same system fits y
on X.  Each evaluation tests the value it computed, so no route is decided
ahead of it.  A v4 or v3 solve forms G (p <= n) and a one-off evaluation
(``value_and_gradient``) uses G only if it is already formed.  The X route
serves p > n, values below the floor and v3's passes where a bound binds.

All solvers run one loop: nonmonotone spectral projected gradient, which
projects once per iteration at the Barzilai-Borwein step of the last move (at
first the longest move it allows, _MAX_MOVE widths of the feasible set, in
any units of y) and halves along that direction until an Armijo test
(constant 1e-4) against the largest of the last 10 values passes (Birgin,
Martinez & Raydan, SIAM J. Optim. 2000; Grippo, Lampariello & Lucidi, SIAM
J. Numer. Anal. 1986).  v1 runs it on beta; v2/v4 on f(z) and v3 on g(z)
through one driver, which projects through the budget search itself
(``_project``: no checks of the vectors it built) and runs one path whether
or not a coordinate is fixed: it scatters the free coordinates into z and
gathers their gradient, so a top-level v4 solve is branch and bound's root
node.  Without a warm start every solve, v3's too, starts at the vertex with
weight 1 on the budget largest |c_i|, c = X^T y, among the free coordinates
(ties to the lowest index), found with no evaluation: for v4 the point where
the move-capped first step from z = 0 lands, since grad f(0) =
-c^2/(n^2*lam).  So the first evaluation is on |S| = budget columns, where an
interior start such as k/p is dense (the n x n side when p > n).  Ranking by
|x_i^T y| follows the correlation screening of L0BnB (Hazimeh, Mazumder &
Saab, Math. Program. 2022).

v4, and v3 where no bound binds, add second-order steps once the support
settles: once the support of the iterate (which z_i are above 0) equals the
previous iterate's, the loop is offered the Newton point of f over the
fractional set F, the other coordinates held and the move bordered to sum 0
when sum(z) is at the budget, projected onto the box.  The Hessian block is
H_FF = 2*lam*(a_F a_F^T) o X_F^T A(z)^-1 X_F with a_F = b_F/z_F, read from the
factor of K and the Gram block G_SS the evaluation's system already holds
(on either route when |S| <= n; no proposal when |S| > n).  The point is
taken only if it moves, descends (grad^T (x_N - x) < 0) and passes the
Armijo test against f(x) itself, strictly, not the nonmonotone reference;
otherwise the iteration takes its spectral step.  On a fixed face
projected-Newton steps converge quadratically where the spectral steps refine
z at a linear rate (Bertsekas, SIAM J. Control Optim. 1982); switching only
once the active set stops moving follows Hager & Zhang (SIAM J. Optim. 2006).
Which fractional coordinates reach 1 is not part of the test: the Newton point
is projected onto the box, and the strict Armijo test decides.

All four carry one certificate.  Their objectives are convex (f(z) since
v2 == v4, g(z) as a partial minimum of a jointly convex function), so at any
feasible point x the supporting hyperplane gives value - gap <= the
relaxation value, where the gap grad^T x - min over the feasible set of
grad^T w is the Frank-Wolfe duality gap (Jaggi, ICML 2013).  ``lower_bound``
is value - gap and ``kkt_residual`` is value - lower_bound, both formed by one
constructor, ``_certified``; the loop stops once the gap is at most
tol*|value|, a relative gap in any units of y, and raises NumericalError if
the value or gap is not finite (an overflow, as at a tiny lam).

The capped-simplex projection, water-filling and v1's weighted-L1-box
projection each need the threshold t at which the budget
sum(clip(a + s*t, lo, 1)) reaches k.  That sum is piecewise linear and
nondecreasing in t, so one exact search, ``_fill_budget``, serves all three:
sort the 2p breakpoints, accumulate the budget across them and interpolate
the crossing on its linear piece (O(p log p)).  Its slopes are positive
(water-filling keeps beta_i = 0 out); a scalar slope or bound fills an array.

A conditional-value-at-risk style convex surrogate of the cardinality
constraint is deliberately not offered: for this constraint it admits only
beta = 0 as a feasible point, so it can never return anything useful.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
# cho_factor/cho_solve are unused: perfbench's tracer looks them up (ROADMAP item 4(a)).
from scipy.linalg import cho_factor, cho_solve, eigvalsh  # noqa: F401

from .core import (
    _FLOAT_MAX, ProblemSpec, RidgeSystem, _check_integer, _check_positive, _check_real,
    _check_vector, _clean_support, _freeze, _support_fit, cholesky,
    cholesky_solve,
)
from .errors import InvalidArgumentError, NumericalDomainError, NumericalError

ARMIJO_C = 1e-4
NONMONOTONE_MEMORY = 10  # Armijo tests compare with the max of this many last values
# v3's beta-step releases a clamped coordinate whose inward gradient exceeds
# this share of M_i, the size of its penalty term's gradient (scaled by 1/(2 lam)).
_RELEASE_TOL = 1e-12
# The spectral step's move step*||grad|| is at most this many widths of the
# feasible set (1 for z, the largest big-M bound for v1's beta): a bound in x's
# own units, so it means the same in any units of y.  It keeps x - step*grad
# finite and within 1e6 widths, where the threshold search still resolves the
# budget (a first step of 2 moved z by 2e16 at y*1e8 and left the projection
# over budget).  The first step takes this whole move: a step of 2 moved z by
# 2e-18 at y*1e-8, below its rounding, and a first move of one width kept z
# dense for four iterations at (1000, 2000, 20), where 2 had moved 158 widths.
_MAX_MOVE = 1e6
# v4's Gram route serves only values f >= this share of y^T y/n, where its
# cancelling y^T y - c . b stays within about eps/_GRAM_FLOOR of f (module docstring).
# The floor must keep a noise-free fit at lam = 1e-5 on the X route: 1e-6 did not.
_GRAM_FLOOR = 1e-3


@dataclass(frozen=True)
class RelaxationSolution:
    """Fractional selection vector with its value and solve diagnostics."""

    z: np.ndarray
    value: float
    iterations: int
    kkt_residual: float
    converged: bool
    beta: np.ndarray | None = None
    lower_bound: float | None = None  # certified value - gap

    def __post_init__(self) -> None:
        _freeze(self, "z", "beta")

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "z": self.z.tolist(),
            "iterations": self.iterations,
            "kkt_residual": self.kkt_residual,
            "converged": self.converged,
            "lower_bound": self.lower_bound,
        }


def _certified(z, value, iterations, gap, converged, beta=None) -> RelaxationSolution:
    """The record of a solve that stops at ``value`` with certified ``gap``:
    lower_bound = value - gap and kkt_residual = value - lower_bound."""
    lower_bound = value - gap
    return RelaxationSolution(z=z, value=value, iterations=iterations,
                              kkt_residual=value - lower_bound, converged=converged,
                              beta=beta, lower_bound=lower_bound)


@dataclass(frozen=True)
class BigMVector:
    """Per-coordinate coefficient bounds plus the inputs that produced them."""

    M: np.ndarray
    v_upper: float
    rho: float

    def __post_init__(self) -> None:
        _freeze(self, "M")


def _fill_budget(a: np.ndarray, s, lo, k: float) -> np.ndarray:
    """z = clip(a + s*t, lo, 1) at the threshold t where sum(z) == k; slopes s > 0.

    Coordinate i moves between (lo_i - a_i)/s_i and (1 - a_i)/s_i; s and lo, scalars
    or arrays like ``a``, are filled out to its shape; callers keep sum(lo) < k < a.size.
    """
    slopes, lows = np.full(a.shape, s), np.full(a.shape, lo)
    bps = np.concatenate([(lows - a) / slopes, (1.0 - a) / slopes])
    start = lows.sum()  # the budget at bps[0]
    steps = np.concatenate([slopes, -slopes])  # s_i at i's first breakpoint, -s_i at its second
    del slopes, lows  # the last line reads s and lo: at most four arrays of 2p floats live
    order = bps.argsort(kind="stable")
    bps = bps[order]
    steps = steps[order]
    slope = steps.cumsum()  # on [bps[j], bps[j+1]]: s_i from i's first breakpoint to its second
    del order, steps
    budget = (slope[:-1] * (bps[1:] - bps[:-1])).cumsum() + start  # at bps[1:]
    # the budget is below k at bps[j] and reaches it by bps[j+1]; the clamps
    # keep rounding in the sums from leaving the crossing piece.
    j = min(int(budget.searchsorted(k)), bps.size - 2)
    below = budget[j - 1] if j else start  # the budget at bps[j]
    t = bps[j] + (k - below) / slope[j] if slope[j] > 0.0 else bps[j]
    return (a + s * min(max(t, bps[j]), bps[j + 1])).clip(lo, 1.0)


def project_capped_simplex(v: np.ndarray, k: float) -> np.ndarray:
    """Euclidean projection of a finite 1-D ``v`` onto {z in [0,1]^p : sum(z) <= k}.

    If the clipped point already fits the budget it is returned unchanged;
    otherwise z = clip(v - tau, 0, 1) with the unique shift tau > 0 that
    makes sum(z) == k, found exactly on the sorted breakpoints v_i, v_i - 1.
    """
    _check_positive("budget k", k)
    return _project(_check_vector("v", v), k)


def _project(v: np.ndarray, k: float) -> np.ndarray:
    """:func:`project_capped_simplex` of a finite 1-D float ``v`` and a budget
    k > 0 that the caller built itself, so neither is checked again."""
    clipped = v.clip(0.0, 1.0)
    if clipped.sum() <= k:
        return clipped
    return _fill_budget(v, 1.0, 0.0, k)


def waterfill_z(
    beta: np.ndarray, k: float, lower: np.ndarray | None = None
) -> np.ndarray:
    """Minimize sum(beta_i^2 / z_i) over {lower <= z <= 1, sum(z) <= k}.

    Coordinates with beta_i == 0 contribute nothing (0/0 := 0) and stay at
    their lower bound.  When the budget binds, z_i = clamp(|beta_i|/nu,
    lower_i, 1) with the level nu that spends the budget exactly, found on
    the sorted breakpoints lower_i/|beta_i| and 1/|beta_i| of 1/nu.
    """
    _check_real("budget k", k)
    beta = _check_vector("beta", beta)
    p = beta.size
    lower = np.zeros(p) if lower is None else _check_vector("lower", lower, p, 0.0, 1.0, 1e-12)
    if not lower.sum() <= k + 1e-9:
        raise InvalidArgumentError(
            f"budget k must be at least the lower bounds' sum {lower.sum():.6g}, got {k}"
        )
    if lower.sum() >= k - 1e-12:
        return lower.copy()  # bounds alone exhaust the budget
    absb = np.abs(beta)
    moving = absb > 0.0  # the others stay at their lower bound
    z = np.where(moving, 1.0, lower)
    if z.sum() > k:
        z[moving] = _fill_budget(np.zeros(moving.sum()), absb[moving], lower[moving],
                                 k - z[~moving].sum())
    return z


def big_m(spec: ProblemSpec, v_upper: float | None = None) -> BigMVector:
    """Closed-form coefficient bounds valid for every solution at level v_upper.

    Any beta with ridge objective <= v_upper satisfies
    rho * (beta_i - a_i)^2 <= D with rho = sigma_min(X^T X)/n + lam,
    a_i = x_i^T y / (n rho) and D = ||X^T y||^2/(n^2 rho^2) + v_upper/rho
    - ||y||^2/(n rho), hence |beta_i| <= |a_i| + sqrt(D).  Defaults to the
    always-valid level v_upper = ||y||^2 / n (attained by beta = 0); a
    non-finite level is rejected.
    X^T X, y^T y and X^T y are read from the dataset's normal equations; when
    p > n, X^T X is singular and sigma_min = 0 without forming it.
    """
    if v_upper is not None:
        v_upper = _check_real("v_upper", v_upper, -_FLOAT_MAX, _FLOAT_MAX)
    eq, n = spec.data.normal, spec.n
    if not (math.isfinite(eq.yy) and np.isfinite(eq.c).all()
            and (eq.G is None or np.isfinite(eq.G).all())):
        raise NumericalError("big-M bounds need finite y^T y, X^T y and X^T X")
    sig_min = 0.0
    if eq.G is not None:
        sig_min = max(0.0, float(eigvalsh(eq.G, subset_by_index=[0, 0])[0]))
    rho = sig_min / n + spec.lam
    yy, c = eq.yy, eq.c
    v_up = yy / n if v_upper is None else v_upper
    a = c / (n * rho)
    positive = float(c @ c) / (n * rho) ** 2 + v_up / rho
    disc = positive - yy / (n * rho)
    if disc < -1e-12 * positive:  # rounding, relative to the terms that cancel
        raise NumericalDomainError(
            f"negative discriminant {disc:.3g}: v_upper={v_up:.6g} is below "
            "the attainable minimum; raise it"
        )
    s = np.sqrt(max(0.0, disc))
    return BigMVector(M=np.abs(a) + s, v_upper=v_up, rho=rho)


def _perspective_fit(spec: ProblemSpec, z: np.ndarray, M: np.ndarray, beta0: np.ndarray):
    """v3's g(z) = min (1/n)||y - X b||^2 + lam*sum(b_i^2/z_i) over |b_i| <= M_i z_i,
    its gradient in z and the minimizer b; without the bound g is f (:func:`_evaluator`).

    z_i counts when n*lam/z_i is finite; b_i = 0 elsewhere.  Every fit is a
    RidgeSystem on the free support whose u gives the residual y - X b =
    n*lam*u, so with a = X^T u the gradient -lam*(b_i/z_i)^2 - M_i*mu_i (mu_i
    the bound's multiplier) is -lam*a_i^2 where |a_i| <= M_i and
    lam*M_i*(M_i - 2|a_i|) where the bound binds.  Bounded-variable least
    squares (Lawson & Hanson; Stark & Parker) runs from clip(beta0), kept
    feasible: each pass holds the clamped coordinates at +-M_i z_i and fits
    the free ones.  An infeasible fit is followed up to the first bound it
    crosses, which clamps that coordinate; after a feasible one the clamped
    coordinate whose gradient points most strongly inward is released, until
    none does.  Raises NumericalError when the pass cap is reached.
    """
    eq, nlam = spec.data.normal, spec.n * spec.lam
    active = z > nlam / _FLOAT_MAX
    bound = np.where(active, M * z, 0.0)
    b = np.clip(beta0, -bound, bound)
    clamped = active & (np.abs(b) >= bound)
    # Random starts 1000x outside the box took at most 2.2(p + 1) passes.
    for _ in range(4 * spec.p + 4):
        free, held = np.flatnonzero(active & ~clamped), np.flatnonzero(clamped)
        # the held coordinates' share of X b, gathered a block of columns at a time
        rhs = eq.response - eq.matvec(held, b[held]) if held.size else eq.response
        fit, u, val = RidgeSystem(spec.data, free, z[free], nlam).fit(rhs)
        out = np.abs(fit) > bound[free]
        if out.any():
            cross = free[out]
            edge = np.copysign(bound[cross], fit[out])
            t = (edge - b[cross]) / (fit[out] - b[cross])
            j = t.argmin()
            b[free] += t[j] * (fit - b[free])
            b[cross[j]] = edge[j]
            b = np.clip(b, -bound, bound)  # rounding in the step
            clamped |= active & (np.abs(b) >= bound)
            continue
        b[free] = fit
        a = eq.rmatvec(u)
        if held.size:
            # sign(b_i) times the gradient of 1/(2 lam) times the objective at
            # b_i = +-M_i z_i: positive where moving b_i inward descends.
            inward = M[held] - np.sign(b[held]) * a[held]
            i = inward.argmax()
            if inward[i] > _RELEASE_TOL * M[held[i]]:
                clamped[held[i]] = False
                continue
        val += spec.lam * float(np.sum(b[held] ** 2 / z[held]))
        absa = np.abs(a)
        return val, np.where(absa <= M, -spec.lam * a**2, spec.lam * M * (M - 2.0 * absa)), b
    raise NumericalError("box-constrained beta-step reached its pass cap")


def _evaluator(spec: ProblemSpec, G: np.ndarray | None = None):
    """v4's evaluation z -> (f(z), its gradient -lam*(x_i^T A(z)^-1 y)^2, the
    minimizer b, the Hessian on a face), from one RidgeSystem on S = supp z
    (z_i with n*lam/z_i finite; b is 0 elsewhere).  What every evaluation
    reads of the spec (n, p, lam, n*lam, the support threshold, the view, c,
    y^T y, the floor and G) is bound once, so a solve makes one evaluator and calls it.

    When G = X^T X is given, b_S solves K b_S = c_S with
    K = G_SS + n*lam*diag(1/z_S) and f = (y^T y - c . b)/n.  If that value
    passes the floor, f >= _GRAM_FLOOR*y^T y/n, the evaluation stays on the
    Gram route: the gradient is -lam*a^2 with a = (c - G b)/(n*lam), and no
    row of X is read.  Otherwise, and always without G, it takes the X route:
    the same system fits y, and its u gives f, b and a = X^T u.

    The Hessian maps sorted indices F to H_FF = 2*lam*(q_F q_F^T) o
    X_F^T A(z)^-1 X_F, with q_F = b_F/z_F (a_F in exact arithmetic) read from
    b, where x_i^T u would cancel, and X_F^T A(z)^-1 X_F = diag(1/z_F) (K^-1 G_SF)_F
    from K's own factor: that form (G - G K^-1 G = D K^-1 G with D = K - G_SS)
    has no cancelling difference and holds one |S| x |F| block at a time.
    G_SF is read from G_SS, the Gram block the system holds, on both routes.
    The Hessian gives None where some q_i is 0, and is None itself when
    |S| > n, where the system holds no factor of K.
    """
    data, eq, n, p, lam = spec.data, spec.data.normal, spec.n, spec.p, spec.lam
    y, c, yy, nlam = eq.response, eq.c, eq.yy, n * lam
    floor = nlam / _FLOAT_MAX  # z_i above it counts: n*lam/z_i is finite
    least = _GRAM_FLOOR * yy / n  # the least value the Gram route serves

    def evaluate(z):
        S, b = (z > floor).nonzero()[0], np.zeros(p)
        zS = z[S]
        system = RidgeSystem(data, S, zS, nlam)
        gram = G is not None
        if gram:
            b[S] = system.solve(c[S])
            val = (yy - float(c @ b)) / n
            gram = val >= least  # below the floor (or NaN) it may have cancelled
        if gram:
            a = (c - G @ b) / nlam
        else:
            b[S], u, val = system.fit(y)
            a = eq.rmatvec(u)
        grad = -lam * a**2  # a**2 overflows on both routes alike, as at a tiny lam
        if system.wide:
            return val, grad, b, None

        def hessian(F):
            if not b[F].all():
                return None  # a zero row: H_FF is singular (and F may leave S)
            pos = np.searchsorted(S, F)  # b_i != 0 only on S
            qF = b[F] / zS[pos]
            H = system.solve(system.gram[:, pos])[pos]
            H /= zS[pos, None]
            H *= qF[:, None]
            H *= (2.0 * lam) * qF
            return H

        return val, grad, b, hessian

    return evaluate


def value_and_gradient(spec: ProblemSpec, z: np.ndarray) -> tuple[float, np.ndarray]:
    """f(z) = lam*y^T A(z)^{-1} y and its gradient -lam*(x_i^T A(z)^{-1} y)^2 from
    one :func:`_evaluator` call: on the Gram route if X^T X is already formed
    and f(z) passes the floor, else on X."""
    z = _check_vector("z", z, spec.p, 0.0, math.inf, 1e-12)
    return _evaluator(spec, spec.data.normal.formed_gram())(z)[:2]


def _capped_box_gap(z: np.ndarray, g: np.ndarray, budget: int) -> float:
    """g^T z - min of g^T w over {w in [0,1]^m : sum(w) <= budget}, for g <= 0
    (a gradient of f or of v3's g) and budget < m: weight 1 on the ``budget``
    smallest entries."""
    return float(g @ z) - float(np.partition(g, budget - 1)[:budget].sum())


def _projected_gradient(fval_grad, project, gap, x, tol, max_iter, width=1.0, propose=None):
    """Nonmonotone spectral projected gradient (SPG2) from ``x``.

    Each iteration projects once, d = P(x - step*grad) - x, with ``step`` the
    Barzilai-Borwein step s^T s / s^T y of the last move (s and y the changes
    in x and in the gradient; the last step doubled when s^T y <= 0), cut
    where its move step*||grad|| would pass _MAX_MOVE times ``width``, the
    largest extent of a coordinate of the feasible set.  The step starts
    infinite, so the first move is that cut itself, _MAX_MOVE widths whatever
    the units of the gradient (one width where every grad_i^2 underflows, so
    that ||grad|| reads 0).  It halves t along x + t*d, with no further
    projection, until an Armijo test against the largest of the last
    NONMONOTONE_MEMORY values passes (Birgin, Martinez & Raydan, SIAM J.
    Optim. 2000, Alg. 2.2; Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal.
    1986); t = 1 takes the projected point itself, so exact 0s and 1s stay.

    ``propose(x, grad)``, when given, is asked first on every iteration and
    may offer a feasible point x_N: the capped-box driver offers the Newton
    point of f on x's face once x's support equals the previous iterate's (see
    :func:`_capped_box_minimum`), and None otherwise.  The iteration moves to
    x_N instead of taking its spectral step only if x_N descends,
    grad^T (x_N - x) < 0, and passes the monotone Armijo test
    f(x_N) < f(x) + ARMIJO_C * grad^T (x_N - x) against f(x) itself, not the
    nonmonotone reference, strictly: on the minimizer of a face that is not
    optimal, Newton moves below the rounding of f would otherwise pass at
    y*1e8 and keep the loop from the spectral step that leaves the face.  The
    step is then updated from that move as from any other.  A rejected x_N
    costs its evaluation and changes nothing else.

    Stops when the certified gap ``gap(x, grad)`` is at most tol*|value|
    (every value it serves is positive when y != 0); as fault guards, also
    when no step makes progress or when the state (x, step) repeats
    (zero-decrease steps can cycle at the rounding floor).  Returns (x, value,
    minimizer, iterations, gap, converged) at the returned x, the minimizer
    being what ``fval_grad(x)`` -> (value, gradient, minimizer) solved for
    (v4's b, v3's beta, x itself for v1); a value or gap that is not finite
    raises NumericalError.
    """
    val, grad, mini = fval_grad(x)
    recent = deque([val], maxlen=NONMONOTONE_MEMORY)
    seen = set()  # hashed (x, step) states after each move
    step = math.inf  # so the first move is the longest the cut allows
    for iters in range(1, max_iter + 1):
        g = gap(x, grad)
        if not (math.isfinite(val) and math.isfinite(g)):
            raise NumericalError(f"projected gradient met a non-finite value {val} or gap {g}")
        if g <= tol * abs(val):
            return x, val, mini, iters, g, True
        x_new = None if propose is None else propose(x, grad)
        if x_new is not None:
            s = x_new - x
            descent = float(grad @ s)
            if descent < 0.0:
                val_new, grad_new, mini_new = fval_grad(x_new)
            # strict: a move whose decrease is below the rounding of f is not taken
            if not (descent < 0.0 and val_new < val + ARMIJO_C * descent):
                x_new = s = grad_new = mini_new = None  # rejected: none of it is held
        if x_new is None:
            gg, reach = float(grad @ grad), _MAX_MOVE * width
            if step == math.inf or step * step * gg > reach * reach:
                # gg is 0, with g > 0, only where every grad_i^2 underflows
                step = reach / math.sqrt(gg) if gg > 0.0 else width
            x_new = project(x - step * grad)
            d, t, ref = x_new - x, 1.0, max(recent)
            slope = ARMIJO_C * float(grad @ d)
            while True:
                val_new, grad_new, mini_new = fval_grad(x_new)
                if val_new <= ref + t * slope:
                    break
                t *= 0.5
                if t < 1e-18:
                    x_new = x
                    break
                x_new = x + t * d
            s = x_new - x
        state = (hash(x_new.tobytes()), step)
        if not s.any() or state in seen:
            return x, val, mini, iters, g, False  # stationary to rounding, gap > tol
        seen.add(state)
        sy = float(s @ (grad_new - grad))
        step = float(s @ s) / sy if sy > 0.0 else step * 2.0
        x, val, grad, mini = x_new, val_new, grad_new, mini_new
        recent.append(val)
    return x, val, mini, max_iter, gap(x, grad), False


def _fixed_sets(spec, fixed_one, fixed_zero):
    """Sorted fixed-one indices and the free ones; the sets must be disjoint,
    in range and hold at most k ones."""
    one, zero = _clean_support(spec, fixed_one), _clean_support(spec, fixed_zero)
    if np.intersect1d(one, zero).size:
        raise InvalidArgumentError("fixed_one and fixed_zero must be disjoint")
    if one.size > spec.k:
        raise InvalidArgumentError("more fixed-one indices than the budget k")
    free = np.ones(spec.p, dtype=bool)
    free[one] = free[zero] = False
    return one, np.flatnonzero(free)


def _capped_box_minimum(spec, evaluator, tol, max_iter, fixed_one=(), fixed_zero=(), z0=None):
    """Minimize a convex g(z), nonincreasing in z, over the capped box by
    nonmonotone spectral projected gradient.  ``evaluator()`` is called once
    the arguments pass their checks and returns the solve's one evaluator,
    z -> (g(z), its gradient, its minimizer b, its Hessian on a face or None)
    as :func:`_evaluator` returns them for f, where the Hessian maps an index
    array F to the block H_FF at z.  The closed-form cases evaluate with it
    too, and every record's ``beta`` is the b of the evaluation at its z.

    ``fixed_one`` / ``fixed_zero`` pin coordinates of z at 1 / 0 (used by
    the exact solver's tree search); the remaining coordinates are
    optimized over the budget k - |fixed_one|.  ``lower_bound`` is the
    supporting hyperplane's minimum over the capped box, g(z) + min_w
    grad g(z)^T (w - z) (weight 1 on the ``budget`` most negative gradient
    entries); it is the value itself in the closed-form cases.  A warm start
    ``z0`` must be a finite length-p vector; its free entries are projected
    onto the box.  Without one the loop starts at the vertex with weight 1 on
    the ``budget`` free coordinates of largest |c_i|, c = X^T y read from the
    dataset's normal equations (a stable sort: ties to the lowest index).

    Where the evaluator gives a Hessian, the loop is offered a face-Newton
    point once the support has settled: when the iterate's support (which
    free z_i are above 0) equals the previous iterate's, the Newton point of
    g over the fractional set F, with the other coordinates held and, when
    sum(z) is at the budget, bordered by the budget row (sum of the move 0),
    projected onto the box.  :func:`_projected_gradient` takes it only if it
    descends.
    """
    _check_positive("tol", tol)
    max_iter = _check_integer("max_iter", max_iter, 1)
    if z0 is not None:
        z0 = _check_vector("z0", z0, spec.p)
    one, free = _fixed_sets(spec, fixed_one, fixed_zero)
    budget = spec.k - one.size
    z = np.zeros(spec.p)
    z[one] = 1.0
    evaluate = evaluator()
    if free.size == 0 or budget <= 0 or budget >= free.size:
        if budget > 0:
            z[free] = 1.0  # g decreases in every coordinate: saturate the box
        val, _, b, _ = evaluate(z)
        return _certified(z, val, 0, 0.0, True, b)

    # g's Hessian at the loop's last evaluation, which is always at the iterate
    # that the next proposal starts from
    hessian = None

    def fval_grad(zf):  # the loop's x is z on the free coordinates
        nonlocal hessian
        hessian = None  # the last fit's factor goes before the next one is built
        z[free] = zf
        val, grad, b, hessian = evaluate(z)
        return val, grad[free], b

    def project(v):  # v is the loop's own finite vector: no checks
        return _project(v, budget)

    support = None  # the last iterate's support: which free coordinates are above 0

    def propose(x, grad):
        nonlocal support, hessian
        above = x > 0.0
        code = above.tobytes()
        settled, support = code == support, code
        # taken, so the fit's factor is freed once H_FF is formed
        face_hessian, hessian = hessian, None
        if not settled or face_hessian is None:
            return None
        F = np.flatnonzero(above & (x < 1.0))
        bordered = x.sum() >= budget * (1.0 - 1e-9)  # sum(z) at the budget, to rounding
        if F.size <= bordered:
            return None  # nothing to move
        H = face_hessian(free[F])
        del face_hessian
        if H is None:
            return None
        try:
            R = cholesky(H)
            del H
            sol = cholesky_solve(R, np.column_stack([grad[F], np.ones(F.size)]))
        except NumericalError:
            return None  # H_FF singular or not finite: no Newton point
        d = -sol[:, 0]
        if bordered:
            d += (sol[:, 0].sum() / sol[:, 1].sum()) * sol[:, 1]  # so that sum(d) = 0
        v = x.copy()
        v[F] += d
        return project(v) if np.isfinite(v).all() else None

    if z0 is not None:
        zf = project(z0[free])
    else:
        zf = np.zeros(free.size)
        zf[np.argsort(-np.abs(spec.data.normal.c[free]), kind="stable")[:budget]] = 1.0
    # overflow (as at a tiny lam) is reported by the loop's non-finite value or gap
    with np.errstate(over="ignore", invalid="ignore"):
        zf, val, b, iters, gap, converged = _projected_gradient(
            fval_grad, project, lambda x, g: _capped_box_gap(x, g, budget), zf, tol, max_iter,
            propose=propose,
        )
    z[free] = zf
    return _certified(z, val, iters, gap, converged, b)


def solve_v4(
    spec: ProblemSpec,
    tol: float = 1e-7,
    max_iter: int = 5000,
    fixed_one=(),
    fixed_zero=(),
    z0: np.ndarray | None = None,
) -> RelaxationSolution:
    """f(z) minimized over the capped box by :func:`_capped_box_minimum`, with
    face-Newton proposals once the support settles.

    Without a warm start ``z0`` it starts at the capped-box vertex, where the
    move-capped first step from z = 0 lands, so its first evaluation is on
    the |S| <= k side.

    The solve forms X^T X when p <= n and hands it to its one evaluator, so
    each evaluation whose value passes the floor takes the Gram route and
    every other one the X route (:func:`_evaluator`).
    """
    return _capped_box_minimum(spec, lambda: _evaluator(spec, spec.data.normal.G), tol,
                               max_iter, fixed_one, fixed_zero, z0)


def solve_v2_perspective(spec: ProblemSpec) -> RelaxationSolution:
    """Perspective relaxation value: :func:`solve_v4`'s record, beta included.

    With mu_i = beta_i^2 / z_i eliminated at any optimum, v2 is f(z) minimized
    over the capped box, which is v4.  A function, not an alias, so that a
    tracer that wraps public names tells the two apart.
    """
    return solve_v4(spec)


def _positive_bounds(spec: ProblemSpec, M: BigMVector) -> np.ndarray:
    # one per feature (numpy would broadcast a length-1 M silently); v1 searches
    # with slopes 1/M_i**2, which must stay positive and finite, and M_i = 0 (as
    # big_m gives where X^T y = 0 at the level y^T y/n) holds beta_i = z_i = 0
    Mv = _check_vector("big-M bounds", M.M, spec.p, 0.0, 1e150)
    if (tiny := Mv[(0.0 < Mv) & (Mv < 1e-150)]).size:
        raise InvalidArgumentError(f"big-M bounds must be 0 or at least 1e-150, got {tiny[0]}")
    return Mv


def _project_weighted_l1_box(v: np.ndarray, M: np.ndarray, k: float) -> np.ndarray:
    """Projection onto {b : sum(|b_i|/M_i) <= k, |b_i| <= M_i}.

    When the budget binds, b_i = sign(v_i) * M_i * clip(|v_i|/M_i - tau/M_i^2,
    0, 1) with the shift tau > 0 that spends it exactly.
    """
    b = np.clip(v, -M, M)
    if float(np.sum(np.abs(b) / M)) <= k + 1e-15:
        return b
    return np.sign(v) * M * _fill_budget(np.abs(v) / M, 1.0 / M**2, 0.0, k)


def solve_v1(
    spec: ProblemSpec,
    M: BigMVector,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> RelaxationSolution:
    """Big-M relaxation value by projected gradient with z eliminated.

    Feasibility in (beta, z) reduces to sum(|beta_i|/M_i) <= k and
    |beta_i| <= M_i, so the ridge objective is minimized over a weighted-L1
    ball intersected with a box, starting from the projected ridge fit.  The
    gap's minimum of grad^T w over that set puts |w_i| = M_i against the sign
    of grad_i on the k largest |grad_i|*M_i.  A bound M_i = 0 holds
    beta_i = z_i = 0: the search runs on the other coordinates.
    """
    Mv = _positive_bounds(spec, M)
    _check_positive("tol", tol)
    max_iter = _check_integer("max_iter", max_iter, 1)
    n, lam, k, eq, F = spec.n, spec.lam, spec.k, spec.data.normal, np.flatnonzero(Mv)
    MF, X, y = Mv[F], eq.columns(F), eq.response  # X itself when no M_i is 0

    def fval_grad(b):
        r = y - X @ b
        return float(r @ r / n + lam * (b @ b)), 2.0 * (lam * b - X.T @ r / n), b

    def gap(b, g):
        top = np.abs(g) * MF  # all of it when at most k coordinates are searched
        if top.size > k:
            top = np.partition(top, top.size - k)[top.size - k:]
        return float(g @ b) + float(top.sum())

    beta0 = _project_weighted_l1_box(_support_fit(spec, F)[0][F], MF, k)
    b, val, _, iters, gap_val, converged = _projected_gradient(
        fval_grad, lambda b: _project_weighted_l1_box(b, MF, k), gap, beta0, tol, max_iter,
        float(Mv.max()),
    )
    beta, z = np.zeros(spec.p), np.zeros(spec.p)
    beta[F], z[F] = b, np.abs(b) / MF
    return _certified(z, val, iters, gap_val, converged, beta)


def solve_v3(
    spec: ProblemSpec,
    M: BigMVector,
    tol: float = 1e-9,
    max_iter: int = 20000,
) -> RelaxationSolution:
    """Perspective-plus-big-M relaxation value: g(z), convex and nonincreasing in z,
    minimized by :func:`_capped_box_minimum` from the capped-box vertex with v4's
    :func:`_evaluator`.  Where its b keeps |b_i| <= M_i z_i, g is f: v4's value, b and
    face Hessian stand, and grad g_i is v4's -lam*a_i^2 where |a_i| = sqrt(grad_i/-lam)
    <= M_i, else lam*M_i*(M_i - 2|a_i|).  Where a bound binds, or grad g is not finite
    (as at a tiny lam), :func:`_perspective_fit` runs from v4's b.  M_i = 0 fixes z_i = 0.
    """
    Mv, lam = _positive_bounds(spec, M), spec.lam

    def evaluator():
        evaluate = _evaluator(spec, spec.data.normal.G)

        def bounded(z):
            val, grad, b, hessian = evaluate(z)
            absa = np.sqrt(grad / -lam)
            grad = np.where(absa <= Mv, grad, lam * Mv * (Mv - 2.0 * absa))
            if np.isfinite(grad).all() and (np.abs(b) <= Mv * z).all():
                return val, grad, b, hessian
            return *_perspective_fit(spec, z, Mv, b), None

        return bounded

    return _capped_box_minimum(spec, evaluator, tol, max_iter,
                               fixed_zero=np.flatnonzero(Mv == 0.0))
