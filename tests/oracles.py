"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths of the package itself:
plain loops, explicit Gaussian elimination, grid searches, bisection and
finite differences.  Slow is fine; these run on small instances only.
"""

import decimal
import itertools
import math

import numpy as np


def naive_ridge_objective(X, y, lam, beta):
    """Objective evaluated with explicit Python loops."""
    n, p = X.shape
    total = 0.0
    for i in range(n):
        pred = 0.0
        for j in range(p):
            pred += X[i, j] * beta[j]
        total += (y[i] - pred) ** 2
    pen = 0.0
    for j in range(p):
        pen += beta[j] ** 2
    return total / n + lam * pen


def gauss_solve(A, b):
    """Dense solve by Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m = A.shape[0]
    for col in range(m):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, m):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(m)
    for row in range(m - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def subset_fit_oracle(X, y, lam, S):
    """Length-p ridge fit on support S via Gaussian elimination."""
    n, p = X.shape
    S = sorted(S)
    beta = np.zeros(p)
    if S:
        Xs = X[:, S]
        beta_s = gauss_solve(Xs.T @ Xs + n * lam * np.eye(len(S)), Xs.T @ y)
        beta[S] = beta_s
    return beta


def subset_value_oracle(X, y, lam, S):
    return naive_ridge_objective(X, y, lam, subset_fit_oracle(X, y, lam, S))


def selection_value_oracle(X, y, lam, S):
    """f(S) = lam * y^T (n lam I + sum_{i in S} x_i x_i^T)^{-1} y directly."""
    n = X.shape[0]
    A = n * lam * np.eye(n)
    for i in S:
        A += np.outer(X[:, i], X[:, i])
    return float(lam * (y @ np.linalg.solve(A, y)))


def projection_tau_bisection(v, k, iters=200):
    """Capped-simplex projection by plain bisection on the shift tau."""
    v = np.asarray(v, dtype=float)
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= k:
        return clipped
    lo, hi = 0.0, float(v.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, 1.0).sum() > k:
            lo = mid
        else:
            hi = mid
    return np.clip(v - hi, 0.0, 1.0)


def weighted_l1_box_projection_bisection(v, M, k, iters=200):
    """Projection onto {b : sum(|b_i|/M_i) <= k, |b_i| <= M_i} by plain
    bisection on the soft-threshold shift tau."""
    v = np.asarray(v, dtype=float)
    M = np.asarray(M, dtype=float)

    def shrink(tau):
        return np.sign(v) * np.minimum(M, np.maximum(0.0, np.abs(v) - tau / M))

    if np.sum(np.abs(shrink(0.0)) / M) <= k:
        return shrink(0.0)
    lo, hi = 0.0, float(np.max(np.abs(v) * M))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.abs(shrink(mid)) / M) > k:
            lo = mid
        else:
            hi = mid
    return shrink(hi)


def waterfill_bisection(beta, k, lower, iters=200):
    """Water-filling by plain bisection on the level t: z_i = clip(|beta_i|*t,
    lower_i, 1) where beta_i != 0 and z_i = lower_i elsewhere, with sum(z) == k
    when the budget binds."""
    absb = np.abs(np.asarray(beta, dtype=float))
    lower = np.asarray(lower, dtype=float)
    nz = absb > 0

    def fill(t):
        return np.where(nz, np.clip(absb * t, lower, 1.0), lower)

    full = np.where(nz, 1.0, lower)
    if full.sum() <= k:
        return full
    lo, hi = 0.0, 1.0 / absb[nz].min()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fill(mid).sum() > k:
            hi = mid
        else:
            lo = mid
    return fill(hi)


def waterfill_objective_grid(beta, k, lower=None, levels=200001):
    """Best sum(beta_i^2/z_i) over a fine grid of water levels nu."""
    beta = np.asarray(beta, dtype=float)
    p = beta.shape[0]
    lower = np.zeros(p) if lower is None else np.asarray(lower, dtype=float)
    absb = np.abs(beta)
    nz = absb > 0

    def feasible_objective(z):
        if z[nz].min(initial=np.inf) <= 0 or z.sum() > k + 1e-9:
            return np.inf
        return float(np.sum(absb[nz] ** 2 / z[nz]))

    best = np.inf
    full = np.where(nz, 1.0, lower)
    if full.sum() <= k + 1e-12:
        best = feasible_objective(full)
    nus = np.geomspace(max(absb.max(), 1e-12) * 1e-6, absb.max() * 1e6, levels)
    for nu in nus:
        z = np.where(nz, np.clip(absb / nu, lower, 1.0), lower)
        val = feasible_objective(z)
        best = min(best, val)
    return best


def finite_difference_gradient(fun, z, h=1e-5):
    z = np.asarray(z, dtype=float)
    g = np.zeros_like(z)
    for i in range(z.shape[0]):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (fun(zp) - fun(zm)) / (2 * h)
    return g


def projected_objective_exact(X, y, lam, z):
    """f(z) = lam*y^T A(z)^-1 y and its gradient -lam*(x_i^T u)^2, u = A(z)^-1 y.

    A(z) = n*lam*I + X diag(z) X^T is formed on the n x n side and solved by
    Gaussian elimination (A is positive definite, so no pivoting) in 60-digit
    decimal arithmetic, then rounded once to floats.
    """
    n, p = X.shape
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        Xd = [[D(v) for v in row] for row in np.asarray(X).tolist()]
        zd = [D(v) for v in np.asarray(z).tolist()]
        yd = [D(v) for v in np.asarray(y).tolist()]
        lamd = D(lam)
        cols = [i for i in range(p) if zd[i]]
        A = [[sum((zd[i] * Xd[r][i] * Xd[c][i] for i in cols), D(0))
              for c in range(n)] for r in range(n)]
        for r in range(n):
            A[r][r] += n * lamd
        b = list(yd)
        for col in range(n):
            for row in range(col + 1, n):
                f = A[row][col] / A[col][col]
                for c in range(col, n):
                    A[row][c] -= f * A[col][c]
                b[row] -= f * b[col]
        u = [D(0)] * n
        for row in range(n - 1, -1, -1):
            acc = b[row] - sum((A[row][c] * u[c] for c in range(row + 1, n)), D(0))
            u[row] = acc / A[row][row]
        value = lamd * sum((yi * ui for yi, ui in zip(yd, u)), D(0))
        grad = [-lamd * sum((Xd[r][i] * u[r] for r in range(n)), D(0)) ** 2
                for i in range(p)]
        return float(value), np.array([float(g) for g in grad])


def monotone_projected_gradient(fval_grad, project, gap, x, tol, max_iter, width=1.0,
                                propose=None, armijo_c=1e-4):
    """The package's former projected-gradient loop, kept as a reference.

    Same interface (``fval_grad`` returns (value, gradient, minimizer), the
    minimizer of the accepted iterate is returned, and ``width``, which bounds
    the package's moves, and ``propose``, the package's face-Newton proposal,
    go unused),
    Barzilai-Borwein steps, gap stop and fault guards as
    ``sparseridge.relaxation._projected_gradient``, but monotone: every
    rejected trial halves the step and projects again, until the value
    falls by the Armijo amount below the current one.
    """
    val, grad, mini = fval_grad(x)
    seen = set()
    step = 2.0
    for iters in range(1, max_iter + 1):
        g = gap(x, grad)
        if g <= tol * (1.0 + abs(val)):
            return x, val, mini, iters, g, True
        while True:
            x_new = project(x - step * grad)
            val_new, grad_new, mini_new = fval_grad(x_new)
            if val_new <= val + armijo_c * float(grad @ (x_new - x)):
                break
            step *= 0.5
            if step < 1e-18:
                x_new = x
                break
        state = (hash(x_new.tobytes()), step)
        if np.array_equal(x_new, x) or state in seen:
            return x, val, mini, iters, g, False
        seen.add(state)
        s = x_new - x
        sy = float(s @ (grad_new - grad))
        step = min(float(s @ s) / sy if sy > 0.0 else step * 2.0, 1e12)
        x, val, grad, mini = x_new, val_new, grad_new, mini_new
    return x, val, mini, max_iter, gap(x, grad), False


# The weight at or below which these references drop a coordinate.
_Z_FLOOR = 1e-14


def perspective_value(spec, beta: np.ndarray, z: np.ndarray) -> float:
    """(1/n)||y - X beta||^2 + lam*sum(beta_i^2/z_i), with 0/0 := 0."""
    r = spec.y - spec.X @ beta
    pen = np.zeros_like(beta)
    nz = np.abs(beta) > 0
    pen[nz] = beta[nz] ** 2 / z[nz]
    return float(r @ r / spec.n + spec.lam * pen.sum())


def box_weighted_ridge_cd(
    spec,
    z: np.ndarray,
    M: np.ndarray,
    beta0: np.ndarray,
    sweeps: int = 2000,
    tol: float = 1e-13,
) -> np.ndarray:
    """Coordinate descent for min (1/n)||y-Xb||^2 + lam*sum(b_i^2/z_i)
    subject to |b_i| <= M_i z_i.  Exact clamped updates; strongly convex."""
    X, y, n, lam = spec.X, spec.y, spec.n, spec.lam
    p = spec.p
    beta = beta0.copy()
    bound = M * z
    beta = np.clip(beta, -bound, bound)
    beta[z <= _Z_FLOOR] = 0.0
    r = y - X @ beta
    colsq = np.sum(X**2, axis=0) / n
    for _ in range(sweeps):
        max_delta = 0.0
        for i in range(p):
            if z[i] <= _Z_FLOOR:
                if beta[i] != 0.0:
                    r += X[:, i] * beta[i]
                    beta[i] = 0.0
                continue
            a = colsq[i] + lam / z[i]
            c = float(X[:, i] @ r) / n + colsq[i] * beta[i]
            b_new = min(bound[i], max(-bound[i], c / a))
            d = b_new - beta[i]
            if d != 0.0:
                r -= X[:, i] * d
                beta[i] = b_new
                max_delta = max(max_delta, abs(d))
        if max_delta <= tol * max(1.0, float(np.abs(beta).max())):
            break
    return beta


def perspective_alternating(spec, tol=1e-9, max_iter=50000):
    """The perspective relaxation v2 by exact alternating minimization.

    The package's former v2 solver, kept as a second algorithm for the value
    that ``solve_v4`` computes by projected gradient.  Each cycle takes the
    weighted ridge fit b = argmin (1/n)||y - X b||^2 + lam*sum(b_i^2 / z_i)
    on the coordinates with z_i above the weight floor, then water-fills z;
    it stops when a cycle decreases the value by at most ``tol``.  The
    initial z is interior so no coordinate is pinned to the 0/0 face by
    accident.  The ridge fit and water-filling are the package's, each
    checked against its own reference.
    """
    from sparseridge import RelaxationSolution, waterfill_z
    from sparseridge.core import RidgeSystem

    z = np.full(spec.p, min(1.0, spec.k / spec.p))
    beta = np.zeros(spec.p)
    prev = val = decrease = np.inf
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        beta = np.zeros(spec.p)
        active = np.flatnonzero(z > _Z_FLOOR)
        system = RidgeSystem(spec.data, active, z[active], spec.n * spec.lam)
        beta[active] = system.fit(spec.y)[0]
        z = waterfill_z(beta, spec.k)
        nz = beta != 0.0
        r = spec.y - spec.X @ beta
        val = float(r @ r / spec.n + spec.lam * np.sum(beta[nz] ** 2 / z[nz]))
        decrease = prev - val
        if decrease <= tol:
            converged = True
            break
        prev = val
    return RelaxationSolution(
        z=z, value=val, iterations=iters,
        kkt_residual=float(abs(decrease)) if np.isfinite(decrease) else np.inf,
        converged=converged, beta=beta,
    )


def proximal_gradient_elastic_net(X, y, lam, gamma, iters=200000, tol=1e-14):
    """Long-run proximal gradient for (1/n)||y-Xb||^2 + lam||b||^2 + gamma||b||_1."""
    n, p = X.shape
    L = 2.0 * (np.linalg.norm(X, 2) ** 2 / n + lam)
    step = 1.0 / L
    beta = np.zeros(p)
    for _ in range(iters):
        grad = 2.0 * (X.T @ (X @ beta - y)) / n + 2.0 * lam * beta
        w = beta - step * grad
        beta_new = np.sign(w) * np.maximum(np.abs(w) - step * gamma, 0.0)
        if np.abs(beta_new - beta).max() <= tol:
            beta = beta_new
            break
        beta = beta_new
    return beta


def elastic_net_objective(X, y, lam, gamma, beta):
    n = X.shape[0]
    r = y - X @ beta
    return float(r @ r / n + lam * (beta @ beta) + gamma * np.abs(beta).sum())


def min_l1_path_scan(X, y, lam, level, points=4000):
    """Smallest ||b||_1 along the penalty path with objective <= level.

    Scans gamma from (2/n)||X^T y||_inf down to 0 on a dense grid, using a
    long proximal-gradient solve at each point.  The level test allows
    1e-12 * (1 + level) of rounding, so a level at the ridge minimum is met
    at gamma = 0.
    """
    n = X.shape[0]
    gamma_max = 2.0 * float(np.abs(X.T @ y).max()) / n
    best_l1 = None
    for gamma in np.linspace(gamma_max, 0.0, points):
        beta = proximal_gradient_elastic_net(X, y, lam, gamma, iters=20000, tol=1e-12)
        r = y - X @ beta
        if float(r @ r / n + lam * (beta @ beta)) <= level + 1e-12 * (1.0 + level):
            best_l1 = float(np.abs(beta).sum())
            break
    return best_l1


def hat_diagonal_oracle(X, y, lam, S):
    """GCV pieces from the explicitly formed hat matrix."""
    n = X.shape[0]
    S = sorted(S)
    if not S:
        return np.zeros(n), np.zeros(n)
    Xs = X[:, S]
    H = Xs @ np.linalg.inv(Xs.T @ Xs + n * lam * np.eye(len(S))) @ Xs.T
    return np.diag(H).copy(), H @ y


def max_subset_eig_oracle(X, s):
    """theta_s by enumerating subsets and eigendecomposing X_S X_S^T."""
    p = X.shape[1]
    best = 0.0
    for S in itertools.combinations(range(p), s):
        G = X[:, S] @ X[:, S].T
        best = max(best, float(np.linalg.eigvalsh(G)[-1]))
    return best


def min_large_subset_eig_oracle(X, k):
    """underline-theta by enumerating all |T| >= p - k + 1 directly."""
    n, p = X.shape
    best = math.inf
    for t in range(p - k + 1, p + 1):
        for T in itertools.combinations(range(p), t):
            G = X[:, T] @ X[:, T].T
            best = min(best, max(0.0, float(np.linalg.eigvalsh(G)[0])))
    return best


def min_l1_gamma_bisection(spec, level, beta0=None, tol=1e-8, width=1e-10):
    """Minimum-L1 point at ``level`` by bisecting the L1 weight gamma.

    The bisection heuristic's former inner engine: every step is a
    coordinate-descent solve of the penalized problem, warm-started from the
    previous one, and the largest gamma whose solution meets the level wins.
    """
    from sparseridge import elastic_net_cd, ridge_objective

    if ridge_objective(spec, np.zeros(spec.p)) <= level:
        return np.zeros(spec.p)
    best = warm = elastic_net_cd(spec, 0.0, tol=tol, beta0=beta0)
    lo, hi = 0.0, 2.0 * float(np.abs(spec.X.T @ spec.y).max()) / spec.n
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        warm = elastic_net_cd(spec, mid, tol=tol, beta0=warm)
        if ridge_objective(spec, warm) <= level:
            lo, best = mid, warm
        else:
            hi = mid
    return best


def heuristic_gamma_bisection(spec, delta_hat, zero_tol=1e-8):
    """The objective-level bisection heuristic over ``min_l1_gamma_bisection``.

    Returns the final witness support, the branch of every level and the
    zero count of every level (0 for levels below the ridge minimum).
    """
    X, y, n, p, k, lam = spec.X, spec.y, spec.n, spec.p, spec.k, spec.lam
    ridge_min = lam * float(y @ np.linalg.solve(n * lam * np.eye(n) + X @ X.T, y))
    lower, upper = 0.0, float(y @ y) / n
    support, branches, zero_counts = (), [], []
    warm = None
    while upper - lower > delta_hat:
        q = 0.5 * (lower + upper)
        if q < ridge_min:
            lower = q
            branches.append("up")
            zero_counts.append(0)
            continue
        beta = warm = min_l1_gamma_bisection(spec, q, beta0=warm)
        nonzero = np.abs(beta) > zero_tol * max(1.0, float(np.abs(beta).max()))
        zeros = p - int(np.count_nonzero(nonzero))
        if zeros >= p - k:
            upper = q
            support = tuple(np.flatnonzero(nonzero).tolist())
            branches.append("down")
        else:
            lower = q
            branches.append("up")
        zero_counts.append(zeros)
    return support, branches, zero_counts


def greedy_dense_steps(X, y, lam, steps, candidates=None, tie_tol=1e-12):
    """Greedy forward selection over the dense n x p block A_S^{-1} X.

    The package's former update: every step rewrites the whole block with a
    rank-one outer product.  Returns (chosen, gain, value) per step, with
    ties in the argmin going to the lowest index within ``tie_tol`` times
    f(0) = y^T y / n.
    """
    n, p = X.shape
    nl = n * lam
    inv_products = X / nl
    quad = np.sum(X**2, axis=0) / nl
    cross = (X.T @ y) / nl
    value = float(y @ y) / n
    tie = tie_tol * value
    allowed = np.zeros(p, dtype=bool)
    allowed[np.arange(p) if candidates is None else candidates] = True
    out = []
    for _ in range(steps):
        gains = -lam * cross**2 / (1.0 + quad)
        gains[~allowed] = np.inf
        best = float(gains.min())
        if not np.isfinite(best):
            break
        j = int(np.flatnonzero(gains <= best + tie)[0])
        denom = 1.0 + quad[j]
        w = inv_products[:, j].copy()
        c = X.T @ w
        inv_products = inv_products - np.outer(w, c) / denom
        quad = quad - c**2 / denom
        cross = cross - cross[j] * c / denom
        value += best
        allowed[j] = False
        out.append((j, best, value))
    return out


def randomized_trials_oracle(X, y, lam, k, zhat, trials, seed, repair=True, alpha=0.1):
    """Best-of-trials independent rounding, one draw and one exact fit at a time.

    The package's former per-trial loop: draw t keeps feature i iff
    U_i <= zhat_i, with U from a fresh ``Generator(Philox(key))`` keyed by
    ``SeedSequence([seed, t])``; every draw is fit on its own support; an
    over-budget draw is trimmed to its k largest |beta_i| (stable ranking)
    and refit.  The first of equal values wins.  Returns a dict of the
    reported fields.
    """
    n, p = X.shape
    zhat = np.clip(np.asarray(zhat, dtype=float), 0.0, 1.0)
    best = rep = None
    cards = []
    for t in range(trials):
        key = int(np.random.SeedSequence([seed, t]).generate_state(1, np.uint64)[0])
        z = (np.random.Generator(np.random.Philox(key=key)).random(p) <= zhat).astype(float)
        support = np.flatnonzero(z)
        cards.append(support.size)
        beta = subset_fit_oracle(X, y, lam, support)
        value = naive_ridge_objective(X, y, lam, beta)
        if best is None or value < best["value"]:
            best = {"support": tuple(support.tolist()), "z_tilde": z, "value": value, "seed": key}
        if not repair:
            continue
        kept, kept_value = support, value
        if support.size > k:
            order = np.argsort(np.abs(beta[support]), kind="stable")
            kept = np.sort(support[order[support.size - k:]])
            kept_value = subset_value_oracle(X, y, lam, kept)
        if rep is None or kept_value < rep["value"]:
            rep = {"support": tuple(kept.tolist()), "value": kept_value, "raw_value": value}
    bound = (1.0 + math.sqrt(3.0 * math.log(2.0 / alpha) / k)) * k
    return {
        "best": best,
        "repaired": rep,
        "mean_cardinality": float(np.mean(cards)),
        "p_exceed_bound": sum(c > bound for c in cards) / trials,
    }
