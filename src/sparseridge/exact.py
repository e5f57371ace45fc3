"""Exact solvers: exhaustive enumeration and relaxation-bounded tree search.

Enumeration is sound because the projected objective f(S) is non-increasing
under support growth, so only supports of size exactly k need scoring.

The branch-and-bound solver works on the binary selection vector z: each
node fixes some coordinates at 1 or 0 and bounds the remainder through the
continuous relaxation restricted to the free coordinates.  Because the
relaxation is solved inexactly (first-order method), a node is never pruned
on the solver's achieved value alone; a certified lower bound is taken from
the supporting hyperplane at the returned point,

    min_w f(w) >= f(z) + grad f(z)^T (w* - z),

where w* minimizes the linear form over the node's capped box (put weight 1
on the most negative gradient entries up to the remaining budget).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemSpec,
    SparseEstimator,
    cholesky,
    cholesky_solve,
    mic_value,
    restricted_estimator,
)
from .errors import EnumerationCapError
from .greedy import greedy_select
from .relaxation import solve_v4

BRUTE_FORCE_CAP = 2 * 10**6
PRUNE_REL_TOL = 1e-12
INTEGRALITY_TOL = 1e-6


def brute_force(spec: ProblemSpec, cap: int = BRUTE_FORCE_CAP) -> SparseEstimator:
    """Globally optimal estimator by scoring every size-k support.

    Ties go to the lexicographically smallest support (first found).
    Requires C(p, k) <= cap.
    """
    n, p, k, lam = spec.n, spec.p, spec.k, spec.lam
    count = math.comb(p, k)
    if count > cap:
        raise EnumerationCapError(
            f"C({p}, {k}) = {count} exceeds the enumeration cap {cap}"
        )
    G = spec.X.T @ spec.X
    c = spec.X.T @ spec.y
    yy = float(spec.y @ spec.y)
    ridge = n * lam * np.eye(k)

    # Not RidgeSystem: one Gram serves every subset, where mic_value re-forms X_S^T X_S.
    def value(S: tuple[int, ...]) -> float:
        ix = np.asarray(S)
        b = cholesky_solve(cholesky(G[np.ix_(ix, ix)] + ridge), c[ix])
        return (yy - float(c[ix] @ b)) / n

    # min keeps the first minimizer, which is the lexicographically smallest
    return restricted_estimator(spec, min(itertools.combinations(range(p), k), key=value))


@dataclass(frozen=True)
class BnBNode:
    """A search node: coordinates pinned to one/zero plus its bound."""

    fixed_one: tuple[int, ...]
    fixed_zero: tuple[int, ...]
    lower_bound: float
    depth: int


@dataclass(frozen=True)
class BnBResult:
    estimator: SparseEstimator
    final_gap: float
    nodes_explored: int
    root_bound: float
    optimal: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.estimator.objective,
            "support": list(self.estimator.support),
            "gap": self.final_gap,
            "nodes": self.nodes_explored,
            "root_bound": self.root_bound,
        }


def _node_relaxation(spec, node, z_warm, tol, max_iter):
    """Solve the node relaxation; its ``lower_bound`` certifies the node.

    Returns (solution, free indices, exact flag); ``exact`` marks the
    closed-form cases where the achieved value already equals the node
    optimum.
    """
    sol = solve_v4(
        spec,
        tol=tol,
        max_iter=max_iter,
        fixed_one=node.fixed_one,
        fixed_zero=node.fixed_zero,
        z0=z_warm,
    )
    fixed = set(node.fixed_one) | set(node.fixed_zero)
    free = np.asarray([i for i in range(spec.p) if i not in fixed], dtype=int)
    budget = spec.k - len(node.fixed_one)
    return sol, free, free.size == 0 or budget <= 0 or budget >= free.size


def branch_and_bound(
    spec: ProblemSpec,
    gap_tol: float = 1e-6,
    node_cap: int = 10**5,
    relax_tol: float = 1e-8,
    relax_max_iter: int = 20000,
) -> BnBResult:
    """Solve the selection problem to a proven relative gap.

    Best-first search on certified node bounds; branching on the most
    fractional coordinate (ties to the lowest index); incumbent seeded with
    the greedy solution.  Hitting ``node_cap`` returns the incumbent with
    the remaining gap flagged (``optimal=False``).
    """
    incumbent, _ = greedy_select(spec)
    inc_val = incumbent.objective
    inc_support = incumbent.support

    counter = itertools.count()
    root = BnBNode((), (), -math.inf, 0)
    heap: list[tuple[float, int, int, BnBNode, np.ndarray | None]] = [
        (-math.inf, 0, next(counter), root, None)
    ]
    nodes = 0
    root_value = math.nan

    def result(gap: float, optimal: bool) -> BnBResult:
        return BnBResult(
            estimator=restricted_estimator(spec, inc_support),
            final_gap=gap,
            nodes_explored=nodes,
            root_bound=root_value,
            optimal=optimal,
        )

    def rel_gap(lb: float) -> float:
        if not math.isfinite(lb):
            return math.inf
        if inc_val <= 0.0:
            return 0.0 if lb >= inc_val else math.inf
        return max(0.0, (inc_val - lb) / inc_val)

    while heap:
        lb, _, _, node, z_warm = heapq.heappop(heap)
        # best-first: the popped key is the current global lower bound
        if rel_gap(lb) <= gap_tol:
            return result(rel_gap(lb), True)
        if nodes >= node_cap:
            return result(rel_gap(lb), False)
        nodes += 1

        sol, free, exact = _node_relaxation(spec, node, z_warm, relax_tol, relax_max_iter)
        bound = sol.lower_bound
        if node.depth == 0:
            root_value = sol.value

        zf = sol.z[free] if free.size else np.empty(0)
        frac = np.minimum(zf, 1.0 - zf) if zf.size else np.empty(0)
        integral = frac.size == 0 or float(frac.max()) <= INTEGRALITY_TOL
        if integral:
            support = sorted(
                set(node.fixed_one) | {int(i) for i, v in zip(free, zf) if v >= 0.5}
            )
            val = mic_value(spec, set(support))
            if val < inc_val:
                inc_val, inc_support = val, tuple(support)
        if exact or bound >= inc_val * (1.0 - PRUNE_REL_TOL):
            continue
        # Not provably closed (inexact inner solve): branch on the most
        # fractional free coordinate, ties to the lowest index.
        j = int(free[np.argmin(np.abs(zf - 0.5))])
        child_key = max(bound, lb)  # keep popped keys monotone

        child_zero = BnBNode(
            node.fixed_one,
            tuple(sorted(node.fixed_zero + (j,))),
            child_key,
            node.depth + 1,
        )
        heapq.heappush(
            heap, (child_key, child_zero.depth, next(counter), child_zero, sol.z)
        )

        ones = tuple(sorted(node.fixed_one + (j,)))
        if len(ones) == spec.k:
            val = mic_value(spec, set(ones))
            if val < inc_val:
                inc_val, inc_support = val, ones
        else:
            child_one = BnBNode(ones, node.fixed_zero, child_key, node.depth + 1)
            heapq.heappush(
                heap, (child_key, child_one.depth, next(counter), child_one, sol.z)
            )

    return result(0.0, True)
