"""Exact solvers: exhaustive enumeration and relaxation-bounded tree search.

Enumeration is sound because the projected objective f(S) is non-increasing
under support growth, so only supports of size exactly k need scoring.  Each
is scored as a one-column extension of its (k-1)-prefix, in blocks of bounded
memory and with no p x p object on a wide design (``core._best_support``).

The branch-and-bound solver is one best-first loop over nodes that fix
coordinates of the binary selection vector z at 1 or 0; each node is bounded
by one masked ``solve_v4`` on the free coordinates.  Because that relaxation
is solved inexactly (first-order method), a node is never pruned on the
achieved value alone but on the solve's certified ``lower_bound``, the
supporting hyperplane at the returned point,

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
    _FLOAT_MAX,
    ProblemSpec,
    SparseEstimator,
    _best_support,
    _check_enumeration,
    _check_integer,
    _check_real,
    _support_fit,
    restricted_estimator,
)
from .greedy import greedy_select
from .relaxation import solve_v4

BRUTE_FORCE_CAP = 2 * 10**6
PRUNE_REL_TOL = 1e-12
INTEGRALITY_TOL = 1e-6
# Node solves: tighter than solve_v4's defaults, because B&B prunes on their bounds.
RELAX_TOL = 1e-8
RELAX_MAX_ITER = 20000


def brute_force(spec: ProblemSpec, cap: int = BRUTE_FORCE_CAP) -> SparseEstimator:
    """Globally optimal estimator: a size-k support of least computed value, the
    lexicographically first of equal ones (``core._best_support``), refit by
    ``restricted_estimator``.  Requires C(p, k) <= cap."""
    _check_enumeration(spec.p, spec.k, _check_integer("cap", cap, 0))
    return restricted_estimator(spec, _best_support(spec))


@dataclass(frozen=True)
class BnBResult:
    estimator: SparseEstimator
    final_gap: float
    nodes_explored: int
    root_bound: float
    optimal: bool

    def to_json_dict(self) -> dict:
        # strict JSON: a search stopped before its root (node_cap=0) has gap inf
        # and no root bound (NaN), both written as null
        gap, root = self.final_gap, self.root_bound
        return {
            "value": self.estimator.objective,
            "support": list(self.estimator.support),
            "gap": gap if math.isfinite(gap) else None,
            "nodes": self.nodes_explored,
            "root_bound": root if math.isfinite(root) else None,
        }


def branch_and_bound(
    spec: ProblemSpec, gap_tol: float = 1e-6, node_cap: int = 10**5
) -> BnBResult:
    """Solve the selection problem to a proven relative gap.

    Best-first search.  Each node is bounded by one masked ``solve_v4``,
    warm-started from its parent's z, and pruned once its certified
    ``lower_bound`` reaches the incumbent, which greedy seeds and every
    integral node is offered to (so closed-form nodes close this way).
    Branching is on the most fractional free coordinate (ties to the lowest
    index).  Hitting ``node_cap`` returns the incumbent with the remaining
    gap flagged (``optimal=False``).
    """
    gap_tol = _check_real("gap_tol", gap_tol, 0.0, _FLOAT_MAX)
    node_cap = _check_integer("node_cap", node_cap, 0)
    incumbent, _ = greedy_select(spec)
    inc_val, inc_support = incumbent.objective, incumbent.support

    def offer(support: np.ndarray) -> None:
        nonlocal inc_val, inc_support
        val = _support_fit(spec, support)[1]
        if val < inc_val:
            inc_val, inc_support = val, support

    def rel_gap(lb: float) -> float:
        if not math.isfinite(lb):
            return math.inf
        if inc_val <= 0.0:
            return 0.0 if lb >= inc_val else math.inf
        return max(0.0, (inc_val - lb) / inc_val)

    counter = itertools.count()
    heap = [(-math.inf, 0, next(counter), (), (), None)]
    nodes = 0
    root_value = math.nan
    gap, optimal = 0.0, True  # an exhausted heap proves the incumbent
    while heap:
        lb, depth, _, ones, zeros, z_warm = heapq.heappop(heap)
        # best-first: the popped key is the current global lower bound
        if rel_gap(lb) <= gap_tol or nodes >= node_cap:
            gap = rel_gap(lb)
            optimal = gap <= gap_tol
            break
        nodes += 1
        sol = solve_v4(spec, tol=RELAX_TOL, max_iter=RELAX_MAX_ITER,
                       fixed_one=ones, fixed_zero=zeros, z0=z_warm)
        if depth == 0:
            root_value = sol.value
        # Fixed coordinates are exactly 0 or 1, so only free ones can be fractional.
        if np.minimum(sol.z, 1.0 - sol.z).max() <= INTEGRALITY_TOL:
            offer(np.flatnonzero(sol.z >= 0.5))
        if sol.lower_bound >= inc_val * (1.0 - PRUNE_REL_TOL):
            continue
        free = np.setdiff1d(np.arange(spec.p), ones + zeros)
        j = int(free[np.argmin(np.abs(sol.z[free] - 0.5))])
        key = max(sol.lower_bound, lb)  # keep popped keys monotone
        heapq.heappush(heap, (key, depth + 1, next(counter), ones,
                              tuple(sorted(zeros + (j,))), sol.z))
        ones_j = tuple(sorted(ones + (j,)))
        if len(ones_j) == spec.k:
            offer(np.array(ones_j, np.intp))
        else:
            heapq.heappush(heap, (key, depth + 1, next(counter), ones_j, zeros, sol.z))

    return BnBResult(
        estimator=restricted_estimator(spec, inc_support),
        final_gap=gap,
        nodes_explored=nodes,
        root_bound=root_value,
        optimal=optimal,
    )
