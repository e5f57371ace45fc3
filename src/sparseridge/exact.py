"""Exact solvers: exhaustive enumeration and relaxation-bounded tree search.

Enumeration is sound because the projected objective f(S) is non-increasing
under support growth, so only supports of size exactly k need scoring.  It
scores the supports in lexicographic blocks from one Gram X^T X: each block
is one stacked k x k solve, and a block's memory is bounded whatever C(p, k)
is.

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
    ProblemSpec,
    SparseEstimator,
    _check_count,
    _gram_blocks,
    _subset_blocks,
    mic_value,
    restricted_estimator,
)
from .errors import EnumerationCapError, InvalidArgumentError
from .greedy import greedy_select
from .relaxation import solve_v4

BRUTE_FORCE_CAP = 2 * 10**6
PRUNE_REL_TOL = 1e-12
INTEGRALITY_TOL = 1e-6
# Node solves: tighter than solve_v4's defaults, because B&B prunes on their bounds.
RELAX_TOL = 1e-8
RELAX_MAX_ITER = 20000


def brute_force(spec: ProblemSpec, cap: int = BRUTE_FORCE_CAP) -> SparseEstimator:
    """Globally optimal estimator by scoring every size-k support.

    G = X^T X, X^T y and y^T y are formed once.  The supports are scored in
    lexicographic blocks (``core._subset_blocks``, a bounded (m, k, k) stack
    each) by one stacked solve of (G_SS + n*lam*I) b = (X^T y)_S, whose value
    is (y^T y - (X^T y)_S . b)/n.  Ties go to the lexicographically smallest
    support: the first minimizer in a block, and a later block only when it
    is strictly better.  The winner is refit by ``restricted_estimator``.
    Requires C(p, k) <= cap.
    """
    cap = _check_count("cap", cap)
    n, p, k = spec.n, spec.p, spec.k
    count = math.comb(p, k)
    if count > cap:
        raise EnumerationCapError(
            f"C({p}, {k}) = {count} exceeds the enumeration cap {cap}"
        )
    G = spec.X.T @ spec.X
    G.ravel()[:: p + 1] += n * spec.lam  # every G_SS + nlam*I is a block of it
    c = spec.X.T @ spec.y
    yy = float(spec.y @ spec.y)
    best_val, best = math.inf, None
    for S in _subset_blocks(p, k):
        cS = c[S]
        # the explicit trailing axis: a 2-D right side would be read as one matrix
        b = np.linalg.solve(_gram_blocks(G, S), cS[..., None])[..., 0]
        values = (yy - np.einsum("ij,ij->i", cS, b)) / n
        i = int(np.argmin(values))
        if values[i] < best_val:
            best_val, best = values[i], S[i]
    return restricted_estimator(spec, best)


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
    gap_tol = float(gap_tol)
    if not (math.isfinite(gap_tol) and gap_tol >= 0.0):
        raise InvalidArgumentError(f"gap_tol must be finite and >= 0, got {gap_tol}")
    node_cap = _check_count("node_cap", node_cap)
    incumbent, _ = greedy_select(spec)
    inc_val, inc_support = incumbent.objective, incumbent.support

    def offer(support) -> None:
        nonlocal inc_val, inc_support
        val = mic_value(spec, set(support))
        if val < inc_val:
            inc_val, inc_support = val, tuple(support)

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
            offer(ones_j)
        else:
            heapq.heappush(heap, (key, depth + 1, next(counter), ones_j, zeros, sol.z))

    return BnBResult(
        estimator=restricted_estimator(spec, inc_support),
        final_gap=gap,
        nodes_explored=nodes,
        root_bound=root_value,
        optimal=optimal,
    )
