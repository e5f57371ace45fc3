"""The same answer in any units: every tolerance the package sets is relative.

With y -> c*y the optimal support stays, beta scales by c and every objective
by c^2; with (X, lam) -> (c*X, c^2*lam) the support and objective stay and
beta scales by 1/c.  The property checks each method and relaxation on both
maps; the regression examples are cases where an absolute floor once decided
the answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import overflow_data, random_spec
from sparseridge import (
    Dataset,
    ProblemSpec,
    SyntheticConfig,
    big_m,
    fit,
    generate_synthetic,
    heuristic_bisection,
    solve_v1,
    solve_v3,
    solve_v4,
)

# Examples per property test; tests/conftest.py makes every run reproducible.
PROPERTY = settings(max_examples=10)
SCALES = (1e-6, 1e-3, 1e3, 1e6)
METHODS = ("greedy", "restricted", "randomized", "brute", "bnb")


def rescaled(spec, c, kind):
    """``spec`` in other units, with the factor its objectives take."""
    X, y = spec.X, spec.y
    if kind == "y":
        return ProblemSpec(data=Dataset(X=X, y=c * y), lam=spec.lam, k=spec.k), c * c
    return ProblemSpec(data=Dataset(X=c * X, y=y), lam=c * c * spec.lam, k=spec.k), 1.0


def relaxations(spec):
    M = big_m(spec)
    return {"v1": solve_v1(spec, M), "v3": solve_v3(spec, M), "v4": solve_v4(spec)}


@st.composite
def small_specs(draw):
    k = draw(st.integers(1, 3))
    p = draw(st.integers(k + 1, 14))
    n = draw(st.integers(k + 1, 30))
    lam = draw(st.sampled_from([0.01, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_spec(rng, n, p, k, lam)


@pytest.mark.parametrize("kind", ["y", "X"])
@PROPERTY
@given(spec=small_specs())
def test_same_answer_in_any_units(kind, spec):
    base = {m: fit(spec, m) for m in METHODS}
    base["heuristic"] = fit(spec, "heuristic", delta=1e-6)
    relax = relaxations(spec)
    for c in SCALES:
        scaled, factor = rescaled(spec, c, kind)
        for m, est in base.items():
            opts = {"delta": 1e-6 * factor} if m == "heuristic" else {}
            got = fit(scaled, m, **opts)
            assert got.support == est.support, (m, c)
            assert got.objective / factor == pytest.approx(est.objective, rel=1e-9), (m, c)
        for name, sol in relaxations(scaled).items():
            ref = relax[name]
            room = sol.kkt_residual / factor + ref.kkt_residual + 1e-12 * ref.value
            assert abs(sol.value / factor - ref.value) <= room, (name, c)


def synthetic_spec(c):
    """SyntheticConfig(n=60, p=120, k_true=6, seed=1) at lam 0.08, with y times c."""
    data = generate_synthetic(SyntheticConfig(n=60, p=120, k_true=6, seed=1))[0]
    return ProblemSpec(data=Dataset(X=data.X, y=c * data.y), lam=0.08, k=6)


def test_randomized_support_at_small_y():
    # An absolute stop floor once ended v4 after 5 iterations here, and the
    # rounding then returned a different support at 1.56 times the objective.
    est, small = fit(synthetic_spec(1.0), "randomized"), fit(synthetic_spec(1e-4), "randomized")
    assert small.support == est.support
    assert small.objective * 1e8 == pytest.approx(est.objective, rel=1e-9)


def test_v4_converged_means_relative_gap_met():
    sol = solve_v4(synthetic_spec(1e-3))
    assert not sol.converged or sol.kkt_residual <= 1e-7 * sol.value


def test_heuristic_keeps_a_tiny_coefficient():
    # Column 0 times 1e20 gives beta_0 ~ 1e-20: a zero threshold with an
    # absolute floor dropped it and returned the empty fit, objective 0.99605.
    est, _ = heuristic_bisection(ProblemSpec(data=overflow_data(1e20), lam=0.1, k=3), 1e-6)
    assert est.support and est.objective < 0.99605


@pytest.mark.parametrize("c", [1e-8, 1e8])
def test_spectral_step_has_no_units(c):
    # A step cap of 1e12, in units of 1/gradient, bound at y*1e-8: v4 ran to
    # max_iter unconverged and restricted and randomized raised ConvergenceError.
    base, scaled = synthetic_spec(1.0), synthetic_spec(c)
    sol, ref = solve_v4(scaled), solve_v4(base)
    assert sol.converged and sol.kkt_residual <= 1e-7 * sol.value
    assert abs(sol.value / (c * c) - ref.value) <= sol.kkt_residual / (c * c) + ref.kkt_residual
    for m in ("restricted", "randomized"):
        est, got = fit(base, m), fit(scaled, m)
        assert got.support == est.support, m
        assert got.objective / (c * c) == pytest.approx(est.objective, rel=1e-9), m


@pytest.mark.parametrize("seed", [4, 5, 11])
def test_branch_and_bound_stays_in_budget_at_large_y(seed):
    # A first step of 2 moved z by about 2e16 at y*1e8; the projection could not
    # resolve the budget at that scale, and a node's z came back integral with
    # more than k ones, which the search then offered as an incumbent.
    spec = random_spec(np.random.default_rng(seed), 4, 12, 3, 0.1)
    scaled, factor = rescaled(spec, 1e8, "y")
    est, got = fit(spec, "bnb"), fit(scaled, "bnb")
    assert got.support == est.support
    assert got.objective / factor == pytest.approx(est.objective, rel=1e-9)


def test_first_step_has_no_units():
    # At y*1e-8 a first step of 2 moved z by about 2e-18: v4 stopped after one
    # iteration unconverged (gap 2.3e-18), and restricted and randomized raised
    # ConvergenceError.  The first move is now _MAX_MOVE widths in any units of y.
    spec = random_spec(np.random.default_rng(3), 8, 4, 3, 0.01)
    scaled, factor = rescaled(spec, 1e-8, "y")
    sol = solve_v4(scaled)
    assert sol.converged and sol.kkt_residual <= 1e-7 * sol.value
    for m in ("restricted", "randomized"):
        est, got = fit(spec, m), fit(scaled, m)
        assert got.support == est.support, m
        assert got.objective / factor == pytest.approx(est.objective, rel=1e-9), m


def test_first_step_when_the_gradient_norm_underflows():
    # At y*1e-150 every grad_i^2 underflows, so grad^T grad is 0 while the gap
    # is not.  The loop's step starts infinite; left so, it ended the loop
    # unconverged after one iteration, where one width converges (443 iterations).
    spec = random_spec(np.random.default_rng(0), 30, 8, 3, 0.1)
    scaled, factor = rescaled(spec, 1e-150, "y")
    sol, ref = solve_v4(scaled), solve_v4(spec)
    assert sol.converged
    assert sol.value / factor == pytest.approx(ref.value, rel=1e-12)
