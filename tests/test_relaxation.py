import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import identity_pair_spec, masked_nodes, overflow_data, random_spec
from oracles import (
    box_weighted_ridge_cd,
    finite_difference_gradient,
    gauss_solve,
    monotone_projected_gradient,
    perspective_alternating,
    perspective_value,
    projected_objective_exact,
    projection_tau_bisection,
    subset_value_oracle,
    waterfill_bisection,
    waterfill_objective_grid,
    weighted_l1_box_projection_bisection,
)
from sparseridge import (
    BigMVector,
    Dataset,
    InvalidArgumentError,
    NumericalDomainError,
    NumericalError,
    ProblemSpec,
    SyntheticConfig,
    big_m,
    brute_force,
    generate_synthetic,
    greedy_select,
    project_capped_simplex,
    restricted_estimator,
    solve_v1,
    solve_v2_perspective,
    solve_v3,
    solve_v4,
    value_and_gradient,
    waterfill_z,
)
from sparseridge import relaxation
from sparseridge.core import RidgeSystem

# Examples per property test; tests/conftest.py makes every run reproducible.
PROPERTY = settings(max_examples=50)
# Nonzero entries stay away from underflow so every breakpoint is finite.
SIGNED = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))


@st.composite
def waterfill_cases(draw):
    """(beta, k, raw, share): raw, scaled to sum at most share * k, is the lower bound."""
    p = draw(st.integers(1, 10))
    return (draw(arrays(float, p, elements=SIGNED)), draw(st.floats(0.1, float(p))),
            draw(arrays(float, p, elements=st.floats(0.0, 1.0))), draw(st.floats(0.0, 0.95)))


# Entries that stress the breakpoint search: few distinct values (ties and
# duplicate breakpoints), exact 0s and 1s, and the values between.
EDGE = st.one_of(st.sampled_from([0.0, 1.0, 0.5, -1.0, 2.0]), st.floats(-3.0, 3.0))
# p = 1, all-equal vectors and vectors drawn from EDGE
EDGE_VECTORS = st.one_of(
    arrays(float, st.integers(1, 25), elements=EDGE),
    st.builds(np.full, st.integers(1, 25), EDGE),
    arrays(float, 1, elements=EDGE),
)


def _recorded_evaluations(monkeypatch):
    """Patch relaxation._evaluator so that every v4 evaluation made through it
    is recorded as whether it is at z = 1; returns the record."""
    made = []
    evaluator = relaxation._evaluator

    def recording(spec, G=None):
        evaluate = evaluator(spec, G)

        def recorded(z):
            made.append(bool((z == 1.0).all()))
            return evaluate(z)

        return recorded

    monkeypatch.setattr(relaxation, "_evaluator", recording)
    return made


class TestCappedSimplexProjection:
    def test_water_level_by_hand(self):
        # shift tau = 0.4 balances the budget
        z = project_capped_simplex(np.array([0.9, 0.8, 0.5]), 1.0)
        assert z == pytest.approx(np.array([0.5, 0.4, 0.1]), abs=1e-12)

    def test_interior_point_unchanged(self):
        v = np.array([0.2, 0.3, 0.1])
        assert project_capped_simplex(v, 2.0) == pytest.approx(v, abs=1e-15)

    def test_matches_tau_bisection_oracle(self, rng):
        for _ in range(20):
            v = rng.uniform(-1.5, 2.5, size=12)
            z = project_capped_simplex(v, 4.0)
            assert z == pytest.approx(projection_tau_bisection(v, 4.0), abs=1e-10)
            assert z.sum() <= 4.0 + 1e-9
            assert np.all(z >= 0.0) and np.all(z <= 1.0 + 1e-12)

    def test_idempotent(self, rng):
        for _ in range(10):
            v = rng.uniform(-1.0, 2.0, size=9)
            z = project_capped_simplex(v, 3.0)
            assert project_capped_simplex(z, 3.0) == pytest.approx(z, abs=1e-12)

    def test_budget_binds_exactly(self, rng):
        v = rng.uniform(0.5, 2.0, size=10)
        z = project_capped_simplex(v, 3.0)
        assert z.sum() == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_bad_budget_rejected(self, k):
        with pytest.raises(InvalidArgumentError, match="budget"):
            project_capped_simplex(np.array([0.5, 0.2]), k)

    @pytest.mark.parametrize("v", [[np.nan, 0.5, 0.7], [np.inf, 0.5, 0.7], [0.5, -np.inf, 0.7],
                                   [[0.9, 0.8], [0.5, 0.7]], 0.5],
                             ids=["nan", "inf", "-inf", "2-D", "0-D"])
    def test_bad_vector_rejected(self, v):
        with pytest.raises(InvalidArgumentError, match="finite 1-D"):
            project_capped_simplex(np.array(v), 1.0)


class TestWaterfill:
    def test_symmetric_split(self):
        assert waterfill_z(np.array([1.0, 1.0]), 1.0) == pytest.approx(
            np.array([0.5, 0.5]), abs=1e-12
        )

    def test_level_two_by_hand(self):
        z = waterfill_z(np.array([2.0, 1.0, 1.0]), 2.0)
        assert z == pytest.approx(np.array([1.0, 0.5, 0.5]), abs=1e-9)

    def test_matches_grid_oracle(self, rng):
        beta = rng.uniform(-2.0, 2.0, size=10)
        z = waterfill_z(beta, 3.0)
        nz = np.abs(beta) > 0
        achieved = float(np.sum(beta[nz] ** 2 / z[nz]))
        best = waterfill_objective_grid(beta, 3.0)
        assert achieved <= best + 1e-9 * (1.0 + best)

    def test_zero_coordinates_stay_at_lower(self, rng):
        beta = np.array([1.0, 0.0, -2.0, 0.0])
        lower = np.array([0.0, 0.1, 0.0, 0.2])
        z = waterfill_z(beta, 1.5, lower=lower)
        assert z[1] == pytest.approx(0.1)
        assert z[3] == pytest.approx(0.2)
        assert z.sum() <= 1.5 + 1e-9

    def test_budget_slack_saturates(self):
        z = waterfill_z(np.array([1.0, 2.0]), 5.0)
        assert z == pytest.approx(np.array([1.0, 1.0]))

    def test_infeasible_lower_bounds(self):
        with pytest.raises(InvalidArgumentError):
            waterfill_z(np.ones(3), 1.0, lower=np.array([0.5, 0.5, 0.5]))
        with pytest.raises(InvalidArgumentError, match="budget"):
            waterfill_z(np.ones(3), np.nan)

    def test_nan_lower_bound_rejected(self):
        with pytest.raises(InvalidArgumentError, match="finite"):
            waterfill_z(np.ones(3), 1.0, lower=np.array([0.1, np.nan, 0.1]))


class TestBigM:
    def test_identity_pair_closed_form(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        res = big_m(spec, v_upper=1.0)
        assert res.rho == pytest.approx(0.6, abs=1e-12)
        assert res.M == pytest.approx(np.full(2, 2.011844), abs=1e-5)

    def test_zero_response(self):
        data = Dataset(X=np.eye(3), y=np.zeros(3))
        spec = ProblemSpec(data=data, lam=0.5, k=1)
        res = big_m(spec)
        assert res.M == pytest.approx(np.zeros(3), abs=1e-12)

    def test_contains_optimal_coefficients(self, rng):
        for _ in range(15):
            spec = random_spec(rng, 20, 6, 2, float(rng.choice([0.05, 0.2, 1.0])))
            M = big_m(spec)
            star = brute_force(spec)
            assert np.all(np.abs(star.beta) <= M.M + 1e-12)

    def test_wide_design_has_zero_curvature(self, rng, monkeypatch):
        # p > n: X^T X is singular, so rho is lam itself, with no p x p
        # eigenvalue solve
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigvalsh called at p > n")

        monkeypatch.setattr(relaxation, "eigvalsh", no_eigensolve)
        spec = random_spec(rng, 8, 20, 2, 0.3)
        res = big_m(spec)
        assert res.rho == spec.lam
        assert np.all(np.abs(brute_force(spec).beta) <= res.M + 1e-12)

    def test_level_below_minimum_rejected(self):
        # response orthogonal to the design: no beta can push the
        # objective below ||y||^2/n, so a lower level is impossible
        X = np.array([[0.0], [1.0], [0.0]])
        data = Dataset(X=X, y=np.array([1.0, 0.0, 0.0]))
        spec = ProblemSpec(data=data, lam=0.3, k=1)
        with pytest.raises(NumericalDomainError):
            big_m(spec, v_upper=0.05)

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_rejected(self, level):
        # max(0, nan) would drop the square-root term and leave M = |a|,
        # bounds too tight to be valid
        with pytest.raises(InvalidArgumentError):
            big_m(identity_pair_spec(lam=0.1, k=1), v_upper=level)


class TestNumericalFaults:
    def test_overflowed_gradient_raises(self):
        # v4's gradient -lam*(X^T u)^2 overflows at lam = 1e-200: a numerical
        # fault, caught before the projection would call it an argument error
        spec = ProblemSpec(data=overflow_data(), lam=1e-200, k=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite"):
                solve_v4(spec)

    @pytest.mark.parametrize("value, gap", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan)])
    def test_projected_gradient_refuses_non_finite_iterates(self, value, gap):
        with pytest.raises(NumericalError, match="non-finite"):
            relaxation._projected_gradient(
                lambda x: (value, -np.ones_like(x), x), lambda v: v.clip(0.0, 1.0),
                lambda x, g: gap, np.full(3, 0.5), 1e-8, 10)

    def test_big_m_refuses_overflowed_normal_equations(self):
        spec = ProblemSpec(data=overflow_data(1e160), lam=0.1, k=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="big-M"):
                big_m(spec)


class TestGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(3):
            spec = random_spec(rng, 10, 6, 3, float(rng.choice([0.05, 0.3])))

            def f(z):
                return value_and_gradient(spec, z)[0]

            for _ in range(5):
                z = rng.uniform(0.1, 0.9, size=6)
                _, grad = value_and_gradient(spec, z)
                fd = finite_difference_gradient(f, z, h=1e-5)
                assert grad == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_convex_along_segments(self, rng):
        spec = random_spec(rng, 12, 7, 3, 0.2)

        def f(z):
            return value_and_gradient(spec, z)[0]

        for _ in range(10):
            z1 = project_capped_simplex(rng.uniform(0, 1, 7), 3.0)
            z2 = project_capped_simplex(rng.uniform(0, 1, 7), 3.0)
            assert f((z1 + z2) / 2) <= (f(z1) + f(z2)) / 2 + 1e-9


def _wide_tiny_lam_case():
    """n = 30, |S| = 200, lam = 1e-6: recovering u from the residual
    y - X_S b loses ~1.7e-9 of the gradient here."""
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((30, 200)), rng.standard_normal(30)
    return X, y, 1e-6, rng.uniform(0.05, 1.0, 200)


def _subnormal_weight_case():
    """n*lam/z_1 overflows; such a weight adds nothing A(z) can hold."""
    z = np.array([0.5, 1e-310, 0.0, 1.0])
    return np.eye(3)[:, [0, 1, 2, 0]], np.ones(3), 0.1, z


@st.composite
def projected_objective_cases(draw):
    """(X, y, lam, z) with |supp z| < n or > n, some z_i exactly 0, lam in [1e-6, 1]."""
    n = draw(st.integers(2, 8))
    m = draw(st.one_of(st.integers(0, n - 1), st.integers(n + 1, 3 * n)))
    zeros = draw(st.integers(0 if m else 1, 4))
    lam = 10.0 ** draw(st.floats(-6.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.zeros(m + zeros)
    z[rng.permutation(m + zeros)[:m]] = draw(
        st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)
    )
    return rng.standard_normal((n, m + zeros)), rng.standard_normal(n), lam, z


class TestProjectedObjectiveKernel:
    """value_and_gradient's support-sized solve against a dense n x n reference."""

    @PROPERTY
    @given(case=projected_objective_cases())
    @example(case=_wide_tiny_lam_case())
    @example(case=_subnormal_weight_case())
    def test_matches_dense_reference(self, case):
        X, y, lam, z = case
        spec = ProblemSpec(data=Dataset(X=X, y=y), lam=lam, k=1)
        value, grad = value_and_gradient(spec, z)
        ref_value, ref_grad = projected_objective_exact(X, y, lam, z)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max()


class TestProjectedValueSolver:
    def test_identity_pair_value_and_point(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        sol = solve_v4(spec)
        assert sol.converged
        assert sol.value == pytest.approx(0.4 / 1.4, abs=1e-6)
        assert sol.z == pytest.approx(np.array([0.5, 0.5]), abs=1e-3)

    def test_saturated_budget_closed_form(self, rng):
        spec = random_spec(rng, 10, 4, 4, 0.3)
        sol = solve_v4(spec)
        assert sol.iterations == 0 and sol.converged
        assert sol.z == pytest.approx(np.ones(4))
        full = restricted_estimator(spec, range(4))
        assert sol.value == pytest.approx(full.objective, rel=1e-9)

    def test_below_optimum_and_matches_perspective(self, rng):
        spec = random_spec(rng, 15, 8, 3, 0.1)
        sol = solve_v4(spec)
        star = brute_force(spec)
        assert sol.value <= star.objective + 1e-6
        other = perspective_alternating(spec)
        assert abs(sol.value - other.value) <= 1e-5 * (1.0 + sol.value)

    def test_nonconvergence_flagged(self, rng):
        spec = random_spec(rng, 12, 8, 3, 0.05)
        sol = solve_v4(spec, tol=1e-14, max_iter=2)
        assert not sol.converged

    def test_repeated_loop_state_stops_the_solver(self):
        # Two points of equal value orthogonal to the gradient: every step is
        # accepted with zero decrease, so once the step saturates the loop
        # state (x, step) repeats and would cycle until max_iter.
        def fval_grad(x):
            return 0.0, np.array([1.0, 0.0]), x

        def swap(v):
            return np.array([0.0, 1.0 - v[1]])

        def gap(x, grad):
            return 1.0  # never certified, so only the cycle stop can end the loop

        x, val, _, iters, resid, converged = relaxation._projected_gradient(
            fval_grad, swap, gap, np.zeros(2), 1e-9, 10000
        )
        assert not converged and resid == 1.0 and iters < 100

    def test_backtracks_along_one_projection(self):
        # f(x) = x^2 on [-10, 10] from x = 1 with width 4e-6: the first step
        # _MAX_MOVE*width/|grad| = 2 gives the trial x - 2*grad = -3, which fails
        # the Armijo test, and so does t = 1/2 (x = -1, no decrease); t = 1/4
        # reaches the minimizer.  One projection serves all three.
        trials, projections = [], []

        def fval_grad(x):
            trials.append(float(x[0]))
            return float(x[0] ** 2), 2.0 * x, x

        def clip(v):
            projections.append(v)
            return np.clip(v, -10.0, 10.0)

        def gap(x, grad):  # grad*x minus its minimum over the box
            return float(grad[0] * x[0] + 10.0 * abs(grad[0]))

        x, val, _, iters, resid, converged = relaxation._projected_gradient(
            fval_grad, clip, gap, np.ones(1), 1e-9, 100, 4e-6
        )
        assert converged and x[0] == 0.0 and val == 0.0
        assert trials == [1.0, -3.0, -1.0, 0.0] and len(projections) == 1

    def test_spectral_first_step_rarely_backtracks(self, monkeypatch):
        # The Barzilai-Borwein first step is accepted on most iterations; a
        # doubled step backtracks on nearly every one (2.0 evaluations each).
        data, _, _, _ = generate_synthetic(SyntheticConfig(n=60, p=120, k_true=6, seed=1))
        spec = ProblemSpec(data=data, lam=0.08, k=6)
        evaluations = _recorded_evaluations(monkeypatch)
        sol = solve_v4(spec)
        assert sol.converged
        assert len(evaluations) <= 1.5 * sol.iterations

    def test_one_projection_per_move(self, monkeypatch):
        # The nonmonotone search projects once per move and backtracks along
        # the projected direction; on this instance it almost never backtracks.
        # A face-Newton proposal projects once too: a taken one is the move,
        # and a rejected one costs a projection on top of the move's.
        data, _, _, _ = generate_synthetic(SyntheticConfig(n=60, p=120, k_true=6, seed=1))
        spec = ProblemSpec(data=data, lam=0.08, k=6)
        projections, project = [], relaxation._project

        def counted(*args):
            projections.append(1)
            return project(*args)

        monkeypatch.setattr(relaxation, "_project", counted)  # the loop's projection
        evaluations = _recorded_evaluations(monkeypatch)
        iterates, made = [], []  # the iterate at each offer; (offer, point) per proposal
        loop = relaxation._projected_gradient

        def traced(*args, propose, **kwargs):
            def recorded(x, grad):
                iterates.append(x)
                point = propose(x, grad)
                if point is not None:
                    made.append((len(iterates) - 1, point))
                return point

            result = loop(*args, propose=recorded, **kwargs)
            iterates.append(result[0])
            return result

        monkeypatch.setattr(relaxation, "_projected_gradient", traced)
        sol = solve_v4(spec)
        assert sol.converged
        # A proposal was taken when the next iterate is the proposed point itself.
        rejected = sum(iterates[j + 1] is not point for j, point in made)
        assert rejected < len(made)
        # The last iteration certifies the gap and makes no move.
        assert len(projections) == sol.iterations - 1 + rejected
        assert len(evaluations) <= 1.1 * sol.iterations + rejected

    def test_masked_solve_respects_fixing(self, rng):
        spec = random_spec(rng, 10, 6, 3, 0.2)
        sol = solve_v4(spec, fixed_one=(1,), fixed_zero=(4,))
        assert sol.z[1] == 1.0
        assert sol.z[4] == 0.0
        assert sol.z.sum() <= spec.k + 1e-9
        # Integral floats and numpy integers name the same coordinates.
        same = solve_v4(spec, fixed_one=(1.0,), fixed_zero=(np.int64(4),))
        assert same.z.tobytes() == sol.z.tobytes()

    @pytest.mark.parametrize("fixed_one, fixed_zero, message", [
        ((1, 2), (2, 4), "disjoint"),
        ((6,), (), "must lie in"),
        ((), (0, -1), "must lie in"),
        ((0, 1, 2, 3), (), "budget k"),
        ((1.5,), (), "integers"),
        ((), (2, 0.5), "integers"),
    ], ids=["overlap", "index_p", "negative_index", "more_ones_than_k",
            "fractional_one", "fractional_zero"])
    def test_rejects_bad_fixing(self, rng, fixed_one, fixed_zero, message):
        spec = random_spec(rng, 10, 6, 3, 0.2)
        with pytest.raises(InvalidArgumentError, match=message):
            solve_v4(spec, fixed_one=fixed_one, fixed_zero=fixed_zero)

    @PROPERTY
    @given(data=st.data())
    def test_masked_sets_match_loop(self, data):
        p = data.draw(st.integers(1, 12))
        order = data.draw(st.permutations(range(p)))
        n_one = data.draw(st.integers(0, min(p, 3)))
        n_zero = data.draw(st.integers(0, p - n_one))
        ones, zeros = order[:n_one] * 2, order[n_one:n_one + n_zero]  # repeats collapse
        one, free = relaxation._fixed_sets(SimpleNamespace(p=p, k=3), ones, zeros)
        assert one.tolist() == sorted(set(ones))
        assert free.tolist() == [i for i in range(p) if i not in set(ones) | set(zeros)]

    @pytest.mark.parametrize("z0", [np.full(5, 0.5), np.full(7, 0.5),
                                    np.array([0.5, np.nan, 0.5, 0.5, 0.5, 0.5])],
                             ids=["too_short", "too_long", "nan"])
    def test_rejects_bad_warm_start(self, rng, z0):
        spec = random_spec(rng, 10, 6, 3, 0.2)
        with pytest.raises(InvalidArgumentError):
            solve_v4(spec, z0=z0)

    def test_json_round_trip(self, rng):
        import json

        spec = random_spec(rng, 8, 5, 2, 0.2)
        payload = json.loads(json.dumps(solve_v4(spec).to_json_dict()))
        assert set(payload) == {"value", "z", "iterations", "kkt_residual", "converged",
                                "lower_bound"}


def _face_point(rng, p, fractional, ones):
    """z with ``fractional`` coordinates in (0.2, 0.8), ``ones`` at 1 and the rest 0,
    and the fractional index set F."""
    order = rng.permutation(p)
    F = np.sort(order[:fractional])
    z = np.zeros(p)
    z[F] = rng.uniform(0.2, 0.8, fractional)
    z[order[fractional:fractional + ones]] = 1.0
    return z, F


class TestFaceNewton:
    """v4's Hessian on a face and the loop's face-Newton proposals."""

    @pytest.mark.parametrize("n, p, gram", [(40, 12, True), (40, 12, False), (12, 40, False)],
                             ids=["gram", "x_tall", "x_wide_small_support"])
    def test_hessian_matches_central_differences(self, n, p, gram):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, n, p, 3, 0.1)
        G = spec.data.normal.G if gram else None
        # |supp z| = 7 <= n: the X route's |S| <= n side on the wide design too
        z, F = _face_point(rng, p, 5, 2)
        hessian = relaxation._evaluator(spec, G)(z)[3]
        h = 1e-5
        fd = np.empty((F.size, F.size))
        for col, j in enumerate(F):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            diff = relaxation._evaluator(spec, G)(zp)[1] - relaxation._evaluator(spec, G)(zm)[1]
            fd[:, col] = diff[F] / (2.0 * h)
        assert np.abs(hessian(F) - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_no_hessian_when_the_support_is_wider_than_n(self):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, 12, 40, 3, 0.1)
        z, _ = _face_point(rng, 40, 10, 5)
        assert relaxation._evaluator(spec)(z)[3] is None

    @pytest.mark.parametrize("stub", ["itself", "ascent"])
    def test_rejected_proposals_leave_the_loop_where_it_ends(self, stub):
        # A proposal that does not move or does not descend is dropped: the
        # loop takes the same spectral steps to the same end.
        data = generate_synthetic(SyntheticConfig(n=60, p=120, k_true=6, seed=1))[0]
        spec = ProblemSpec(data=data, lam=0.08, k=6)

        def fval_grad(z):
            return relaxation._evaluator(spec)(z)[:3]

        def project(v):
            return project_capped_simplex(v, 6)

        offered = []

        def propose(x, grad):
            offered.append(1)
            return x.copy() if stub == "itself" else project(x + grad)

        def run(**kwargs):
            return relaxation._projected_gradient(
                fval_grad, project, lambda x, g: relaxation._capped_box_gap(x, g, 6),
                np.full(120, 0.05), 1e-7, 5000, **kwargs)

        want, got = run(), run(propose=propose)
        assert want[0].tobytes() == got[0].tobytes() and want[1] == got[1]
        assert want[2].tobytes() == got[2].tobytes() and want[3:] == got[3:]
        assert want[5] and len(offered) == got[3] - 1

    def test_settled_face_halves_the_iterations(self):
        # The parent, with spectral steps alone and a first step of 2, took 47.
        data = generate_synthetic(SyntheticConfig(n=60, p=120, k_true=6, seed=1))[0]
        sol = solve_v4(ProblemSpec(data=data, lam=0.08, k=6))
        assert sol.converged and sol.iterations <= 35


def _tied_spec(n):
    """y = e_0, so c = X^T y is X's first row, set to |c| = (1, 3, 2, 2, 0.5, 2, 3, 1):
    exact, with ties at 3 (features 1, 6) and at 2 (features 2, 3, 5)."""
    X = np.random.default_rng(3).standard_normal((n, 8))
    X[0] = [1.0, 3.0, -2.0, 2.0, 0.5, 2.0, -3.0, 1.0]
    return ProblemSpec(data=Dataset(X=X, y=np.eye(n)[0]), lam=0.1, k=3)


# the solvers that minimize over the capped box, each called without a warm start
_BOX_SOLVERS = {"v4": solve_v4, "v3": lambda spec: solve_v3(spec, big_m(spec))}


class TestStartVertex:
    """Without z0, every capped-box solve starts at the vertex on the budget largest
    |c_i| = |x_i^T y| among the free coordinates, ties to the lowest index."""

    @staticmethod
    def _start(monkeypatch, spec, solver="v4", **masks):
        starts, loop = [], relaxation._projected_gradient

        def traced(fval_grad, project, gap, x, *args, **kwargs):
            starts.append(x.copy())
            return loop(fval_grad, project, gap, x, *args, **kwargs)

        monkeypatch.setattr(relaxation, "_projected_gradient", traced)
        sol = _BOX_SOLVERS[solver](spec, **masks)
        assert sol.converged and len(starts) == 1
        return starts[0]

    @staticmethod
    def _vertex(spec, ones=(), zeros=()):
        """The expected start on the free coordinates, ranked by (-|c_i|, i) in Python."""
        c = spec.X.T @ spec.y
        free = [i for i in range(spec.p) if i not in set(ones) | set(zeros)]
        top = sorted(free, key=lambda i: (-abs(c[i]), i))[:spec.k - len(ones)]
        return np.array([1.0 if i in top else 0.0 for i in free])

    @pytest.mark.parametrize("n", [12, 5], ids=["tall", "wide"])
    @pytest.mark.parametrize("solver, ones, zeros", [
        ("v4", (), ()), ("v4", (1,), (2,)), ("v4", (), (1, 6)), ("v3", (), ()),
    ], ids=["root", "one_and_zero_fixed", "zeros_fixed", "v3"])  # v3 fixes no coordinate
    def test_start_is_the_top_budget_correlations(self, monkeypatch, n, solver, ones, zeros):
        spec = _tied_spec(n)
        masks = {"fixed_one": ones, "fixed_zero": zeros} if ones or zeros else {}
        start = self._start(monkeypatch, spec, solver, **masks)
        want = self._vertex(spec, ones, zeros)
        assert np.array_equal(start, want)
        # the ties resolve to the lowest index: {1, 6, 2} at the root
        if not ones and not zeros:
            assert np.flatnonzero(start).tolist() == [1, 2, 6]

    def test_start_on_random_specs(self, monkeypatch, rng):
        for n, p in [(30, 12), (12, 30)]:
            spec = random_spec(rng, n, p, 4, 0.1, signal=False)
            for solver in _BOX_SOLVERS:
                assert np.array_equal(self._start(monkeypatch, spec, solver), self._vertex(spec))

    def test_start_is_where_the_first_step_from_zero_lands(self):
        # grad f(0) = -c^2/(n^2 lam): the move-capped step of _MAX_MOVE widths from
        # z = 0, projected, is the vertex itself, with no evaluation needed for it
        spec = random_spec(np.random.default_rng(2), 40, 15, 4, 0.1)
        c = spec.X.T @ spec.y
        grad = value_and_gradient(spec, np.zeros(15))[1]
        assert grad == pytest.approx(-c**2 / (spec.n**2 * spec.lam), rel=1e-12)
        step = relaxation._MAX_MOVE / np.linalg.norm(grad)
        assert np.array_equal(project_capped_simplex(-step * grad, 4), self._vertex(spec))

    @settings(PROPERTY, max_examples=60)
    @given(node=st.sampled_from(["root", "open"]).flatmap(masked_nodes))
    def test_certified_and_equal_to_a_uniform_start(self, node):
        # the start changes the path, not the answer: the certified bound stays
        # below the optimum, and the value is a uniform start's within tol*value
        spec, ones, free, zeros = node
        tol = 1e-7
        sol = solve_v4(spec, tol=tol, fixed_one=ones, fixed_zero=zeros)
        uniform = solve_v4(spec, tol=tol, fixed_one=ones, fixed_zero=zeros,
                           z0=np.full(spec.p, spec.k / spec.p))
        assert sol.converged and uniform.converged
        assert sol.lower_bound <= _node_optimum(spec, ones, free) * (1.0 + 1e-10)
        assert abs(sol.value - uniform.value) <= tol * max(sol.value, uniform.value)


class TestPerspectiveSolver:
    def test_identity_pair(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        sol = solve_v2_perspective(spec)
        assert sol.converged
        assert sol.value == pytest.approx(0.4 / 1.4, abs=1e-6)

    def test_zero_response(self):
        data = Dataset(X=np.eye(4), y=np.zeros(4))
        spec = ProblemSpec(data=data, lam=0.2, k=2)
        sol = solve_v2_perspective(spec)
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.beta == pytest.approx(np.zeros(4), abs=1e-12)

    def test_matches_projected_solver(self, rng):
        spec = random_spec(rng, 20, 10, 4, 0.1)
        v2 = perspective_alternating(spec)
        v4 = solve_v4(spec)
        assert abs(v2.value - v4.value) <= 1e-5 * (1.0 + v4.value)

    def test_feasible_multipliers(self, rng):
        spec = random_spec(rng, 12, 6, 2, 0.3)
        sol = solve_v2_perspective(spec)
        assert sol.z.sum() <= spec.k + 1e-9
        assert np.all(sol.z <= 1.0 + 1e-12)
        nz = np.abs(sol.beta) > 0
        assert np.all(sol.z[nz] > 0)
        # beta is the perspective minimizer at z, so it attains the value.
        r = spec.y - spec.X @ sol.beta
        attained = r @ r / spec.n + spec.lam * np.sum(sol.beta[nz] ** 2 / sol.z[nz])
        assert attained == pytest.approx(sol.value, rel=1e-10)


class TestBigMSolver:
    def test_identity_pair_loose_bounds(self):
        spec = identity_pair_spec(lam=0.1, k=1)
        M = BigMVector(M=np.full(2, np.sqrt(10.0)), v_upper=1.0, rho=0.6)
        sol = solve_v1(spec, M)
        assert sol.converged
        assert sol.value == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_slack_budget_gives_full_ridge(self, rng):
        spec = random_spec(rng, 12, 4, 4, 0.2)
        M = BigMVector(M=np.full(4, 1e6), v_upper=1.0, rho=1.0)
        sol = solve_v1(spec, M)
        full = restricted_estimator(spec, range(4))
        assert sol.value == pytest.approx(full.objective, rel=1e-8)

    def test_below_brute_force(self, rng):
        spec = random_spec(rng, 15, 6, 2, 0.2)
        sol = solve_v1(spec, big_m(spec))
        assert sol.value <= brute_force(spec).objective + 1e-6

    def test_rejects_negative_bounds(self, rng):
        # a bound of 0 holds its coefficient at 0 (TestZeroBounds); one below 0 is refused
        spec = random_spec(rng, 8, 3, 1, 0.1)
        for solve in (solve_v1, solve_v3):
            with pytest.raises(InvalidArgumentError, match="big-M"):
                solve(spec, BigMVector(M=np.array([1.0, -1.0, 1.0]), v_upper=1.0, rho=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200, 1e-200])
    @pytest.mark.parametrize("solve", [solve_v1, solve_v3], ids=["v1", "v3"])
    def test_rejects_bounds_outside_float_range(self, rng, solve, bad):
        # 1/M_i**2 would be 0 or inf (a NaN projection in v1), or M_i is not a number
        spec = random_spec(rng, 8, 3, 1, 0.1)
        with pytest.raises(InvalidArgumentError, match="big-M"):
            solve(spec, BigMVector(M=np.array([1.0, bad, 1.0]), v_upper=1.0, rho=1.0))


class TestZeroBounds:
    """A big-M bound M_i = 0 holds beta_i = z_i = 0 in v1 and v3, as big_m gives
    at its default level wherever x_i^T y = 0 and y^T y = 0."""

    def test_zero_response_relaxes_to_zero(self):
        X = np.random.default_rng(0).standard_normal((30, 8))
        spec = ProblemSpec(data=Dataset(X=X, y=np.zeros(30)), lam=0.1, k=3)
        M = big_m(spec)
        assert not M.M.any()
        v1, v3, v4 = solve_v1(spec, M), solve_v3(spec, M), solve_v4(spec)
        for sol in (v1, v3, v4):
            assert sol.converged and sol.value == 0.0 and sol.lower_bound == 0.0
            assert not sol.beta.any()
        assert not v1.z.any() and not v3.z.any()

    @pytest.mark.parametrize("solve", [solve_v1, solve_v3], ids=["v1", "v3"])
    def test_zero_bound_drops_its_feature(self, rng, solve):
        spec = random_spec(rng, 20, 6, 2, 0.1)
        M = big_m(spec).M.copy()
        M[2] = 0.0
        sol = solve(spec, BigMVector(M=M, v_upper=1.0, rho=1.0))
        assert sol.beta[2] == 0.0 and sol.z[2] == 0.0
        keep = [0, 1, 3, 4, 5]
        sub = ProblemSpec(data=Dataset(X=spec.X[:, keep], y=spec.y), lam=0.1, k=2)
        want = solve(sub, BigMVector(M=M[keep], v_upper=1.0, rho=1.0))
        assert sol.value == pytest.approx(want.value, rel=1e-6)
        assert np.allclose(np.delete(sol.beta, 2), want.beta, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("tol", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
@pytest.mark.parametrize("which", ["v1", "v3", "v4"])
def test_bad_tolerance_rejected(rng, which, tol):
    spec = random_spec(rng, 8, 3, 1, 0.1)
    solve = {
        "v1": lambda: solve_v1(spec, big_m(spec), tol=tol),
        "v3": lambda: solve_v3(spec, big_m(spec), tol=tol),
        "v4": lambda: solve_v4(spec, tol=tol),
    }[which]
    with pytest.raises(InvalidArgumentError, match="tol"):
        solve()


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, np.nan], ids=["zero", "negative", "fraction", "nan"])
@pytest.mark.parametrize("which", ["v1", "v3", "v4"])
def test_bad_max_iter_rejected(rng, which, max_iter):
    spec = random_spec(rng, 8, 3, 1, 0.1)
    solve = {
        "v1": lambda: solve_v1(spec, big_m(spec), max_iter=max_iter),
        "v3": lambda: solve_v3(spec, big_m(spec), max_iter=max_iter),
        "v4": lambda: solve_v4(spec, max_iter=max_iter),
    }[which]
    with pytest.raises(InvalidArgumentError, match="max_iter"):
        solve()


class TestCombinedSolver:
    def test_tight_bounds_dominate_perspective(self):
        lam = 0.1
        spec = identity_pair_spec(lam=lam, k=1)
        M = BigMVector(M=np.full(2, 1.0 / (1.0 + 2 * lam)), v_upper=1.0, rho=0.6)
        v3 = solve_v3(spec, M)
        v2 = solve_v2_perspective(spec)
        assert v3.value >= v2.value - 1e-9

    def test_huge_sentinel_recovers_perspective(self, rng):
        spec = random_spec(rng, 10, 5, 2, 0.2)
        M = BigMVector(M=np.full(5, 1e8), v_upper=1.0, rho=1.0)
        v3 = solve_v3(spec, M)
        v2 = solve_v2_perspective(spec)
        assert abs(v3.value - v2.value) <= 1e-4 * (1.0 + v2.value)

    def test_orderings_hold(self, rng):
        for _ in range(6):
            spec = random_spec(rng, 12, 5, 2, float(rng.choice([0.05, 0.2, 1.0])))
            M = big_m(spec)
            v1 = solve_v1(spec, M)
            v2 = solve_v2_perspective(spec)
            v3 = solve_v3(spec, M)
            v4 = solve_v4(spec)
            star = brute_force(spec)
            assert v1.value <= v3.value + 1e-6
            assert v2.value <= v3.value + 1e-6
            assert max(v1.value, v2.value, v3.value, v4.value) <= star.objective + 1e-6


class TestCombinedSolverCertificate:
    """v3 on the capped-box driver: a certified bound, below the optimum."""

    @pytest.mark.parametrize("seed", [5, 11])
    def test_below_optimum(self, seed):
        # A loop that stops on a small per-cycle decrease ends above the
        # optimum here (0.1594381 and 0.1753617 against 0.1587487 and
        # 0.1745716) and still reports converged=True.
        spec = random_spec(np.random.default_rng(seed), 13, 2, 1, 0.025)
        M = big_m(spec, v_upper=greedy_select(spec)[0].objective)
        v3 = solve_v3(spec, M)
        assert v3.converged
        assert v3.value <= brute_force(spec).objective * (1.0 + 1e-9)
        assert v3.lower_bound <= v3.value
        # beta is the minimizer at the returned z.
        value = perspective_value(spec, v3.beta, v3.z)
        assert value == pytest.approx(v3.value, rel=1e-10)

    def test_gradient_matches_central_differences(self, rng):
        clamped = 0
        for _ in range(10):
            spec = random_spec(rng, 10, 6, 3, float(rng.choice([0.05, 0.3])))
            # Bounds scaled down so that the box binds on some coordinates.
            M = big_m(spec).M * rng.uniform(0.05, 0.3)
            z = rng.uniform(0.1, 0.9, size=6)
            beta = np.zeros(6)
            _, grad, beta = relaxation._perspective_fit(spec, z, M, beta)
            clamped += np.any(np.abs(beta) >= M * z * (1.0 - 1e-12))
            fd = finite_difference_gradient(
                lambda w: relaxation._perspective_fit(spec, w, M, beta)[0], z
            )
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-10)
        assert clamped > 0


@st.composite
def box_step_cases(draw):
    """(spec, z, M, beta0) with p < n or p > n, some z_i exactly 0 and the
    big-M bounds scaled by 0.05-1 so that the box |b_i| <= M_i z_i binds."""
    n = draw(st.integers(2, 8))
    p = draw(st.one_of(st.integers(1, n - 1), st.integers(n + 1, 3 * n)))
    zeros = draw(st.integers(0, p // 2))
    lam = 10.0 ** draw(st.floats(-3.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = ProblemSpec(
        data=Dataset(X=rng.standard_normal((n, p)), y=rng.standard_normal(n)),
        lam=lam, k=1,
    )
    z = rng.uniform(0.05, 1.0, p)
    z[rng.permutation(p)[:zeros]] = 0.0
    M = big_m(spec).M * draw(st.floats(0.05, 1.0))
    beta0 = draw(st.sampled_from([0.0, 1.0, 10.0])) * rng.standard_normal(p)
    return spec, z, M, beta0


@st.composite
def perspective_cases(draw):
    """(spec, z) on a tall (p <= n, X^T X formed) or wide design, with some
    z_i exactly 0 and |supp z| below, at or above n."""
    n = draw(st.integers(2, 8))
    p = draw(st.one_of(st.integers(1, n), st.integers(n + 1, 3 * n)))
    lam = 10.0 ** draw(st.floats(-2.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = ProblemSpec(
        data=Dataset(X=rng.standard_normal((n, p)), y=rng.standard_normal(n)),
        lam=lam, k=1,
    )
    z = rng.uniform(0.05, 1.0, p)
    z[rng.permutation(p)[:draw(st.integers(0, p))]] = 0.0
    return spec, z


class TestPerspectiveFit:
    """v4's kernel on tall and wide designs."""

    @PROPERTY
    @given(case=perspective_cases())
    def test_matches_explicit_formulas(self, case):
        spec, z = case
        value, grad, b = relaxation._evaluator(spec)(z)[:3]
        # A = n*lam*I + X_S diag(z_S) X_S^T, u = A^-1 y: f = lam*y^T u, its
        # gradient -lam*(X^T u)^2 and b = diag(z) X^T u (0 off the support)
        S = z > 0.0
        A = spec.n * spec.lam * np.eye(spec.n) + (spec.X[:, S] * z[S]) @ spec.X[:, S].T
        u = gauss_solve(A, spec.y)
        a = spec.X.T @ u
        value_want = spec.lam * float(spec.y @ u)
        assert abs(value - value_want) <= 1e-12 * value_want
        assert abs(perspective_value(spec, b, z) - value_want) <= 1e-12 * value_want
        grad_want = -spec.lam * a**2
        assert np.abs(grad - grad_want).max() <= 1e-12 * np.abs(grad_want).max()
        b_want = np.where(S, z * a, 0.0)
        assert np.all(b[~S] == 0.0)
        assert np.abs(b - b_want).max() <= 1e-12 * max(np.abs(b_want).max(), 1e-300)

    @pytest.mark.parametrize("lam", [1e-5, 1e-8])
    def test_value_keeps_its_digits_on_a_noise_free_fit(self, lam):
        # y in the span of X: f is far below y^T y/n, where y^T y - c_S . b would
        # cancel (to 1e-8 relative at lam = 1e-8); the residual's value does not
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 10))
        spec = ProblemSpec(data=Dataset(X=X, y=X @ rng.uniform(-2.0, 2.0, 10)), lam=lam, k=3)
        z = np.full(10, 0.5)
        value, _, b = relaxation._evaluator(spec)(z)[:3]
        assert value == pytest.approx(perspective_value(spec, b, z), rel=1e-12, abs=0.0)


@st.composite
def tall_cases(draw):
    """(spec, z) on a tall design with X^T X formed: columns scaled by 1e-3..1e3,
    y in the span of X with noise 0, 1e-4 or 1, lam from 1e-9 to 10, and some
    z_i exactly 0, so both routes of a one-off evaluation are drawn."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, n))
    lam = 10.0 ** draw(st.floats(-9.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    noise = draw(st.sampled_from([0.0, 1e-4, 1.0]))
    y = X @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    spec = ProblemSpec(data=Dataset(X=X, y=y), lam=lam, k=1)
    spec.data.normal.G  # formed, as after a v4 loop
    z = rng.uniform(0.05, 1.0, p)
    z[rng.permutation(p)[:draw(st.integers(0, p))]] = 0.0
    return spec, z


class TestGramRoute:
    """v4's f and gradient from the normal equations, against the X route."""

    @PROPERTY
    @given(case=tall_cases())
    def test_route_taken_matches_the_x_route(self, case):
        spec, z = case
        value, grad = value_and_gradient(spec, z)
        want_value, want_grad, want_b = relaxation._evaluator(spec)(z)[:3]
        assert abs(value - want_value) <= 1e-12 * want_value
        # The gradient's a_i = x_i^T u cancels in either route when u is nearly
        # orthogonal to x_i (every column in S at a tiny lam), so it is held to
        # 1e-12 of its Cauchy-Schwarz bound lam*max|x_i|^2*|u|^2.
        u = (spec.y - spec.X @ want_b) / (spec.n * spec.lam)
        scale = spec.lam * float(spec.data.normal.sq.max() * (u @ u))
        assert np.abs(grad - want_grad).max() <= 1e-12 * scale
        # On the fractional set both routes give no H_FF (a zero b_i) or the same one.
        F = np.flatnonzero((z > 0.0) & (z < 1.0))
        gram = relaxation._evaluator(spec, spec.data.normal.G)(z)[3](F)
        want = relaxation._evaluator(spec)(z)[3](F)
        assert (gram is None) == (want is None)
        if want is not None:
            assert np.abs(gram - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)

    @PROPERTY
    @given(case=tall_cases())
    def test_route_taken_matches_the_exact_reference(self, case):
        # Against 60-digit arithmetic: the value to 1e-11 on either route, and on the
        # Gram route the gradient to 1e-12 of its Cauchy-Schwarz bound.  The X route's
        # gradient is not held to it: its a = X^T u cancels, by up to 1.6e-4 of that
        # bound over 2000 random draws of these cases (ROADMAP item 1(b)).
        spec, z = case
        eq, n, lam = spec.data.normal, spec.n, spec.lam
        value, grad = value_and_gradient(spec, z)
        want_value, want_grad = projected_objective_exact(spec.X, spec.y, lam, z)
        assert abs(value - want_value) <= 1e-11 * want_value
        S = np.flatnonzero(z > 0.0)
        b = np.zeros(spec.p)
        b[S] = RidgeSystem(spec.data, S, z[S], n * lam).solve(eq.c[S])
        if (eq.yy - float(eq.c @ b)) / n >= relaxation._GRAM_FLOOR * eq.yy / n:
            u = (spec.y - spec.X @ relaxation._evaluator(spec)(z)[2]) / (n * lam)
            scale = lam * float(eq.sq.max() * (u @ u))
            assert np.abs(grad - want_grad).max() <= 1e-12 * scale

    def test_one_off_evaluation_forms_no_gram(self):
        data = generate_synthetic(SyntheticConfig(n=120, p=60, k_true=6, seed=1))[0]
        spec = ProblemSpec(data=data, lam=0.08, k=6)
        want = relaxation._evaluator(spec)(np.full(60, 0.1))
        got = value_and_gradient(spec, np.full(60, 0.1))
        assert spec.data.normal.formed_gram() is None
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    @PROPERTY
    @given(case=tall_cases())
    def test_each_evaluation_picks_its_route_from_its_value(self, case):
        # The Gram formulas at z, from the one support solve; an evaluation keeps
        # them bit for bit where that value passes the floor, and is the X route's
        # bit for bit where it does not.
        spec, z = case
        eq, n, lam = spec.data.normal, spec.n, spec.lam
        S = np.flatnonzero(z > 0.0)
        b = np.zeros(spec.p)
        b[S] = RidgeSystem(spec.data, S, z[S], n * lam).solve(eq.c[S])
        value = (eq.yy - float(eq.c @ b)) / n
        if value >= relaxation._GRAM_FLOOR * eq.yy / n:
            want = value, -lam * ((eq.c - eq.G @ b) / (n * lam)) ** 2, b
        else:
            want = relaxation._evaluator(spec)(z)[:3]
        got = relaxation._evaluator(spec, eq.G)(z)[:3]
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("noise", [0.0, 1.0], ids=["noise_free", "noisy"])
    def test_solve_makes_no_evaluation_at_one(self, monkeypatch, noise):
        # lam = 1e-5: n*lam is far below _GRAM_FLOOR*||X||_F^2, and the noise-free
        # fit's values all lie below the floor, so its evaluations fit on X
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 10))
        y = X @ np.arange(1.0, 11.0) + noise * rng.standard_normal(40)
        spec = ProblemSpec(data=Dataset(X=X, y=y), lam=1e-5, k=3)
        at_one = _recorded_evaluations(monkeypatch)
        sol = solve_v4(spec)
        assert sol.converged and at_one and not any(at_one)
        if not noise:
            want = relaxation._evaluator(spec)(sol.z)[0]
            assert abs(sol.value - want) <= 1e-12 * want

    @pytest.mark.parametrize("lam", [1e-5, 1e-8])
    def test_one_off_keeps_its_digits_on_a_noise_free_fit(self, lam):
        # the Gram route's y^T y - c . b would cancel here; the floor sends it to X
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 10))
        spec = ProblemSpec(data=Dataset(X=X, y=X @ rng.uniform(-2.0, 2.0, 10)), lam=lam, k=3)
        spec.data.normal.G
        z = np.full(10, 0.5)
        value = value_and_gradient(spec, z)[0]
        b = relaxation._evaluator(spec)(z)[2]  # the X route's
        assert value == pytest.approx(perspective_value(spec, b, z), rel=1e-12, abs=0.0)


def _relative_gap(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


class TestRecordedMinimizer:
    """Each record's beta is the minimizer its solve evaluated at the returned z."""

    @pytest.mark.parametrize("n, p", [(120, 60), (60, 120)], ids=["tall", "wide"])
    def test_v2_is_v4s_record(self, n, p):
        data = generate_synthetic(SyntheticConfig(n=n, p=p, k_true=6, seed=1))[0]
        spec = ProblemSpec(data=data, lam=0.08, k=6)
        v2, v4 = solve_v2_perspective(spec), solve_v4(spec)
        assert v2.z.tobytes() == v4.z.tobytes() and v2.beta.tobytes() == v4.beta.tobytes()
        for field in ("value", "iterations", "lower_bound", "kkt_residual", "converged"):
            assert getattr(v2, field) == getattr(v4, field), field

    def test_gram_route_beta_matches_the_x_route(self):
        data = generate_synthetic(SyntheticConfig(n=120, p=60, k_true=6, seed=1))[0]
        spec = ProblemSpec(data=data, lam=0.08, k=6)
        sol = solve_v4(spec)
        G = spec.data.normal.formed_gram()
        assert G is not None  # formed by the loop, which took the Gram route
        assert _relative_gap(sol.beta, relaxation._evaluator(spec)(sol.z)[2]) <= 1e-12

    @pytest.mark.parametrize("n, k, fixed_one, fixed_zero", [
        (20, 6, (), ()),  # k = p <= n
        (20, 3, (1,), (0, 2, 4)), (4, 3, (1,), (0, 2, 4)),  # budget 2, two free
        (4, 3, (0, 1, 5), ()),  # the ones spend the budget
    ], ids=["k_equals_p", "budget_covers_free_tall", "budget_covers_free_wide",
            "ones_fill_budget"])
    def test_closed_form_beta_is_the_fit_on_the_support(self, rng, n, k, fixed_one, fixed_zero):
        spec = random_spec(rng, n, 6, k, 0.2)
        sol = solve_v4(spec, fixed_one=fixed_one, fixed_zero=fixed_zero)
        assert sol.iterations == 0 and sol.converged
        fit = restricted_estimator(spec, np.flatnonzero(sol.z))
        assert _relative_gap(sol.beta, fit.beta) <= 1e-12
        assert sol.value == pytest.approx(fit.objective, rel=1e-12)

    @pytest.mark.parametrize("n, p", [(13, 6), (6, 13)], ids=["tall", "wide"])
    def test_v3_beta_is_the_fit_at_its_z(self, n, p):
        spec = random_spec(np.random.default_rng(5), n, p, 2, 0.05)
        M = big_m(spec, v_upper=greedy_select(spec)[0].objective)
        sol = solve_v3(spec, M)
        want = relaxation._perspective_fit(spec, sol.z, M.M, np.zeros(p))[2]
        assert _relative_gap(sol.beta, want) <= 1e-10


class TestBoxConstrainedStep:
    """v3's active-set beta-step against the coordinate-descent reference."""

    @PROPERTY
    @given(case=box_step_cases())
    def test_matches_reference_and_kkt(self, case):
        spec, z, M, beta0 = case
        b = relaxation._perspective_fit(spec, z, M, beta0)[2]
        # The sweep budget is raised: at lam ~ 1e-3 with p > n the reference
        # needs far more than its default 2000 sweeps to reach tol.
        ref = box_weighted_ridge_cd(spec, z, M, beta0, sweeps=10**6, tol=1e-15)
        bound = M * z
        assert np.all(np.abs(b) <= bound) and np.all(b[z == 0.0] == 0.0)
        value = perspective_value(spec, b, z)
        assert abs(value - perspective_value(spec, ref, z)) <= 1e-12 * value
        assert np.abs(b - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())
        # KKT: g = X^T (X b - y) + n*lam*b/z vanishes on the free coordinates
        # and points outward (or vanishes) on the clamped ones.
        on = z > 0.0
        r = spec.X @ b - spec.y
        g = spec.X[:, on].T @ r + spec.n * spec.lam * b[on] / z[on]
        scale = np.abs(spec.X[:, on]).T @ np.abs(r) + spec.n * spec.lam * M[on]
        at_bound = np.abs(b[on]) >= bound[on]
        slack = np.where(at_bound, np.maximum(np.sign(b[on]) * g, 0.0), np.abs(g))
        assert np.all(slack <= 1e-9 * scale)

    @PROPERTY
    @given(case=box_step_cases())
    def test_slack_bound_matches_unbounded(self, case):
        # Bounds 1e6 times the valid big-M never bind: value, gradient and b
        # are v4's f, its gradient and v2's b at the same z.
        spec, z, _, beta0 = case
        M = big_m(spec).M * 1e6
        free = relaxation._evaluator(spec)(z)[:3]
        boxed = relaxation._perspective_fit(spec, z, M, beta0)
        assert np.all(np.abs(free[2]) <= M * z)
        assert abs(boxed[0] - free[0]) <= 1e-12 * abs(free[0])
        for got, want in zip(boxed[1:], free[1:]):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_pass_cap_raises(self, monkeypatch):
        # A solve that always overshoots the box: the coordinate released after
        # each feasible pass is clamped again at once, so the loop never ends.
        class Overshoot:
            def __init__(self, data, S, w, nlam):
                self.n, self.m = data.n, S.size

            def fit(self, r):
                return np.full(self.m, 1e3), np.zeros(self.n), None

        monkeypatch.setattr(relaxation, "RidgeSystem", Overshoot)
        spec = identity_pair_spec(lam=0.1, k=1)
        with pytest.raises(NumericalError):
            relaxation._perspective_fit(spec, np.ones(2), np.full(2, 10.0), np.zeros(2))


def _node_optimum(spec, ones, free):
    """The best objective over supports holding ``ones`` and at most
    k - |ones| of ``free``, by enumeration."""
    budget = spec.k - len(ones)
    return min(
        subset_value_oracle(spec.X, spec.y, spec.lam, list(ones) + list(extra))
        for r in range(min(budget, len(free)) + 1)
        for extra in itertools.combinations(free, r)
    )


class TestCertifiedGap:
    """v1 to v4 report value - lower_bound as kkt_residual, with
    lower_bound certified against enumeration."""

    @settings(PROPERTY, max_examples=100)
    @given(node=st.sampled_from(["root", "open"]).flatmap(masked_nodes))
    def test_lower_bound_below_optimum(self, node):
        spec, ones, free, zeros = node
        best = _node_optimum(spec, ones, free)
        v4 = solve_v4(spec, tol=1e-7, fixed_one=ones, fixed_zero=zeros)
        solves = [(v4, 1e-7)]
        if not ones and not zeros:  # v1, v2 and v3 solve the root only
            v2 = solve_v2_perspective(spec)
            # Bounds valid at the greedy level, tight enough that v1's budget can bind.
            M = big_m(spec, v_upper=greedy_select(spec)[0].objective)
            solves += [(solve_v1(spec, M, tol=1e-8), 1e-8), (v2, 1e-7),
                       (solve_v3(spec, M, tol=1e-9), 1e-9)]
            # v2 == v4, and each value is attained, so each bound lies below both.
            top = min(v2.value, v4.value) * (1.0 + 1e-12)
            assert v2.lower_bound <= top and v4.lower_bound <= top
        for sol, tol in solves:
            assert sol.lower_bound <= best * (1.0 + 1e-10)
            assert sol.kkt_residual == sol.value - sol.lower_bound
            # A gap at a feasible point is nonnegative, up to rounding.
            assert sol.kkt_residual >= -1e-12 * (1.0 + abs(sol.value))
            if sol.converged:
                assert sol.kkt_residual <= tol * (1.0 + abs(sol.value))


def _assert_agree(new, old, best, k):
    """Both solves converged, their values agree within the sum of their
    certified gaps, the bound lies below the optimum and z is feasible."""
    assert new.converged and old.converged
    slack = 1e-12 * (1.0 + abs(old.value))
    assert abs(new.value - old.value) <= new.kkt_residual + old.kkt_residual + slack
    assert new.lower_bound <= best * (1.0 + 1e-10)
    assert np.all(new.z >= 0.0) and np.all(new.z <= 1.0)
    assert new.z.sum() <= k * (1.0 + 1e-12)


class TestNonmonotoneAgainstMonotone:
    """The nonmonotone loop against the former monotone one (tests/oracles)."""

    @settings(PROPERTY, max_examples=60)
    @given(node=st.sampled_from(["root", "open"]).flatmap(masked_nodes), data=st.data())
    def test_v4(self, node, data):
        spec, ones, free, zeros = node
        z0 = data.draw(st.none() | arrays(float, spec.p, elements=st.floats(-0.5, 1.5)))
        new = solve_v4(spec, fixed_one=ones, fixed_zero=zeros, z0=z0)
        with mock.patch.object(relaxation, "_projected_gradient", monotone_projected_gradient):
            old = solve_v4(spec, fixed_one=ones, fixed_zero=zeros, z0=z0)
        _assert_agree(new, old, _node_optimum(spec, ones, free), spec.k)
        assert np.all(new.z[ones] == 1.0) and np.all(new.z[zeros] == 0.0)

    @settings(PROPERTY, max_examples=30)
    @given(node=masked_nodes("root"))
    def test_v1(self, node):
        spec = node[0]
        M = big_m(spec, v_upper=greedy_select(spec)[0].objective)
        new = solve_v1(spec, M)
        with mock.patch.object(relaxation, "_projected_gradient", monotone_projected_gradient), \
                mock.patch.object(relaxation, "_project_weighted_l1_box",
                                  weighted_l1_box_projection_bisection):
            old = solve_v1(spec, M)
        _assert_agree(new, old, brute_force(spec).objective, spec.k)


@st.composite
def small_specs(draw):
    n = draw(st.integers(6, 16))
    p = draw(st.integers(3, 9))
    k = draw(st.integers(1, 3))
    lam = draw(st.sampled_from([0.01, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_spec(rng, n, p, k, lam, signal=draw(st.booleans()))


class TestRelaxationSandwich:
    @settings(PROPERTY, max_examples=30)
    @given(spec=small_specs())
    def test_v1_v2_below_v3_below_optimum(self, spec):
        """v1 <= v3 and v2 <= v3 <= brute force, with big-M bounds valid at the
        greedy objective (which the optimum cannot exceed)."""
        M = big_m(spec, v_upper=greedy_select(spec)[0].objective)
        v3 = solve_v3(spec, M).value
        tol = 1e-6 * (1.0 + v3)
        assert solve_v1(spec, M).value <= v3 + tol
        assert solve_v2_perspective(spec).value <= v3 + tol
        assert v3 <= brute_force(spec).objective + tol


class TestBudgetSearchProperties:
    """The three callers of the shared exact threshold search."""

    @PROPERTY
    @given(v=EDGE_VECTORS, k=st.floats(0.05, 12.0))
    def test_projection_matches_bisection(self, v, k):
        z = project_capped_simplex(v, k)
        assert z == pytest.approx(projection_tau_bisection(v, k), abs=1e-10)
        assert z.sum() <= k + 1e-9
        assert np.all(z >= 0.0) and np.all(z <= 1.0)
        # equal entries get equal values, and entries at or below 0 stay at 0
        for x in np.unique(v):
            assert np.ptp(z[v == x]) == 0.0
        assert np.all(z[v <= 0.0] == 0.0)

    @settings(PROPERTY, max_examples=25)
    @given(case=waterfill_cases())
    # subnormal raw: share * k / raw.sum() would overflow
    @example(case=(np.array([1.0, -2.0]), 1.5, np.array([5e-324, 1e-320]), 0.5))
    def test_waterfill_no_worse_than_grid(self, case):
        beta, k, raw, share = case
        lower = raw * (share * k / raw.sum()) if raw.sum() > share * k else raw
        z = waterfill_z(beta, k, lower=lower)
        assert np.all(z >= lower) and np.all(z <= 1.0)
        assert z.sum() <= k + 1e-9
        nz = beta != 0.0
        if not nz.any():
            return
        achieved = float(np.sum(beta[nz] ** 2 / z[nz]))
        best = waterfill_objective_grid(beta, k, lower=lower, levels=20001)
        assert achieved <= best + 1e-9 * (1.0 + best)

    @PROPERTY
    @given(v=EDGE_VECTORS, data=st.data())
    def test_scalar_arguments_broadcast(self, v, data):
        # A scalar slope or bound searches exactly as its full vector does.
        p = v.size
        s = data.draw(arrays(float, p, elements=st.floats(0.1, 4.0)))
        lo = data.draw(st.sampled_from([0.0, 0.25]))
        k = data.draw(st.floats(lo * p, float(p), exclude_min=True, exclude_max=True))
        full = np.full(p, lo)
        assert np.array_equal(relaxation._fill_budget(v, 1.0, lo, k),
                              relaxation._fill_budget(v, np.ones(p), full, k))
        assert np.array_equal(relaxation._fill_budget(v, s, lo, k),
                              relaxation._fill_budget(v, s, full, k))

    @PROPERTY
    @given(data=st.data())
    def test_waterfill_zero_beta_coordinates(self, data):
        # beta_i == 0 coordinates stay at their lower bound, outside the search,
        # and the others match a bisection on the level.
        p = data.draw(st.integers(1, 12))
        beta = data.draw(arrays(float, p, elements=st.one_of(
            st.sampled_from([0.0, 1.0, -1.0, 0.5]), SIGNED)))
        k = data.draw(st.floats(0.1, float(p)))
        raw = data.draw(arrays(float, p, elements=st.one_of(
            st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1.0))))
        share = data.draw(st.floats(0.0, 0.95))
        lower = raw * min(1.0, share * k / raw.sum()) if raw.sum() > 0 else raw
        z = waterfill_z(beta, k, lower=lower)
        zero = beta == 0.0
        assert np.array_equal(z[zero], lower[zero])
        assert np.all(z >= lower) and np.all(z <= 1.0)
        assert z.sum() <= k + 1e-9
        assert z == pytest.approx(waterfill_bisection(beta, k, lower), abs=1e-10)

    @PROPERTY
    @given(data=st.data())
    def test_weighted_l1_box_matches_bisection(self, data):
        p = data.draw(st.integers(1, 20))
        v = data.draw(arrays(float, p, elements=st.one_of(EDGE, st.floats(-5.0, 5.0))))
        M = data.draw(arrays(float, p, elements=st.one_of(
            st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 5.0))))
        k = data.draw(st.floats(0.1, float(p)))
        b = relaxation._project_weighted_l1_box(v, M, k)
        assert np.sum(np.abs(b) / M) <= k + 1e-9
        assert np.all(np.abs(b) <= M)
        assert b == pytest.approx(weighted_l1_box_projection_bisection(v, M, k), abs=1e-10)
