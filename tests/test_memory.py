"""No temporary the size of X in a public entry point, on a wide design.

Each entry point runs under tracemalloc on one wide cell, and its peak beyond
X must stay within 0.25 x X.  At (n, p) = (100, 20000) a vector of length p is
1% of X, so the bound tells an n x p temporary (100%) from the O(p) working
vectors a solver holds (the capped-simplex projection alone holds about nine).
At n = 20 the same vectors already reach 0.36 x X in greedy and GCV, so a
smaller n would measure them instead.  Iteration and node caps keep the cost
down where a capped run takes the same path as a full one.

On a tall cell, (4000, 300), the relaxation-backed entry points run v4's loop
on X^T X (formed first, as the dataset keeps it), and must stay within the
same bound: gathering X_S on each evaluation took them to 0.27 x X (branch
and bound 0.31), where K and its factor, two |S| x |S| arrays, take 0.15.
``solve_v1`` and ``solve_v3`` are held to it with their big-M bounds formed
inside the call.  v3 evaluates through v4's evaluator, on X^T X wherever no
bound binds, and peaks at 0.085 x X, mostly big_m's eigenvalue copy of X^T X
(0.19 when it gathered X_S on each pass of its own beta-step).
``gcv_score`` needs X_S and its hat matrix's K^-1 X_S^T, two arrays the size
of X when S holds nearly every column; on 299 of the 300 it is held to
2.25 x X, which a third product of that size (3.08 x X) would break.
"""

import tracemalloc

import numpy as np
import pytest

from sparseridge import (
    Dataset,
    ProblemSpec,
    SyntheticConfig,
    big_m,
    branch_and_bound,
    fit,
    gcv_score,
    gcv_select,
    generate_synthetic,
    solve_v1,
    solve_v2_perspective,
    solve_v3,
    solve_v4,
)
from sparseridge.data_io import save_dataset_csv

N, P, K = 100, 20000, 3
CONFIG = SyntheticConfig(n=N, p=P, k_true=K, seed=1)
BOUND = 0.25  # times X


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` holds at once, beyond what was allocated before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def spec():
    data = generate_synthetic(CONFIG)[0]
    data.normal  # formed once per dataset and kept, so not a temporary of any call
    return ProblemSpec(data=data, lam=0.08, k=K)


ENTRY_POINTS = {
    "fit greedy": lambda s, tmp: fit(s, "greedy"),
    "fit restricted": lambda s, tmp: fit(s, "restricted"),
    "fit randomized": lambda s, tmp: fit(s, "randomized"),
    "fit heuristic": lambda s, tmp: fit(s, "heuristic"),
    # C(p, 1) supports: the only budget brute force can enumerate at this p
    "fit brute": lambda s, tmp: fit(ProblemSpec(data=s.data, lam=s.lam, k=1), "brute"),
    "branch_and_bound": lambda s, tmp: branch_and_bound(s, node_cap=2),
    # v1 starts from the ridge fit on every column; v3's first evaluation fits the k at its start
    "solve_v1": lambda s, tmp: solve_v1(s, big_m(s), max_iter=20),
    "solve_v2_perspective": lambda s, tmp: solve_v2_perspective(s),
    "solve_v3": lambda s, tmp: solve_v3(s, big_m(s), max_iter=5),
    "solve_v4": lambda s, tmp: solve_v4(s),
    "gcv_select": lambda s, tmp: gcv_select(s.data, K, [0.04, 0.08]),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_peak_beyond_x_is_a_fraction_of_x(spec, tmp_path, name):
    peak = traced_peak(lambda: ENTRY_POINTS[name](spec, tmp_path))
    assert peak <= BOUND * spec.X.nbytes, f"{name}: {peak / spec.X.nbytes:.3f} x X"


TALL_CONFIG = SyntheticConfig(n=4000, p=300, k_true=10, seed=1)
TALL_ENTRY_POINTS = {
    "solve_v4": solve_v4,
    "solve_v2_perspective": solve_v2_perspective,
    "fit restricted": lambda s: fit(s, "restricted"),
    "fit randomized": lambda s: fit(s, "randomized"),
    "branch_and_bound": lambda s: branch_and_bound(s, node_cap=3),
    "solve_v1": lambda s: solve_v1(s, big_m(s)),
    "solve_v3": lambda s: solve_v3(s, big_m(s)),
}


@pytest.fixture(scope="module")
def tall_spec():
    data = generate_synthetic(TALL_CONFIG)[0]
    data.normal.G  # X^T X, formed once per dataset and kept
    return ProblemSpec(data=data, lam=0.08, k=TALL_CONFIG.k_true)


@pytest.mark.parametrize("name", list(TALL_ENTRY_POINTS))
def test_tall_peak_beyond_x_is_a_fraction_of_x(tall_spec, name):
    peak = traced_peak(lambda: TALL_ENTRY_POINTS[name](tall_spec))
    assert peak <= BOUND * tall_spec.X.nbytes, f"{name}: {peak / tall_spec.X.nbytes:.3f} x X"


def test_gcv_score_holds_two_products_the_size_of_x(tall_spec):
    peak = traced_peak(lambda: gcv_score(tall_spec, range(299), 0.08))
    assert peak <= 2.25 * tall_spec.X.nbytes, f"{peak / tall_spec.X.nbytes:.3f} x X"


def test_csv_writer_holds_no_copy_of_x(spec, tmp_path):
    # The writer works a row at a time, so its share of X does not depend on p:
    # the cell's first 2000 columns test it at a tenth of the cost of all of them.
    data = Dataset(X=spec.X[:, :2000], y=spec.y)
    peak = traced_peak(lambda: save_dataset_csv(data, str(tmp_path / "wide.csv")))
    assert peak <= BOUND * data.X.nbytes, f"{peak / data.X.nbytes:.3f} x X"


def test_generation_holds_one_x():
    data = None

    def generate():
        nonlocal data
        data = generate_synthetic(CONFIG)[0]

    peak, x_bytes = traced_peak(generate), data.X.nbytes
    assert peak <= (1.0 + BOUND) * x_bytes, f"{peak / x_bytes:.3f} x X in all"
    assert np.array_equal(data.X, generate_synthetic(CONFIG)[0].X)
