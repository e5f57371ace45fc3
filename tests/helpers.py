import numpy as np
from hypothesis import strategies as st

from sparseridge import Dataset, ProblemSpec


def identity_pair_spec(lam=0.1, k=1):
    """The 2-feature identity-design instance with y = (1, 1).

    Closed forms: optimum lam/(1+2*lam) + 1/2 on a single feature,
    perspective/projected relaxation value 4*lam/(1+4*lam), big-M
    relaxation value 2*lam/(1+2*lam) under the loose bound sqrt(1/lam).
    """
    return ProblemSpec(data=Dataset(X=np.eye(2), y=np.array([1.0, 1.0])), lam=lam, k=k)


def random_spec(rng, n, p, k, lam, signal=True):
    X = rng.standard_normal((n, p))
    if signal:
        y = X[:, :k] @ rng.uniform(-2.0, 2.0, size=k) + 0.5 * rng.standard_normal(n)
    else:
        y = rng.standard_normal(n)
    return ProblemSpec(data=Dataset(X=X, y=y), lam=lam, k=k)


def overflow_data(scale=1.0):
    """The 30 x 8 standard-normal design of default_rng(0) (X, then y) with
    column 0 times ``scale``.  At lam = 1e-200 products such as X^T y/(n*lam)
    overflow; at scale 1e160 its Gram entry x_0^T x_0 does."""
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((30, 8)), rng.standard_normal(30)
    X[:, 0] *= scale
    return Dataset(X=X, y=y)


KINDS = ["open", "no_free", "all_ones", "saturated"]


@st.composite
def masked_nodes(draw, kind):
    """A spec with p < n or p > n and a B&B node on it: disjoint fixed_one /
    fixed_zero sets around ``n_free`` free coordinates.  ``kind`` is the root
    (nothing fixed), a node to branch on or one of the closed forms: no free
    coordinate, all k ones fixed, or a remaining budget that covers every
    free coordinate."""
    if draw(st.booleans()):
        p = draw(st.integers(3, 8))
        n = draw(st.integers(p + 1, 14))
    else:
        n = draw(st.integers(3, 7))
        p = draw(st.integers(n + 1, 10))
    k = draw(st.integers(1, min(n, p - 1, 3)))
    lam = draw(st.sampled_from([0.01, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = random_spec(rng, n, p, k, lam, signal=draw(st.booleans()))
    if kind == "root":
        n_one, n_free = 0, p
    elif kind == "all_ones":
        n_one, n_free = k, draw(st.integers(0, p - k))
    elif kind == "no_free":
        n_one, n_free = draw(st.integers(0, k)), 0
    else:
        n_one = draw(st.integers(0, k - 1))
        budget = k - n_one
        n_free = draw(st.integers(1, budget) if kind == "saturated"
                      else st.integers(budget + 1, p - n_one))
    order = rng.permutation(p).tolist()
    ones, free = order[:n_one], order[n_one:n_one + n_free]
    return spec, ones, free, order[n_one + n_free:]
