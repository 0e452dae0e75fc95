import itertools

import numpy as np


def random_weighted_graph(rng, n, density=0.5, low=-2.0, high=2.0,
                          min_abs=1e-3):
    """Symmetric zero-diagonal weight matrix with entries in [low, high],
    weights nudged away from zero so edges never silently vanish."""
    dense = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                w = rng.uniform(low, high)
                if abs(w) < min_abs:
                    w = min_abs if w >= 0 else -min_abs
                dense[u, v] = dense[v, u] = w
    return dense


def nonempty_weighted_graph(rng, n, **kwargs):
    while True:
        dense = random_weighted_graph(rng, n, **kwargs)
        if np.count_nonzero(dense):
            return dense


def graph_corpus(count, max_n, seed):
    """count random weighted graphs on 2, 3, ..., max_n, 2, ... vertices."""
    rng = np.random.default_rng(seed)
    sizes = itertools.cycle(range(2, max_n + 1))
    return [nonempty_weighted_graph(rng, n)
            for n, _ in zip(sizes, range(count))]


def complete_graph(n):
    return np.ones((n, n)) - np.eye(n)


# (weights, message) pairs that every graph entry point must reject with
# a ValueError matching the message
MALFORMED_GRAPHS = {
    "nan": ([[0.0, np.nan, 1.0], [np.nan, 0.0, 1.0], [1.0, 1.0, 0.0]],
            r"non-finite entry nan at index \(0, 1\)"),
    "asymmetric": ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]],
                   "not symmetric"),
    "diagonal": ([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                 "nonzero diagonal entry at index 0"),
}
