import math

import numpy as np
import pytest

from ohmgraph import (
    build_graph,
    complete,
    erdos_renyi,
    is_connected,
    laplacian_matrix,
    parallel_paths,
    path,
    random_regular_expander,
    torus,
)
from ohmgraph.graph import _hops


def laplacian_pinv(L):
    """Pseudoinverse of a connected graph's Laplacian: ground vertex 0, invert
    the grounded block, and centre the result.  Exact on the all-ones
    direction, which ``np.linalg.pinv`` can leave far from zero on an
    ill-conditioned Laplacian."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    grounded = np.zeros((n, n))
    grounded[1:, 1:] = np.linalg.inv(L[1:, 1:])
    centre = np.eye(n) - 1.0 / n
    return centre @ grounded @ centre


def bfs_distance(graph, u, v):
    """Unweighted hop count from ``u`` to ``v``; ``math.inf`` when unreachable."""
    d = _hops(graph, u)[v]
    return d if d >= 0 else math.inf


def oracle_pinv_apply(graph, b):
    return laplacian_pinv(laplacian_matrix(graph)) @ np.asarray(b)


def indicator_drop(n, u, v):
    b = np.zeros(n)
    b[u] = 1.0
    b[v] = -1.0
    return b


def net_outflow(graph, f):
    """B^T f: out-flow minus in-flow of the edge vector ``f`` at each vertex."""
    n = graph.n_vertices
    return np.bincount(graph.tails, weights=f, minlength=n) - np.bincount(graph.heads, weights=f, minlength=n)


def single_edge():
    return build_graph([(0, 1, 1.0)])


def triangle():
    return complete(3)


def random_connected_graph(rng, max_n=24, weighted=False):
    """Seeded small connected graph drawn from a mixed pool, for sweeps."""
    kind = rng.integers(5)
    if kind == 0:
        g = torus(int(rng.integers(2, 5)))
    elif kind == 1:
        g = complete(int(rng.integers(3, 7)))
    elif kind == 2:
        g = path(int(rng.integers(3, max_n)))
    elif kind == 3:
        g = random_regular_expander(2 * int(rng.integers(3, max_n // 2)), 4, seed=int(rng.integers(10_000)))
    else:
        while True:
            g = erdos_renyi(int(rng.integers(5, max_n)), 0.4, seed=int(rng.integers(10_000)))
            if is_connected(g):
                break
    if weighted:
        conds = rng.uniform(0.1, 10.0, size=g.n_edges)
        g = build_graph(
            [(t, h, float(c)) for (t, h, _), c in zip(g.edge_list(), conds)],
            n_vertices=g.n_vertices,
        )
    return g


def log_uniform_expander(n, seed):
    """Random 4-regular expander with conductances log-uniform in [1e-2, 1e2]."""
    g = random_regular_expander(n, 4, seed=seed)
    conds = np.exp(np.random.default_rng(seed).uniform(np.log(1e-2), np.log(1e2), g.n_edges))
    return build_graph([(t, h, float(c)) for (t, h, _), c in zip(g.edge_list(), conds)], n_vertices=n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
