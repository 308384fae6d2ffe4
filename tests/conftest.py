import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st

from ohmgraph import (
    LaplacianSystem,
    SchurSystem,
    build_graph,
    complete,
    erdos_renyi,
    is_connected,
    laplacian_matrix,
    parallel_paths,
    path,
    random_regular_expander,
    torus,
    unit_flow,
)
from ohmgraph.electrical import _abs_zeroed
from ohmgraph.graph import _check_index, _graph_from_arrays, _hops
from ohmgraph.localization import _eliminate_pivot
from ohmgraph.schur import _check_schur


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


def identify_prob_map(graph, S):
    """Hitting-probability map by terminal identification, for a sorted,
    unique terminal array ``S``.

    For each terminal ``v``, all other terminals are merged into a single
    ground vertex; the normalized potentials of the v-to-ground unit flow are
    the hitting probabilities.  Merging turns terminal-terminal edges into
    self-loops, which are dropped (they cancel in every potential difference).
    """
    n = graph.n_vertices
    s = S.size
    pm = np.empty((s, n))
    for i, v in enumerate(S):
        others = S[S != v]
        idmap = np.full(n, -1, dtype=np.int64)
        idmap[others] = 0
        rest = np.flatnonzero(idmap < 0)
        idmap[rest] = np.arange(1, rest.size + 1)
        ma = idmap[graph.tails]
        mb = idmap[graph.heads]
        keep = ma != mb
        merged = _graph_from_arrays(ma[keep], mb[keep], graph.conductances[keep], rest.size + 1)
        b = np.zeros(merged.n_vertices)
        b[idmap[v]] = 1.0
        b[0] = -1.0
        phi = LaplacianSystem(merged).solve(b)
        denom = phi[idmap[v]] - phi[0]
        pm[i, :] = np.abs(phi[idmap] - phi[0]) / denom
    return pm


def walk_prob_map(graph, S):
    """Hitting-probability map from the absorbing-chain linear system, for a
    sorted, unique terminal array ``S``: transition probabilities
    proportional to conductances, terminals absorbing."""
    n = graph.n_vertices
    L = laplacian_matrix(graph)
    A = np.diag(np.diag(L)) - L  # weighted adjacency, parallel edges summed
    P = A / A.sum(axis=1)[:, None]
    comp = np.setdiff1d(np.arange(n), S)
    s = S.size
    pm = np.zeros((s, n))
    pm[np.arange(s), S] = 1.0
    if comp.size:
        T = P[np.ix_(comp, comp)]
        H = np.linalg.solve(np.eye(comp.size) - T, P[np.ix_(comp, S)])
        pm[:, comp] = H.T
    return pm


def block_prob_map_reference(graph, S):
    """Probability map and Schur Laplacian by the dense block formula, for a
    sorted, unique terminal array ``S``: with the Laplacian split into the
    terminal block P, the coupling Q and the interior block R, factored by
    Cholesky in natural order, ``pm[:, comp] = -R^-1 Q^T`` and the Schur
    Laplacian is ``P - Q R^-1 Q^T``."""
    n = graph.n_vertices
    L = laplacian_matrix(graph)
    comp = np.setdiff1d(np.arange(n), S)
    pm = np.zeros((S.size, n))
    pm[np.arange(S.size), S] = 1.0
    P = L[np.ix_(S, S)]
    if comp.size == 0:
        return pm, P
    Q = L[np.ix_(S, comp)]
    X = scipy.linalg.cho_solve(scipy.linalg.cho_factor(L[np.ix_(comp, comp)], lower=True), Q.T)
    pm[:, comp] = -X.T
    return pm, P - Q @ X


def delta_edge(graph, edge_index):
    """Flow stretch of one edge of an unweighted graph: the l1 norm of the
    unit flow between its endpoints (whose hop distance is 1), from one pair
    solve, so it does not read Y.  The maximum over the edges is the
    competitive-ratio bound that ``route_demands`` reports."""
    if not graph.is_unweighted:
        raise ValueError(
            "flow stretch (delta) is defined for unweighted graphs only (all conductances 1); "
            "this graph carries non-unit conductances"
        )
    edge_index = _check_index(edge_index, "edge_index", graph.n_edges)
    f = unit_flow(graph, int(graph.tails[edge_index]), int(graph.heads[edge_index]))
    return float(_abs_zeroed(f).sum())


def eliminate_one(system, v):
    """Eliminate one terminal of a :class:`SchurSystem` by a star-clique
    update of its Laplacian and the matching one-step update of its
    probability map: the pivot step of ``run_elimination`` on copies of the
    system's arrays, so nothing is re-solved.  Equals the from-scratch
    elimination onto the smaller terminal set."""
    if system.size <= 2:
        raise ValueError("cannot eliminate below 2 terminals (termination state)")
    k = system.local_index(v)
    L = system.laplacian.copy()
    pm = system.prob_map.copy()
    _eliminate_pivot(L, pm, k)
    keep = np.arange(system.size) != k
    updated = L[np.ix_(keep, keep)]
    _check_schur(updated)
    return SchurSystem(base=system.base, vertices=system.vertices[keep], laplacian=updated, prob_map=pm[keep])


def impedance_reference(graph):
    """``Pi_ref = W^T W`` with ``W = R^-1 B_g^T sqrt(C)``, from numpy's
    Cholesky factor ``R`` of the grounded block ``L[1:, 1:] = R R^T`` and the
    grounded incidence ``B_g^T`` (row 0 dropped); it shares no code with the
    library's solves."""
    sqrt_c = np.sqrt(graph.conductances)
    bt = np.zeros((graph.n_vertices, graph.n_edges))
    bt[graph.tails, np.arange(graph.n_edges)] = sqrt_c
    bt[graph.heads, np.arange(graph.n_edges)] = -sqrt_c
    R = np.linalg.cholesky(laplacian_matrix(graph)[1:, 1:])
    W = scipy.linalg.solve_triangular(R, bt[1:], lower=True)
    return W.T @ W


def impedance_longdouble(graph):
    """Pi in ``np.longdouble`` from a Cholesky factor ``R`` of the grounded
    block, ``Pi = sqrt(C) B_g (R R^T)^-1 B_g^T sqrt(C)``, computed in natural
    vertex order by outer-product updates.  Where long double carries more
    digits than double (the 80-bit x87 format: eps 1.1e-19) its own error is
    far below that of any double-precision factor, whatever the vertex
    order, so it judges a reordered factor, which ``impedance_reference``
    (double precision, natural order) cannot."""
    n, m = graph.n_vertices, graph.n_edges
    t, h = graph.tails, graph.heads
    c = graph.conductances.astype(np.longdouble)
    A = np.zeros((n, n), dtype=np.longdouble)
    for rows, cols, sign in ((t, t, 1), (h, h, 1), (t, h, -1), (h, t, -1)):
        np.add.at(A, (rows, cols), sign * c)
    R = A[1:, 1:]
    for j in range(n - 1):  # R R^T = L[1:, 1:], written over its lower triangle
        R[j, j] = np.sqrt(R[j, j])
        R[j + 1 :, j] /= R[j, j]
        R[j + 1 :, j + 1 :] -= np.outer(R[j + 1 :, j], R[j + 1 :, j])
    sqrt_c = np.sqrt(c)
    X = np.zeros((n, m), dtype=np.longdouble)
    X[t, np.arange(m)] = sqrt_c
    X[h, np.arange(m)] = -sqrt_c
    W = X[1:]
    for j in range(n - 1):  # forward substitution: W = R^-1 B_g^T sqrt(C)
        W[j] /= R[j, j]
        W[j + 1 :] -= np.outer(R[j + 1 :, j], W[j])
    for j in reversed(range(n - 1)):  # back substitution: X[1:] = R^-T W
        W[j] /= R[j, j]
        W[:j] -= np.outer(R[j, :j], W[j])
    X[0] = 0.0
    return sqrt_c[:, None] * (X[t] - X[h])


def oracle_pinv_apply(graph, b):
    """``L^+ b`` for a vector or the columns of an array, solved in
    ``np.longdouble``: ``b`` centred, vertex 0 grounded, the grounded block
    eliminated in natural order, and the result centred.  Where long double
    is wider than double, its own error stays far below a double solve's
    at wide conductance spreads: on the path 2-0-1-3 with conductances 1,
    1e-3 and 1e3, ``laplacian_pinv`` was 8.4e-8 off, the library 1.9e-11."""
    L = laplacian_matrix(graph).astype(np.longdouble)
    b = np.asarray(b, dtype=np.longdouble)
    A, y = L[1:, 1:], b[1:] - b.mean(axis=0)
    for j in range(graph.n_vertices - 1):  # Gaussian elimination; A is positive definite
        f = A[j + 1 :, j] / A[j, j]
        A[j + 1 :, j:] -= np.outer(f, A[j, j:])
        y[j + 1 :] -= np.multiply.outer(f, y[j])
    x = np.zeros_like(b)
    for j in reversed(range(graph.n_vertices - 1)):  # back substitution into x[1:]
        x[j + 1] = (y[j] - A[j, j + 1 :] @ x[j + 2 :]) / A[j, j]
    return (x - x.mean(axis=0)).astype(float)


def indicator_drop(n, u, v):
    b = np.zeros(n)
    b[u] = 1.0
    b[v] = -1.0
    return b


def net_outflow(graph, f):
    """B^T f: out-flow minus in-flow of the edge vector ``f`` at each vertex."""
    n = graph.n_vertices
    return np.bincount(graph.tails, weights=f, minlength=n) - np.bincount(graph.heads, weights=f, minlength=n)


def bad_ids(bound):
    """Ids that every entry point taking an id in ``range(bound)`` refuses with
    a ``ValueError`` naming the argument: a float, a Python and a numpy bool,
    a numeric string, and both sides of the range."""
    return [1.0, True, np.True_, "1", -1, bound]


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


def log_uniform_expander(n, seed, spread=1e2):
    """Random 4-regular expander with conductances log-uniform in
    [1/spread, spread]."""
    g = random_regular_expander(n, 4, seed=seed)
    conds = np.exp(np.random.default_rng(seed).uniform(np.log(1 / spread), np.log(spread), g.n_edges))
    return build_graph([(t, h, float(c)) for (t, h, _), c in zip(g.edge_list(), conds)], n_vertices=n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@st.composite
def multigraphs(draw, conductances=None):
    """A connected multigraph on n <= 12 vertices: a random spanning tree
    plus extra edges, repeated in the same and the other orientation, with
    conductances log-uniform in [1e-3, 1e3], or drawn from the strategy
    ``conductances`` when one is given."""
    n = draw(st.integers(2, 12))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    ends += draw(st.lists(pair, max_size=2 * n))
    ends += [(h, t) for t, h in draw(st.lists(st.sampled_from(ends), max_size=n))]
    if conductances is None:
        exponents = draw(st.lists(st.floats(-3, 3), min_size=len(ends), max_size=len(ends)))
        conds = [10.0**x for x in exponents]
    else:
        conds = draw(st.lists(conductances, min_size=len(ends), max_size=len(ends)))
    return build_graph([(t, h, c) for (t, h), c in zip(ends, conds)], n_vertices=n)
