"""Electrical flows, effective resistance, flow-stretch statistics, and the
transfer impedance projection with its entrywise-absolute norms."""

from __future__ import annotations

import numpy as np

from .graph import Graph, bfs_distance
from .solver import LaplacianSystem, PowerIterationResult, spectral_norm_nonneg

__all__ = [
    "DENSE_EDGE_CAP",
    "ABS_ZERO_TOL",
    "TransferImpedance",
    "unit_flow",
    "effective_resistance",
    "delta_edge",
    "quadratic_form_abs",
]

# Dense mode materializes the m x m impedance matrix; above this edge count
# only the column-streaming mode is allowed.
DENSE_EDGE_CAP = 4000

# Entries below this magnitude are treated as exact zeros before taking
# absolute values, so sign noise on symmetric families does not inflate norms.
ABS_ZERO_TOL = 1e-12

# Rows per block for every pass over Pi.  A block makes two (block, m)
# gathers; at m=2048 and 64 rows they fit a 2 MB L2 cache, and a pass took
# about a fifth less time than with 128 rows (one BLAS thread, 2-core Xeon
# VM).  The solves behind L^+ take blocks eight times as wide: a triangular
# solve gains from wide right-hand sides and runs once per instance.
_DEFAULT_BLOCK = 64


def _abs_zeroed(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``|x|`` with entries below ``ABS_ZERO_TOL`` set to exactly zero."""
    out = np.abs(x, out=out)
    out[out < ABS_ZERO_TOL] = 0.0
    return out


def _check_weights(graph: Graph, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (graph.n_edges,):
        raise ValueError(f"expected an edge weight vector of length {graph.n_edges}, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and entrywise nonnegative")
    return w


def _pseudoinverse(system: LaplacianSystem) -> np.ndarray:
    """Dense ``L^+`` whose row j is the solve against the unit vector e_j."""
    n = system.n
    step = 8 * _DEFAULT_BLOCK
    lplus = np.empty((n, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rhs = np.zeros((n, hi - lo))
        rhs[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        lplus[lo:hi] = system.solve_columns(rhs).T
    return lplus


class TransferImpedance:
    """The edge-space projection ``Pi = sqrt(C) B L^+ B^T sqrt(C)``.

    Construction factors the grounded Laplacian once (kept as ``system``),
    solves for the dense n x n pseudoinverse ``L^+`` in column blocks, and
    keeps it.  Pi is symmetric, so row f is also column f, and every block of
    the impedance is read as a block of rows with no further solve: rows
    ``lo..hi-1`` are ``X = sqrt(c_f) (L^+[tail(f)] - L^+[head(f)])``, two
    contiguous row gathers giving the unit-flow potentials of each edge f,
    followed by the per-edge differences ``sqrt(c_e) (X[:, tail(e)] -
    X[:, head(e)])``.

    The norms read ``|Pi|``, with entries below ``ABS_ZERO_TOL`` zeroed, in
    row blocks.  ``mode='dense'`` (allowed for ``m <= DENSE_EDGE_CAP``)
    computes ``|Pi|`` and the diagonal once at construction and caches them
    in one m x m array, so every later pass reads the cache;
    ``mode='streaming'`` recomputes each block on every pass, holding
    O(n^2 + m * block) memory and never an m x m array.  The instance is
    immutable, so :meth:`per_edge_stats` is computed once and memoized; its
    column sums are ``|Pi| 1``, which :meth:`abs_spectral_norm` takes as its
    first product instead of making another pass.  Entries are differences
    of ``L^+`` entries, so their absolute error scales with machine epsilon
    times ``max |L^+|`` (about n/3 on a path).  Blocks are pure functions of
    the cached ``L^+`` and safe to compute concurrently.
    """

    def __init__(self, graph: Graph, mode: str = "auto"):
        m = graph.n_edges
        if m < 1:
            raise ValueError("graph has no edges")
        if mode == "auto":
            mode = "dense" if m <= DENSE_EDGE_CAP else "streaming"
        if mode not in ("dense", "streaming"):
            raise ValueError(f"unknown mode {mode!r}; use 'dense', 'streaming', or 'auto'")
        if mode == "dense" and m > DENSE_EDGE_CAP:
            raise ValueError(
                f"dense mode materializes an m x m matrix and caps at m={DENSE_EDGE_CAP} "
                f"(got m={m}); use mode='streaming'"
            )
        self.graph = graph
        self.mode = mode
        self.system = LaplacianSystem.from_graph(graph)
        self._sqrt_c = np.sqrt(graph.conductances)
        self._lplus = _pseudoinverse(self.system)
        self._abs_cache = None
        self._stats = None
        if mode == "dense":
            abs_pi, diag = np.empty((m, m)), np.empty(m)
            for lo, hi, ab, d in self._abs_blocks():
                abs_pi[lo:hi] = ab
                diag[lo:hi] = d
            self._abs_cache = (abs_pi, diag)

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def _row_block(self, lo: int, hi: int) -> np.ndarray:
        """Exact signed impedance rows ``lo..hi-1`` as an (hi-lo, m) array."""
        g = self.graph
        # row f: sqrt(c_f) times the potentials of a unit flow across edge f
        x = self._sqrt_c[lo:hi, None] * (self._lplus[g.tails[lo:hi]] - self._lplus[g.heads[lo:hi]])
        rows = np.take(x, g.tails, axis=1)
        rows -= np.take(x, g.heads, axis=1)
        rows *= self._sqrt_c
        return rows

    def column_block(self, lo: int, hi: int) -> np.ndarray:
        """Exact signed impedance columns ``lo..hi-1`` as an (m, hi-lo) array."""
        return self._row_block(lo, hi).T

    def _abs_blocks(self):
        """Yield ``(lo, hi, |Pi| rows lo..hi-1, Pi diagonal lo..hi-1)``, the
        absolute block with entries below ``ABS_ZERO_TOL`` zeroed."""
        m = self.n_edges
        for lo in range(0, m, _DEFAULT_BLOCK):
            hi = min(lo + _DEFAULT_BLOCK, m)
            if self._abs_cache is not None:
                abs_pi, diag = self._abs_cache
                yield lo, hi, abs_pi[lo:hi], diag[lo:hi]
            else:
                block = self._row_block(lo, hi)
                diag = block[np.arange(hi - lo), np.arange(lo, hi)]
                yield lo, hi, _abs_zeroed(block, out=block), diag

    def abs_matvec(self, v) -> np.ndarray:
        """Entrywise-absolute impedance applied to ``v``."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_edges,):
            raise ValueError(f"expected an edge vector of length {self.n_edges}")
        acc = np.empty(self.n_edges)
        for lo, hi, ab, _ in self._abs_blocks():
            acc[lo:hi] = ab @ v
        return acc

    def per_edge_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass returning (abs column sums, flow l1 norms, diagonal).

        For an unweighted graph, column f of ``|Pi|`` sums to the l1 norm of
        the unit electrical flow between the endpoints of edge f, its flow
        stretch; the diagonal sums to the trace, n - 1 on a connected graph.
        The pass runs once per instance; later calls return the same
        read-only arrays.
        """
        if self._stats is None:
            m = self.n_edges
            colsums = np.empty(m)
            l1 = np.empty(m)
            diag = np.empty(m)
            for lo, hi, ab, d in self._abs_blocks():
                # |Pi| is symmetric, so row sums are column sums
                colsums[lo:hi] = ab.sum(axis=1)
                # |flow on e for unit injection across f| = sqrt(c_e/c_f) |Pi_fe|
                l1[lo:hi] = (ab @ self._sqrt_c) / self._sqrt_c[lo:hi]
                diag[lo:hi] = d
            for a in (colsums, l1, diag):
                a.flags.writeable = False
            self._stats = (colsums, l1, diag)
        return self._stats

    def abs_spectral_norm(self, tol: float = 1e-10, max_iter: int | None = None) -> PowerIterationResult:
        """Top eigenvalue of ``|Pi|`` with its Collatz-Wielandt bracket.

        Lanczos starts from the normalized all-ones vector, whose product is
        the memoized column sums, so the first step costs no pass over Pi.
        """
        m = self.n_edges
        first = self.per_edge_stats()[0] / np.sqrt(m)
        return spectral_norm_nonneg(self.abs_matvec, m, tol=tol, max_iter=max_iter, first_product=first)


def unit_flow(graph: Graph, u: int, v: int) -> np.ndarray:
    """Unit electrical current from ``u`` to ``v`` as a signed per-edge vector.

    Satisfies flow conservation with a unit source/sink pair, and its energy
    equals the effective resistance between ``u`` and ``v``.
    """
    n = graph.n_vertices
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex ids ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError("source and sink must differ")
    system = LaplacianSystem.from_graph(graph)
    b = np.zeros(n)
    b[u] = 1.0
    b[v] = -1.0
    potential = system.solve(b)
    return graph.conductances * (potential[graph.tails] - potential[graph.heads])


def effective_resistance(graph: Graph, u: int, v: int) -> float:
    """Quadratic form of the Laplacian pseudoinverse on the u-v indicator drop."""
    n = graph.n_vertices
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex ids ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError("effective resistance needs two distinct vertices")
    system = LaplacianSystem.from_graph(graph)
    b = np.zeros(n)
    b[u] = 1.0
    b[v] = -1.0
    x = system.solve(b)
    return float(x[u] - x[v])


def delta_edge(graph: Graph, edge_index: int) -> float:
    """Flow stretch of one edge: l1 norm of the endpoint unit flow over hop distance."""
    if not graph.is_unweighted:
        raise ValueError(
            "flow stretch (delta) is defined for unweighted graphs only (all conductances 1); "
            "this graph carries non-unit conductances"
        )
    if not (0 <= edge_index < graph.n_edges):
        raise ValueError(f"edge index {edge_index} out of range for m={graph.n_edges}")
    t = int(graph.tails[edge_index])
    h = int(graph.heads[edge_index])
    f = unit_flow(graph, t, h)
    return float(_abs_zeroed(f).sum()) / bfs_distance(graph, t, h)


def quadratic_form_abs(graph: Graph, w) -> float:
    """Quadratic form of the entrywise-absolute impedance on a finite
    nonnegative vector, in one streaming pass over Pi.

    With all-ones ``w`` on an unweighted graph this equals the sum of per-edge
    flow stretches.
    """
    w = _check_weights(graph, w)
    return float(w @ TransferImpedance(graph, mode="streaming").abs_matvec(w))
