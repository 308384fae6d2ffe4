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

# Columns per block, for the solves behind L^+ and for every pass over Pi.
_DEFAULT_BLOCK = 512


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
    lplus = np.empty((n, n))
    for lo in range(0, n, _DEFAULT_BLOCK):
        hi = min(lo + _DEFAULT_BLOCK, n)
        rhs = np.zeros((n, hi - lo))
        rhs[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        lplus[lo:hi] = system.solve_columns(rhs).T
    return lplus


class TransferImpedance:
    """The edge-space projection ``Pi = sqrt(C) B L^+ B^T sqrt(C)``.

    Construction solves for the dense n x n pseudoinverse ``L^+`` once, n
    columns in blocks, and keeps it.  Every column block of the impedance is
    then two row gathers of ``L^+`` and no further solve: column f is
    ``sqrt(C) B`` applied to the unit-flow potentials
    ``sqrt(c_f) L^+ (e_tail(f) - e_head(f))``.

    The norms read ``|Pi|``, with entries below ``ABS_ZERO_TOL`` zeroed, in
    column blocks.  ``mode='dense'`` (allowed for ``m <= DENSE_EDGE_CAP``)
    computes ``|Pi|`` and the diagonal once at construction and caches them
    in one m x m array, so every later pass reads the cache;
    ``mode='streaming'`` recomputes each block on every pass, holding
    O(n^2 + m * block) memory and never an m x m array.  Entries are
    differences of ``L^+`` entries, so their absolute error scales with
    machine epsilon times ``max |L^+|`` (about n/3 on a path).  Column blocks
    are pure functions of the cached ``L^+`` and safe to compute concurrently.
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
        self._sqrt_c = np.sqrt(graph.conductances)
        self._lplus = _pseudoinverse(LaplacianSystem.from_graph(graph))
        self._abs_cache = None
        if mode == "dense":
            abs_pi, diag = np.empty((m, m)), np.empty(m)
            for lo, hi, ab, d in self._abs_blocks():
                abs_pi[:, lo:hi] = ab
                diag[lo:hi] = d
            self._abs_cache = (abs_pi, diag)

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def column_block(self, lo: int, hi: int) -> np.ndarray:
        """Exact signed impedance columns ``lo..hi-1`` as an (m, hi-lo) array."""
        g = self.graph
        # row f: sqrt(c_f) times the potentials of a unit flow across edge f
        flow_potentials = self._sqrt_c[lo:hi, None] * (
            self._lplus[g.tails[lo:hi]] - self._lplus[g.heads[lo:hi]]
        )
        # contiguous (n, k) so that the per-edge gathers below read whole rows
        d = np.ascontiguousarray(flow_potentials.T)
        return self._sqrt_c[:, None] * (d[g.tails] - d[g.heads])

    def _abs_blocks(self):
        """Yield ``(lo, hi, |Pi| columns lo..hi-1, Pi diagonal lo..hi-1)``, the
        absolute block with entries below ``ABS_ZERO_TOL`` zeroed."""
        m = self.n_edges
        for lo in range(0, m, _DEFAULT_BLOCK):
            hi = min(lo + _DEFAULT_BLOCK, m)
            if self._abs_cache is not None:
                abs_pi, diag = self._abs_cache
                yield lo, hi, abs_pi[:, lo:hi], diag[lo:hi]
            else:
                block = self.column_block(lo, hi)
                diag = block[np.arange(lo, hi), np.arange(hi - lo)]
                yield lo, hi, _abs_zeroed(block, out=block), diag

    def abs_matvec(self, v) -> np.ndarray:
        """Entrywise-absolute impedance applied to ``v``."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_edges,):
            raise ValueError(f"expected an edge vector of length {self.n_edges}")
        acc = np.zeros(self.n_edges)
        for lo, hi, ab, _ in self._abs_blocks():
            acc += ab @ v[lo:hi]
        return acc

    def per_edge_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass returning (abs column sums, flow l1 norms, diagonal).

        For an unweighted graph, column f of ``|Pi|`` sums to the l1 norm of
        the unit electrical flow between the endpoints of edge f, its flow
        stretch; the diagonal sums to the trace, n - 1 on a connected graph.
        """
        m = self.n_edges
        colsums = np.empty(m)
        l1 = np.empty(m)
        diag = np.empty(m)
        for lo, hi, ab, d in self._abs_blocks():
            colsums[lo:hi] = ab.sum(axis=0)
            # |flow on e for unit injection across f| = sqrt(c_e/c_f) |Pi_ef|
            l1[lo:hi] = (self._sqrt_c @ ab) / self._sqrt_c[lo:hi]
            diag[lo:hi] = d
        return colsums, l1, diag

    def abs_spectral_norm(self, tol: float = 1e-10, max_iter: int | None = None) -> PowerIterationResult:
        return spectral_norm_nonneg(self.abs_matvec, self.n_edges, tol=tol, max_iter=max_iter)


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
