"""Electrical flows, effective resistance, flow-stretch statistics, and the
transfer impedance projection with its entrywise-absolute norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, bfs_distance
from .solver import LaplacianSystem, PowerIterationResult, spectral_norm_nonneg

__all__ = [
    "DENSE_EDGE_CAP",
    "ABS_ZERO_TOL",
    "FlowSummary",
    "TransferImpedance",
    "unit_flow",
    "effective_resistance",
    "delta_edge",
    "delta_summary",
    "transfer_impedance",
    "abs_impedance_spectral_norm",
    "abs_impedance_max_colsum",
    "quadratic_form_abs",
]

# Dense mode materializes the m x m impedance matrix; above this edge count
# only the column-streaming mode is allowed.
DENSE_EDGE_CAP = 4000

# Entries below this magnitude are treated as exact zeros before taking
# absolute values, so sign noise on symmetric families does not inflate norms.
ABS_ZERO_TOL = 1e-12

_DEFAULT_BLOCK = 512


def _require_unweighted(graph: Graph, what: str) -> None:
    if not graph.is_unweighted:
        raise ValueError(
            f"{what} is defined for unweighted graphs only (all conductances 1); "
            "this graph carries non-unit conductances"
        )


class TransferImpedance:
    """The edge-space projection ``sqrt(C) B L^+ B^T sqrt(C)``.

    Construction solves for the dense n x n pseudoinverse ``L^+`` once, n
    columns in blocks of ``block_size``.  Every column block of the impedance
    is then two row gathers of ``L^+`` and no further solve: column f is
    ``sqrt(C) B`` applied to the unit-flow potentials
    ``sqrt(c_f) L^+ (e_tail(f) - e_head(f))``.

    ``mode='dense'`` stores the full m x m matrix (allowed for
    ``m <= DENSE_EDGE_CAP``) and frees ``L^+`` once it is built;
    ``mode='streaming'`` keeps ``L^+`` and recomputes column blocks on demand,
    holding O(n^2 + m * block_size) memory and never an m x m array.  Entries
    are differences of ``L^+`` entries, so their absolute error scales with
    machine epsilon times ``max |L^+|`` (about n/3 on a path).  Column blocks
    are pure functions of the cached ``L^+`` and safe to compute concurrently.
    """

    def __init__(
        self,
        graph: Graph,
        mode: str = "auto",
        block_size: int = _DEFAULT_BLOCK,
        zero_tol: float = ABS_ZERO_TOL,
    ):
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
        self.block_size = int(block_size)
        self.zero_tol = float(zero_tol)
        self._sqrt_c = np.sqrt(graph.conductances)
        self._lplus = self._pseudoinverse(LaplacianSystem.from_graph(graph))
        self._matrix = None
        self._abs_matrix = None
        if mode == "dense":
            matrix = np.empty((m, m))
            for lo, hi, block in self._iter_raw_blocks():
                matrix[:, lo:hi] = block
            self._matrix = matrix
            self._lplus = None

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            raise ValueError("impedance matrix is not materialized in streaming mode")
        return self._matrix

    def column_block(self, lo: int, hi: int) -> np.ndarray:
        """Exact impedance columns ``lo..hi-1`` as an (m, hi-lo) array."""
        if self._matrix is not None:
            return self._matrix[:, lo:hi]
        return self._compute_block(lo, hi)

    def _pseudoinverse(self, system: LaplacianSystem) -> np.ndarray:
        """Dense ``L^+`` whose row j is the solve against the unit vector e_j."""
        n = system.n
        lplus = np.empty((n, n))
        for lo in range(0, n, self.block_size):
            hi = min(lo + self.block_size, n)
            rhs = np.zeros((n, hi - lo))
            rhs[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
            lplus[lo:hi] = system.solve_columns(rhs).T
        return lplus

    def _compute_block(self, lo: int, hi: int) -> np.ndarray:
        g = self.graph
        # row f: sqrt(c_f) times the potentials of a unit flow across edge f
        flow_potentials = self._sqrt_c[lo:hi, None] * (
            self._lplus[g.tails[lo:hi]] - self._lplus[g.heads[lo:hi]]
        )
        # contiguous (n, k) so that the per-edge gathers below read whole rows
        d = np.ascontiguousarray(flow_potentials.T)
        return self._sqrt_c[:, None] * (d[g.tails] - d[g.heads])

    def _iter_raw_blocks(self):
        m = self.n_edges
        for lo in range(0, m, self.block_size):
            hi = min(lo + self.block_size, m)
            yield lo, hi, self._compute_block(lo, hi)

    def iter_blocks(self):
        """Yield ``(lo, hi, block)`` over exact column blocks."""
        if self._matrix is not None:
            m = self.n_edges
            for lo in range(0, m, self.block_size):
                hi = min(lo + self.block_size, m)
                yield lo, hi, self._matrix[:, lo:hi]
        else:
            yield from self._iter_raw_blocks()

    def _abs_block(self, block: np.ndarray) -> np.ndarray:
        out = np.abs(block)
        out[out < self.zero_tol] = 0.0
        return out

    def _abs_dense(self) -> np.ndarray:
        if self._abs_matrix is None:
            self._abs_matrix = self._abs_block(self.matrix)
        return self._abs_matrix

    def trace(self) -> float:
        if self._matrix is not None:
            return float(np.trace(self._matrix))
        total = 0.0
        for lo, hi, block in self.iter_blocks():
            total += float(np.trace(block[lo:hi, :]))
        return total

    def abs_matvec(self, v) -> np.ndarray:
        """Entrywise-absolute impedance applied to ``v``."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_edges,):
            raise ValueError(f"expected an edge vector of length {self.n_edges}")
        if self._matrix is not None:
            return self._abs_dense() @ v
        acc = np.zeros(self.n_edges)
        for lo, hi, block in self.iter_blocks():
            acc += self._abs_block(block) @ v[lo:hi]
        return acc

    def abs_colsums(self) -> np.ndarray:
        """Per-column sums of the entrywise-absolute impedance.

        For an unweighted graph, column f sums to the l1 norm of the unit
        electrical flow between the endpoints of edge f.
        """
        if self._matrix is not None:
            return self._abs_dense().sum(axis=0)
        out = np.empty(self.n_edges)
        for lo, hi, block in self.iter_blocks():
            out[lo:hi] = self._abs_block(block).sum(axis=0)
        return out

    def per_edge_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass returning (abs column sums, flow l1 norms, diagonal)."""
        m = self.n_edges
        colsums = np.empty(m)
        l1 = np.empty(m)
        diag = np.empty(m)
        for lo, hi, block in self.iter_blocks():
            ab = self._abs_block(block)
            colsums[lo:hi] = ab.sum(axis=0)
            # |flow on e for unit injection across f| = sqrt(c_e/c_f) |Pi_ef|
            l1[lo:hi] = (self._sqrt_c @ ab) / self._sqrt_c[lo:hi]
            diag[lo:hi] = block[np.arange(lo, hi), np.arange(hi - lo)]
        return colsums, l1, diag

    def abs_spectral_norm(self, tol: float = 1e-10, max_iter: int | None = None) -> PowerIterationResult:
        return spectral_norm_nonneg(self.abs_matvec, self.n_edges, tol=tol, max_iter=max_iter)

    def abs_quadratic_form(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return float(w @ self.abs_matvec(w))


@dataclass(frozen=True)
class FlowSummary:
    """Per-edge flow stretch of an unweighted graph: delta = l1 / hop distance,
    and the endpoints of every edge are adjacent, so delta equals l1 here."""

    delta: np.ndarray
    l1: np.ndarray
    mean_delta: float
    max_delta: float

    @property
    def sum_delta(self) -> float:
        return float(self.delta.sum())


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
    _require_unweighted(graph, "flow stretch (delta)")
    if not (0 <= edge_index < graph.n_edges):
        raise ValueError(f"edge index {edge_index} out of range for m={graph.n_edges}")
    t = int(graph.tails[edge_index])
    h = int(graph.heads[edge_index])
    f = unit_flow(graph, t, h)
    f[np.abs(f) < ABS_ZERO_TOL] = 0.0
    return float(np.abs(f).sum()) / bfs_distance(graph, t, h)


def delta_summary(graph: Graph, mode: str = "auto", block_size: int = _DEFAULT_BLOCK) -> FlowSummary:
    """Flow stretch for every edge of an unweighted graph."""
    _require_unweighted(graph, "flow stretch (delta)")
    tp = TransferImpedance(graph, mode=mode, block_size=block_size)
    l1 = tp.abs_colsums()
    # every edge's endpoints are adjacent, so the hop distance in the ratio is 1
    delta = l1
    return FlowSummary(
        delta=delta,
        l1=l1,
        mean_delta=float(delta.mean()),
        max_delta=float(delta.max()),
    )


def transfer_impedance(graph: Graph, mode: str = "auto", block_size: int = _DEFAULT_BLOCK) -> TransferImpedance:
    """Construct the transfer impedance for ``graph``; see :class:`TransferImpedance`."""
    return TransferImpedance(graph, mode=mode, block_size=block_size)


def abs_impedance_spectral_norm(
    graph: Graph,
    mode: str = "auto",
    tol: float = 1e-10,
    max_iter: int | None = None,
    block_size: int = _DEFAULT_BLOCK,
) -> float:
    """Spectral norm of the entrywise-absolute impedance, via power iteration."""
    tp = TransferImpedance(graph, mode=mode, block_size=block_size)
    return tp.abs_spectral_norm(tol=tol, max_iter=max_iter).value


def abs_impedance_max_colsum(graph: Graph, mode: str = "auto", block_size: int = _DEFAULT_BLOCK) -> float:
    """Maximum column sum of the entrywise-absolute impedance.

    On unweighted graphs this equals the maximum flow stretch over edges, and
    it is the competitive ratio of electrical-flow oblivious routing.
    """
    tp = TransferImpedance(graph, mode=mode, block_size=block_size)
    return float(tp.abs_colsums().max())


def quadratic_form_abs(graph: Graph, w, mode: str = "auto", block_size: int = _DEFAULT_BLOCK) -> float:
    """Quadratic form of the entrywise-absolute impedance on a nonnegative vector.

    With all-ones ``w`` on an unweighted graph this equals the sum of per-edge
    flow stretches.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (graph.n_edges,):
        raise ValueError(f"expected an edge vector of length {graph.n_edges}, got shape {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be entrywise nonnegative")
    tp = TransferImpedance(graph, mode=mode, block_size=block_size)
    return tp.abs_quadratic_form(w)
