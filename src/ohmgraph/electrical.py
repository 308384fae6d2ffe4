"""Electrical flows, effective resistance, flow-stretch statistics, and the
transfer impedance projection with its entrywise-absolute norms."""

from __future__ import annotations

import numpy as np

from .graph import Graph, _check_index
from .solver import LaplacianSystem, PowerIterationResult, spectral_norm_nonneg

__all__ = [
    "DENSE_EDGE_CAP",
    "ABS_ZERO_TOL",
    "TransferImpedance",
    "unit_flow",
    "effective_resistance",
    "quadratic_form_abs",
]

# Dense mode caches the upper triangle of the m x m |Pi|, about m^2/2 entries;
# above this edge count only the streaming mode is allowed.
DENSE_EDGE_CAP = 4000

# Entries below this magnitude are treated as exact zeros before taking
# absolute values, so sign noise on symmetric families does not inflate norms.
ABS_ZERO_TOL = 1e-12

# Rows per block of every pass over Pi, and per slice of the Y gather.  On a
# 1024-vertex weighted expander (m=2048, one BLAS thread, 2-core Xeon VM) one
# streaming pass took 15 ms with 32 or 64 rows, 17-18 ms with 128 and 24-26 ms
# with 256.
_DEFAULT_BLOCK = 64

# Columns per block of the solves that build Y.  On the same graph all 1023
# columns of the grounded system took 0.108 s of cho_solve in 64-column
# blocks and 0.091 s in 256-column blocks (mean of 6 alternating repetitions);
# building Y took 0.156, 0.137, 0.122 and 0.125 s with 64, 128, 256 and 512.
_SOLVE_BLOCK = 256


def _abs_zeroed(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``|x|`` with entries below ``ABS_ZERO_TOL`` set to exactly zero."""
    out = np.abs(x, out=out)
    np.copyto(out, 0.0, where=out < ABS_ZERO_TOL)
    return out


def _check_weights(graph: Graph, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (graph.n_edges,):
        raise ValueError(f"expected an edge weight vector of length {graph.n_edges}, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and entrywise nonnegative")
    with np.errstate(over="ignore"):
        w_norm_sq = float(w @ w)
    if not np.isfinite(w_norm_sq):
        raise FloatingPointError("||w||^2 overflows double precision; scale the weights down")
    return w


def _edge_potentials(system: LaplacianSystem, graph: Graph) -> np.ndarray:
    """``Y = L^+ B^T sqrt(C)`` as an (n, m) array.

    Column e is sqrt(c_e) times the potentials of a unit flow across edge e.
    A block of grounded solves gives ``L^+`` columns lo..hi-1, up to one
    constant per column that cancels in every edge drop, and by symmetry
    rows lo..hi-1, so ``Y[lo:hi]`` follows and the n x n ``L^+`` never
    exists.  It is written in slices of ``_DEFAULT_BLOCK`` rows, so the
    gather temporary stays that narrow.
    """
    n = system.n
    sqrt_c = np.sqrt(graph.conductances)
    y = np.empty((n, graph.n_edges))
    for lo in range(0, n, _SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, n)
        rhs = np.zeros((n, hi - lo), order="F")
        rhs[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        xt = system.solve_columns(rhs).T  # C order: row j is solve lo + j
        del rhs
        for start in range(lo, hi, _DEFAULT_BLOCK):
            stop = min(start + _DEFAULT_BLOCK, hi)
            rows, out = xt[start - lo : stop - lo], y[start:stop]
            np.take(rows, graph.tails, axis=1, out=out)
            out -= np.take(rows, graph.heads, axis=1)
            out *= sqrt_c
        del xt, rows  # views of the solved block, freed before the next
    return y


class TransferImpedance:
    """The edge-space projection ``Pi = sqrt(C) B L^+ B^T sqrt(C)``.

    Construction factors the grounded Laplacian once (kept as ``system``)
    and solves, in column blocks, for the n x m edge-potential matrix
    ``Y = L^+ B^T sqrt(C)``, whose column e is sqrt(c_e) times the
    potentials of a unit flow across edge e; it keeps Y, never the full
    ``L^+``.  Row f of Pi is then ``sqrt(c_f) (Y[tail(f)] - Y[head(f)])``:
    every block of rows is two contiguous row gathers of Y, with no solve
    and no column gather, and the diagonal costs O(m).

    The norms read ``|Pi|``, with entries below ``ABS_ZERO_TOL`` zeroed.  Pi
    is symmetric, so a pass reads only its upper triangle: row block
    lo..hi-1 over columns lo..m-1, applied once as rows and once, past its
    leading square, as columns.  The leading square is symmetrized (the
    mean of itself and its transpose) before the absolute value, so every
    pass applies an exactly symmetric ``|Pi|``.  ``mode='dense'`` (allowed
    for ``m <= DENSE_EDGE_CAP``) computes these blocks once at construction
    and caches them, about m^2/2 entries, so every later pass reads the
    cache and gives bitwise the same result as a streaming pass;
    ``mode='streaming'`` recomputes them on every pass, holding
    O(n * m + m * block) memory and never an m x m array; on a d-regular
    graph n * m is (d/2) n^2.

    The instance is immutable, so :meth:`per_edge_stats` is computed once
    and memoized; its column sums are ``|Pi| 1``, which
    :meth:`abs_spectral_norm` takes as its first product instead of making
    another pass.  Entries are differences of ``L^+`` entries, so their
    absolute error scales with machine epsilon times ``max |L^+|`` (about
    n/3 on a path).  Blocks are pure functions of the cached Y and safe to
    compute concurrently.
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
                f"dense mode caches half of an m x m matrix and caps at m={DENSE_EDGE_CAP} "
                f"(got m={m}); use mode='streaming'"
            )
        self.graph = graph
        self.mode = mode
        self.system = LaplacianSystem(graph)
        self._sqrt_c = np.sqrt(graph.conductances)
        self._y = _edge_potentials(self.system, graph)
        self._abs_cache = None
        self._stats = None
        if mode == "dense":
            self._abs_cache = list(self._upper_blocks())

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def _rows(self, lo: int, hi: int, start: int = 0) -> np.ndarray:
        """Exact signed impedance rows ``lo..hi-1`` over columns ``start..m-1``."""
        g, y = self.graph, self._y
        rows = y[g.tails[lo:hi], start:]
        rows -= y[g.heads[lo:hi], start:]
        rows *= self._sqrt_c[lo:hi, None]
        return rows

    def column_block(self, lo: int, hi: int) -> np.ndarray:
        """Exact signed impedance columns ``lo..hi-1`` as an (m, hi-lo) array,
        for ``0 <= lo < hi <= m``."""
        lo = _check_index(lo, "lo", self.n_edges)
        hi = _check_index(hi, "hi", self.n_edges + 1)
        if hi <= lo:
            raise ValueError(f"hi must exceed lo, got lo={lo}, hi={hi}")
        return self._rows(lo, hi).T

    def _upper_blocks(self):
        """Yield ``(lo, hi, |Pi| rows lo..hi-1 over columns lo..m-1)`` with a
        symmetrized leading square and entries below ``ABS_ZERO_TOL`` zeroed."""
        if self._abs_cache is not None:
            yield from self._abs_cache
            return
        m = self.n_edges
        for lo in range(0, m, _DEFAULT_BLOCK):
            hi = min(lo + _DEFAULT_BLOCK, m)
            upper = self._rows(lo, hi, lo)
            square = upper[:, : hi - lo]
            square[...] = 0.5 * (square + square.T)
            yield lo, hi, _abs_zeroed(upper, out=upper)

    def _abs_apply(self, v: np.ndarray) -> np.ndarray:
        """``|Pi| @ v`` for ``v`` of shape (m,) or (m, p), from the upper triangle."""
        out = np.zeros(v.shape)
        for lo, hi, upper in self._upper_blocks():
            out[lo:hi] += upper @ v[lo:]
            out[hi:] += upper[:, hi - lo :].T @ v[lo:hi]
        return out

    def abs_matvec(self, v) -> np.ndarray:
        """Entrywise-absolute impedance applied to ``v``."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_edges,):
            raise ValueError(f"expected an edge vector of length {self.n_edges}")
        return self._abs_apply(v)

    def per_edge_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass returning (abs column sums, flow l1 norms, diagonal).

        For an unweighted graph, column f of ``|Pi|`` sums to the l1 norm of
        the unit electrical flow between the endpoints of edge f, its flow
        stretch; the diagonal sums to the trace, n - 1 on a connected graph.
        The pass runs once per instance; later calls return the same
        read-only arrays.
        """
        if self._stats is None:
            g, y, sqrt_c = self.graph, self._y, self._sqrt_c
            # |Pi| is symmetric, so its row sums are its column sums, and
            # |flow on e for unit injection across f| = sqrt(c_e/c_f) |Pi_fe|
            sums = self._abs_apply(np.column_stack([np.ones(self.n_edges), sqrt_c]))
            colsums = sums[:, 0].copy()
            l1 = sums[:, 1] / sqrt_c
            e = np.arange(self.n_edges)
            diag = sqrt_c * (y[g.tails, e] - y[g.heads, e])
            for a in (colsums, l1, diag):
                a.flags.writeable = False
            self._stats = (colsums, l1, diag)
        return self._stats

    def abs_spectral_norm(self) -> PowerIterationResult:
        """Top eigenvalue of ``|Pi|`` with its Collatz-Wielandt bracket, at
        the tolerance and iteration cap of :func:`spectral_norm_nonneg`.

        Lanczos starts from the normalized all-ones vector, whose product is
        the memoized column sums, so the first step costs no pass over Pi.
        """
        m = self.n_edges
        first = self.per_edge_stats()[0] / np.sqrt(m)
        return spectral_norm_nonneg(self.abs_matvec, m, first_product=first)


def _pair_potentials(graph: Graph, u: int, v: int) -> np.ndarray:
    """Potentials of the unit current injected at ``u`` and extracted at ``v``."""
    n = graph.n_vertices
    u, v = _check_index(u, "u", n), _check_index(v, "v", n)
    if u == v:
        raise ValueError("source and sink must be two distinct vertices")
    b = np.zeros(n)
    b[u] = 1.0
    b[v] = -1.0
    return LaplacianSystem(graph).solve(b)


def unit_flow(graph: Graph, u: int, v: int) -> np.ndarray:
    """Unit electrical current from ``u`` to ``v`` as a signed per-edge vector.

    Satisfies flow conservation with a unit source/sink pair, and its energy
    equals the effective resistance between ``u`` and ``v``.
    """
    potential = _pair_potentials(graph, u, v)
    return graph.conductances * (potential[graph.tails] - potential[graph.heads])


def effective_resistance(graph: Graph, u: int, v: int) -> float:
    """Quadratic form of the Laplacian pseudoinverse on the u-v indicator drop."""
    x = _pair_potentials(graph, u, v)
    return float(x[u] - x[v])


def quadratic_form_abs(graph: Graph, w) -> float:
    """Quadratic form of the entrywise-absolute impedance on a finite
    nonnegative vector, in one streaming pass over Pi.

    With all-ones ``w`` on an unweighted graph this equals the sum of per-edge
    flow stretches.
    """
    w = _check_weights(graph, w)
    return float(w @ TransferImpedance(graph, mode="streaming").abs_matvec(w))
