"""Electrical flows, effective resistance, flow-stretch statistics, and the
transfer impedance projection with its entrywise-absolute norms."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .graph import _NOT_REAL, Graph, _check_index
from .solver import LaplacianSystem, PowerIterationResult, _check_connected, spectral_norm_nonneg

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

# Rows per block of every pass over Pi, and per slice of the Y conversion:
# the fastest measured width for a pass split between two threads.
_DEFAULT_BLOCK = 64

# Columns per block of the solves of S_k's columns and of the round products
# that fill the rest of the grounded inverse behind Y.  Narrower blocks were
# no faster and wider ones slower; the per-block temporaries stay n x 128.
_SOLVE_BLOCK = 128


def _new_worker() -> None:
    """Make the executor of the one worker thread behind :func:`_both`; it
    starts the thread on first use."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ohmgraph-pass")


_new_worker()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor but not its thread, and would
    # wait forever on its first half
    os.register_at_fork(after_in_child=_new_worker)


def _both(fn, items):
    """``(fn(items[0::2]), fn(items[1::2]))``: the even half on the worker
    thread and the odd half in the caller, both under the caller's numpy
    error state, which does not reach other threads.  ``fn`` runs only
    numpy work and private helpers, so every public call and every LAPACK
    solve stays on the caller's thread.  The worker's half is awaited even
    when the caller's raises."""
    err = np.geterr()

    def even():
        with np.errstate(**err):
            return fn(items[0::2])

    future = _WORKER.submit(even)
    try:
        odd = fn(items[1::2])
    finally:
        wait((future,))
    return future.result(), odd


def _abs_zeroed(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``|x|`` with entries below ``ABS_ZERO_TOL`` set to exactly zero."""
    out = np.abs(x, out=out)
    np.copyto(out, 0.0, where=out < ABS_ZERO_TOL)
    return out


def _check_weights(graph: Graph, w) -> np.ndarray:
    if not isinstance(w, np.ndarray) and np.ndim(w) == 1:
        # numpy reads [True, 2.0] as floats, so a bool among numbers is
        # refused element by element, as build_graph refuses conductances
        for x in w:
            if isinstance(x, _NOT_REAL):
                raise ValueError(f"weights must be real numbers, got {x!r}")
    w = np.asarray(w)
    if w.dtype.kind in "bSUc":  # bools, strings and bytes float() would read; complex
        raise ValueError(f"weights must be real numbers, got an array of {w.dtype}")
    w = w.astype(float, copy=False)
    if w.shape != (graph.n_edges,):
        raise ValueError(f"expected an edge weight vector of length {graph.n_edges}, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and entrywise nonnegative")
    with np.errstate(over="ignore"):
        w_norm_sq = float(w @ w)
    if not np.isfinite(w_norm_sq):
        raise FloatingPointError("||w||^2 overflows double precision; scale the weights down")
    return w


def _edge_potentials(system: LaplacianSystem, graph: Graph, y: np.ndarray):
    """``Y = L^+ B^T sqrt(C)`` up to one constant per column, written into
    the (n, m) array ``y`` with its rows in elimination order.  Returns y
    and the rows of each edge's tail and head.

    Column e is sqrt(c_e) times the potentials of a unit flow across edge
    e.  The grounded inverse G is formed in Y's own first n - 1 columns
    (a connected graph has m >= n - 1) by
    :meth:`~ohmgraph.solver.LaplacianSystem.grounded_inverse`, and each row
    of Y is ``sqrt(C)`` times the drops of the same row of G across the
    edges, so ``Y = G B^T sqrt(C)`` is converted in place in slices of
    ``_DEFAULT_BLOCK`` rows and no n x n array is allocated beside it.  G
    differs from ``L^+`` by ``u 1^T + 1 v^T``, which puts one constant into
    each column of Y and cancels from every edge drop, since ``B 1 = 0``.
    """
    n = system.n
    system.grounded_inverse(y[1:, : n - 1], _SOLVE_BLOCK)
    tails, heads = system._where[graph.tails], system._where[graph.heads]
    sqrt_c = np.sqrt(graph.conductances)

    def convert(starts):
        # Each slice reads and writes only its own rows of y.  The buffers
        # are reused: a fresh one per slice costs more in page faults than
        # the gather into it.  The places are in range by construction, and
        # mode "clip" spares np.take the buffered copy of ``out`` that its
        # default mode makes.
        g_rows = np.zeros((_DEFAULT_BLOCK, n))  # G's rows, after the ground's zero column
        at_heads = np.empty((_DEFAULT_BLOCK, y.shape[1]))
        for lo in starts:
            hi = min(lo + _DEFAULT_BLOCK, n)
            rows, out, sub = g_rows[: hi - lo], y[lo:hi], at_heads[: hi - lo]
            rows[:, 1:] = out[:, : n - 1]
            np.take(rows, tails, axis=1, out=out, mode="clip")
            out -= np.take(rows, heads, axis=1, out=sub, mode="clip")
            out *= sqrt_c

    y[0] = 0.0  # the ground's row of G is zero
    _both(convert, range(1, n, _DEFAULT_BLOCK))
    return y, tails, heads


class TransferImpedance:
    """The edge-space projection ``Pi = sqrt(C) B L^+ B^T sqrt(C)``.

    Construction factors the Laplacian grounded at vertex 0 once (kept as
    ``system``, see :class:`~ohmgraph.solver.LaplacianSystem`) and builds
    the n x m edge-potential matrix ``Y = L^+ B^T sqrt(C)`` up to one
    constant per column, with no n x n array beside it (see
    :func:`_edge_potentials`).  Y's rows are in elimination order, and row
    f of Pi is ``sqrt(c_f) (Y[where[tail(f)]] - Y[where[head(f)]])``: every
    block of rows is two contiguous row gathers of Y, with no solve and no
    column gather, and the diagonal costs O(m).

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

    Every pass, the dense cache build and the conversion of G into Y split
    their blocks into two fixed halves (see :func:`_both`): the
    even-indexed blocks run on one worker thread and the odd-indexed ones
    in the caller.  The halves are fixed, so the bits do not depend on
    timing or core count; the cached blocks and Y are bitwise those of one
    thread, and a product differs from an in-order loop only in its
    summation order.  The solves behind G stay serial on the caller's
    thread, since LAPACK through scipy holds the GIL for much of each
    solve.

    The instance is immutable, so :meth:`per_edge_stats` is computed once
    and memoized; its column sums are ``|Pi| 1``, which
    :meth:`abs_spectral_norm` takes as its first product instead of making
    another pass.  Entries are differences of entries of the grounded
    inverse, so their absolute error scales with machine epsilon times its
    largest entry, the largest resistance to vertex 0 (n - 1 on a unit
    path).  Blocks are pure functions of the cached Y and safe to compute
    concurrently.
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
        # Y, the largest array, is allocated on the worker thread, which
        # glibc serves from an arena of its own.  In the caller's arena the
        # block a freed Y leaves takes the caller's small allocations, and
        # one that outlives the call (a caller's captured output, a cache)
        # splits it, so the next Y grows the heap by most of its size;
        # which allocation lands there depends on thread timing.  The worker
        # allocates only its halves' blocks.  The graph is checked first, so
        # a disconnected one allocates nothing; it keeps the answer, so the
        # system's own check runs no second BFS.
        _check_connected(graph)
        y = _WORKER.submit(np.empty, (graph.n_vertices, m)).result()
        self.system = LaplacianSystem(graph)
        self._sqrt_c = np.sqrt(graph.conductances)
        self._y, self._tails, self._heads = _edge_potentials(self.system, graph, y)
        self._abs_cache = None
        self._stats = None
        if mode == "dense":
            starts = range(0, m, _DEFAULT_BLOCK)
            blocks = [None] * len(starts)
            blocks[0::2], blocks[1::2] = _both(lambda part: [self._upper_block(lo) for lo in part], starts)
            self._abs_cache = blocks

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def _rows(self, lo: int, hi: int, start: int = 0) -> np.ndarray:
        """Exact signed impedance rows ``lo..hi-1`` over columns ``start..m-1``."""
        y = self._y
        rows = y[self._tails[lo:hi], start:]
        rows -= y[self._heads[lo:hi], start:]
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

    def _upper_block(self, lo: int) -> np.ndarray:
        """``|Pi|`` rows lo..hi-1 over columns lo..m-1, for a block start
        ``lo`` and ``hi = min(lo + _DEFAULT_BLOCK, m)``, with a symmetrized
        leading square and entries below ``ABS_ZERO_TOL`` zeroed."""
        if self._abs_cache is not None:
            return self._abs_cache[lo // _DEFAULT_BLOCK]
        hi = min(lo + _DEFAULT_BLOCK, self.n_edges)
        upper = self._rows(lo, hi, lo)
        square = upper[:, : hi - lo]
        square[...] = 0.5 * (square + square.T)
        return _abs_zeroed(upper, out=upper)

    def _abs_apply(self, v: np.ndarray) -> np.ndarray:
        """``|Pi| @ v`` for ``v`` of shape (m,) or (m, p), from the upper
        triangle.  Each half of the blocks (see :func:`_both`) sums into its
        own vector, and the result is always even + odd."""
        m = self.n_edges

        def half(starts):
            out = np.zeros(v.shape)
            for lo in starts:
                hi = min(lo + _DEFAULT_BLOCK, m)
                upper = self._upper_block(lo)
                out[lo:hi] += upper @ v[lo:]
                out[hi:] += upper[:, hi - lo :].T @ v[lo:hi]
            return out

        even, odd = _both(half, range(0, m, _DEFAULT_BLOCK))
        return even + odd

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
            y, sqrt_c = self._y, self._sqrt_c
            # |Pi| is symmetric, so its row sums are its column sums, and
            # |flow on e for unit injection across f| = sqrt(c_e/c_f) |Pi_fe|
            sums = self._abs_apply(np.column_stack([np.ones(self.n_edges), sqrt_c]))
            colsums = sums[:, 0].copy()
            l1 = sums[:, 1] / sqrt_c
            e = np.arange(self.n_edges)
            diag = sqrt_c * (y[self._tails, e] - y[self._heads, e])
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
