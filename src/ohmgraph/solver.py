"""Dense Dirichlet and pseudoinverse solves against the Laplacian of a
connected graph, plus a Lanczos eigensolver with a certified bracket for
entrywise-nonnegative symmetric operators.

A :class:`LaplacianSystem` is built from a :class:`~ohmgraph.graph.Graph`
and a ground, the vertices held at potential 0.  The graph's edges were
validated when it was built, so the one property left to check is
connectivity, which makes the Laplacian off any ground positive definite.
Grounded at vertex 0, a centred solve is the pseudoinverse solve; grounded
at a terminal set, one solve gives the hitting probabilities and the Schur
complement onto it.  The Laplacian is factored in one fixed order,
multiple minimum degree in the sense of Liu (ACM TOMS 11(2), 1985):
independent sets I_1, ..., I_k, each of the previous Schur complement's
graph and each with a diagonal block, are eliminated in rounds, and only
the last Schur complement S_k is Cholesky-factored densely.  A solved
column costs 2 |S_k|^2 flops plus O(m) instead of 2 (n-1)^2.  The whole
grounded inverse solves only S_k's columns and fills the eliminated
vertices' from the rounds' sparse couplings.  Desk-scale dense path:
intended for n up to a few thousand vertices.

The eigensolver runs Lanczos from the normalized all-ones vector with full
reorthogonalization.  A breakdown (the next Krylov direction vanishes) means
the basis spans an invariant subspace and the Ritz value is exact; a basis
that reaches ``KRYLOV_CAP`` vectors restarts from the current Ritz vector, so
memory stays O(KRYLOV_CAP * m).  Every result carries the Collatz-Wielandt
bracket ``[min_i (Ay)_i / y_i, max_i (Ay)_i / y_i]`` of the all-ones vector,
tightened by the final Ritz vector when it is entrywise positive.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from .graph import Graph, _check_ids, _weighted_degrees, is_connected

__all__ = [
    "DisconnectedGraphError",
    "ConvergenceError",
    "LaplacianSystem",
    "PowerIterationResult",
    "spectral_norm_nonneg",
]

POWER_TOL = 1e-10

# Largest Krylov basis kept before restarting from the Ritz vector.
KRYLOV_CAP = 32

# A next Krylov direction this small relative to the product it came from is
# a breakdown: the basis spans an invariant subspace up to roundoff.
BREAKDOWN_TOL = 1e-13


class DisconnectedGraphError(RuntimeError):
    """The operation needs a connected graph (rank n-1 Laplacian)."""


class ConvergenceError(RuntimeError):
    """The eigensolver ran out of iterations; carries the last estimate."""

    def __init__(self, message: str, estimate: float | None, iterations: int):
        super().__init__(message)
        self.estimate = estimate
        self.iterations = iterations


def _unresolvable(graph: Graph) -> np.linalg.LinAlgError:
    """The error for a grounded block of the Laplacian that is not
    numerically positive definite, in place of LAPACK's leading-minor
    wording.  On a connected graph every such block is positive definite,
    so the conductances span a range double precision cannot resolve
    (1e200 + 1e-200 rounds to 1e200); the message names the extremes."""
    c = graph.conductances
    return np.linalg.LinAlgError(
        "the grounded block of the Laplacian is not numerically positive definite: "
        f"the graph's conductances span {c.min():.3g} to {c.max():.3g}, "
        "a range double precision cannot resolve"
    )


def _check_connected(graph: Graph) -> None:
    """Raise unless ``graph`` has a rank n - 1 Laplacian: ``ValueError``
    below 2 vertices, :class:`DisconnectedGraphError` when disconnected."""
    if graph.n_vertices < 2:
        raise ValueError("LaplacianSystem requires at least 2 vertices")
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "graph is disconnected; analyses require a single component"
        )


# A round of elimination is taken only when its independent set holds at
# least this share of the vertices that remain, the ground included; past
# that the sets shrink and the dense factor takes the rest.
_ROUND_FLOOR = 0.15


def _coalesce(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int):
    """Merge the parallel pairs of edges ``u < v`` with conductances ``w``:
    the distinct pairs sorted by ``(u, v)``, with their conductances summed
    in input order."""
    keys = u * n + v
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are nonnegative
    keys = keys[firsts]
    return keys // n, keys % n, np.add.reduceat(w[order], firsts)


def _greedy_set(n: int, remaining: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[int]:
    """A greedy independent set of the graph whose distinct edges are
    ``(u, v)``: the vertices of ``remaining`` are visited in order of fewest
    neighbours first, ties by id, and each joins unless a neighbour has or
    its clique would hold more terms than the graph has edges.  The order
    reads only the structure, never a conductance."""
    ends = np.concatenate((u, v))
    counts = np.bincount(ends, minlength=n)
    starts = np.concatenate(([0], np.cumsum(counts))).tolist()
    # grouped by vertex with one sort of the keys end * n + neighbour, which
    # is several times faster than a stable argsort of the ends
    neighbours = np.sort(ends * n + np.concatenate((v, u))) % n
    # a vertex whose clique, d(d - 1)/2 terms, would outnumber the graph's
    # edges stays out, so a hub's clique is never built
    blocked = counts * (counts - 1) // 2 > u.size
    chosen = []
    for x in remaining[np.argsort(counts[remaining], kind="stable")].tolist():
        if not blocked[x]:
            chosen.append(x)
            blocked[neighbours[starts[x] : starts[x + 1]]] = True
    return chosen


class LaplacianSystem:
    """The Laplacian of a connected graph, grounded at a vertex set and
    factored after independent sets are eliminated round by round.

    The ground (vertex 0 by default) is held at potential 0, so its rows
    and columns drop out.  Each round takes a greedy independent set I_r of
    the current Schur complement's graph (:func:`_greedy_set`) outside the
    ground and eliminates it; the ground stays in that graph as a
    neighbour.  I_r's block is the diagonal D_r of its pivots, so the next
    Schur complement ``S - L_SI D_r^-1 L_IS`` is built from edge arrays:
    the surviving edges plus one clique per eliminated vertex, merged by
    :func:`_coalesce`, with no n x n matrix assembled.  Rounds stop when a
    set would hold less than ``_ROUND_FLOOR`` of the vertices left, ground
    included, and only the last Schur block S_k off the ground is factored
    densely; a path or a star is eliminated completely and factors
    nothing.  This is Cholesky in the elimination order ground, S_k, I_k,
    ..., I_1: each solved column costs 2 |S_k|^2 flops plus O(m) for the
    rounds, and the factor |S_k|^3 / 3.  :meth:`grounded_inverse` solves
    only the columns of S_k, so the inverse costs 2 |S_k|^3 flops plus
    sparse products, not 2 n |S_k|^2.

    Each clique term is the product ``(c_si / d_i) c_is'`` of a weight
    c / d and a conductance, so no term overflows, and it rounds twice; the
    symmetric form ``(c_si / sqrt(d_i)) (c_is' / sqrt(d_i))`` rounds four
    times and doubled the largest off-diagonal ``|Pi - I|`` on a path.  The
    Schur diagonal is the pivot ``d_s - sum_i (c_si / d_i) c_si``, computed
    by subtraction so that conductances double precision cannot resolve
    cancel to a pivot that is not positive.  The couplings between each
    I_r and the vertices it leaves off the ground are held as sparse
    matrices of the weights c_is / d_i.

    Construction raises :class:`DisconnectedGraphError` on a disconnected
    graph, and ``ValueError`` below 2 vertices or on an empty ground or a
    ground id :func:`~ohmgraph.graph._check_index` refuses; duplicate
    ground ids are merged.  A weighted degree that
    overflows double precision raises ``FloatingPointError``; a finite
    diagonal bounds every entry of each Schur complement and of the factor
    (``|R_ij| <= sqrt(C_ii)``), so the factor needs no check of its own.  A
    round pivot that is not positive, or a Schur block that is not
    numerically positive definite, raises ``LinAlgError`` naming the range
    of the graph's conductances, which then spans more than double
    precision can resolve.  Nothing is mutated after construction, so
    solves against a shared system are safe to run concurrently.
    """

    def __init__(self, graph: Graph, ground=(0,)):
        _check_connected(graph)
        n = self.n = graph.n_vertices
        ground = _check_ids(ground, "ground", n)
        if not ground.size:
            raise ValueError("ground must hold at least one vertex")
        n_g = self._n_g = ground.size
        in_ground = np.zeros(n, dtype=bool)
        in_ground[ground] = True
        diag = _weighted_degrees(graph)  # the Schur diagonal, round by round
        t, h = graph.tails, graph.heads
        u, v, w = _coalesce(np.minimum(t, h), np.maximum(t, h), graph.conductances, n)
        remaining = np.flatnonzero(~in_ground)
        # per round: I_r, its pivots, and its couplings grouped by I vertex:
        # their S ends, their count per I vertex and c_si / d_i
        rounds = []
        while remaining.size:
            chosen = _greedy_set(n, remaining, u, v)
            if len(chosen) < _ROUND_FLOOR * (remaining.size + n_g):
                break
            in_i = np.zeros(n, dtype=bool)
            in_i[chosen] = True
            members = np.flatnonzero(in_i)
            pivots = diag[members]
            if not np.all(pivots > 0):
                raise _unresolvable(graph)
            # I_r is independent, so an edge has at most one end in it; its
            # incidences are taken grouped by I vertex
            u_in = in_i[u]
            couples = u_in | in_i[v]
            i_end = np.where(u_in, u, v)[couples]
            by_i = np.argsort(i_end, kind="stable")
            i_end = i_end[by_i]
            s_end = np.where(u_in, v, u)[couples][by_i]
            c_is = w[couples][by_i]
            ratio = c_is / diag[i_end]
            diag -= np.bincount(s_end, weights=ratio * c_is, minlength=n)
            # each incidence pairs with those after it on the same I vertex
            after = np.cumsum(np.bincount(i_end, minlength=n))[i_end] - 1 - np.arange(i_end.size)
            first = np.repeat(np.arange(i_end.size), after)
            second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(after) - after, after)
            a, b = s_end[first], s_end[second]
            keep = ~couples
            u, v, w = _coalesce(
                np.concatenate((u[keep], np.minimum(a, b))),
                np.concatenate((v[keep], np.maximum(a, b))),
                np.concatenate((w[keep], ratio[first] * c_is[second])),
                n,
            )
            live = ~in_ground[s_end]  # the ground's potential is 0 and its equations are dropped
            counts = np.bincount(i_end[live], minlength=n)[members]
            rounds.append((members, pivots, s_end[live], counts, ratio[live]))
            remaining = remaining[~in_i[remaining]]

        # the elimination order: the ground, S_k, then I_k, ..., I_1; where[v]
        # is v's place in it
        self._order = np.concatenate([ground, remaining] + [r[0] for r in reversed(rounds)])
        self._where = np.empty(n, dtype=np.int64)
        self._where[self._order] = np.arange(n)
        n_s = self._n_s = remaining.size + n_g
        # per round, first eliminated first: I_r's place [start, end), the
        # weights D_r^-1 L_SI coupling it to the places before it, as columns
        # with place p at row p - n_g and the ground left out, their
        # transpose (a view: the rows of D_r^-1 L_IS), and the pivots D_r
        self._rounds = []
        for members, pivots, s_end, counts, ratio in rounds:
            start = int(self._where[members[0]])
            end = start + members.size
            arrays = (ratio, self._where[s_end] - n_g, np.concatenate(([0], np.cumsum(counts))))
            a = scipy.sparse.csc_array(arrays, shape=(start - n_g, members.size))
            self._rounds.append((start, end, a, a.T, pivots[:, None]))
        self._factor = None
        if n_s > n_g:
            block = np.zeros((n_s - n_g, n_s - n_g), order="F")
            live = ~(in_ground[u] | in_ground[v])
            # the lower triangle: u < v, and S_k is in id order
            block[self._where[v[live]] - n_g, self._where[u[live]] - n_g] = -w[live]
            block[np.diag_indices(n_s - n_g)] = diag[remaining]
            try:
                self._factor = scipy.linalg.cho_factor(block, lower=True, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                raise _unresolvable(graph) from None

    def solve(self, b) -> np.ndarray:
        """Pseudoinverse solve ``L^+ b``: ``b`` projected off the all-ones
        vector, solved by :meth:`solve_columns` and centred.  A system
        grounded at more than one vertex raises ``ValueError``."""
        if self._n_g > 1:
            raise ValueError(f"a pseudoinverse solve needs one ground vertex, not {self._n_g}")
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {b.shape}")
        x = self.solve_columns((b - b.mean())[:, None])[:, 0]
        # the mean of x / n: the sum of representable potentials may overflow
        return x - (x / self.n).sum()

    def solve_columns(self, B) -> np.ndarray:
        """Dirichlet solves of the columns of an ``(n, k)`` array: X is 0 on
        the ground and ``L X = B`` on every other row, so the ground's rows
        of B are not read.  Grounded at one vertex, a column of B that sums
        to 0 gives ``L^+ B[:, j]`` up to one constant.  The rows are
        gathered once into elimination order; each round forward-eliminates
        its I_r into the places before it, LAPACK solves the Schur block
        S_k, and each round backward gives ``x_I = b_I / d_I + D_I^-1 L_IS
        x``.  A non-finite solve raises ``FloatingPointError``, whatever
        numpy's error state.
        """
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ValueError(f"expected shape ({self.n}, k), got {B.shape}")
        g, n_s = self._n_g, self._n_s
        z = np.ascontiguousarray(B)[self._order]
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the cause
            for start, end, a, _, _ in self._rounds:
                z[g:start] += a @ z[start:end]
            z[:g] = 0.0
            if self._factor is not None:
                z[g:n_s] = scipy.linalg.cho_solve(self._factor, z[g:n_s], check_finite=False)
            for start, end, _, a_t, d in reversed(self._rounds):
                z_i = z[start:end]
                z_i /= d
                z_i += a_t @ z[g:start]
        if not np.isfinite(z).all():  # LAPACK sets no floating-point flag
            raise FloatingPointError("Laplacian solve is not finite: the potentials overflow double precision")
        return z[self._where]

    def grounded_inverse(self, out: np.ndarray, block: int) -> np.ndarray:
        """The inverse G of the grounded Laplacian in elimination order,
        written into ``out``, an (n - n_g, n - n_g) array or view for a
        ground of n_g vertices: ``out[p - n_g, q - n_g]`` is G at places p
        and q, where place p holds vertex ``_order[p]``.

        Only the unit columns of S_k's places are solved, by
        :meth:`solve_columns` in blocks of ``block`` columns, each block
        written straight into ``out``.  The rest is the block form of a
        sparse inverse from its factor (Takahashi, Fagan and Chen, 1973):
        from the round eliminated last to the first, with R the places
        before I_r, ``G[I, R] = A_t G[R, R]`` over R's eliminated columns,
        its transpose ``G[R, I]``, and ``G[I, I] = D^-1 + A_t G[R, I]``,
        where A_t holds the weights D_r^-1 L_IS.  Every term is nonnegative,
        so nothing cancels.  The products run in blocks of ``block``
        columns, so no temporary outgrows n x ``block``.  A non-finite G
        raises ``FloatingPointError``, whatever numpy's error state.
        """
        n, g, n_s = self.n, self._n_g, self._n_s
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the cause
            for lo in range(g, n_s, block):
                hi = min(lo + block, n_s)
                rhs = np.zeros((n, hi - lo))
                rhs[self._order[lo:hi], np.arange(hi - lo)] = 1.0
                out[:, lo - g : hi - g] = self.solve_columns(rhs)[self._order[g:]]
                del rhs  # before the next block's
            for start, end, _, a_t, d in reversed(self._rounds):
                r, i = slice(0, start - g), slice(start - g, end - g)  # out's indices
                for lo in range(n_s - g, start - g, block):
                    hi = min(lo + block, start - g)
                    out[i, lo:hi] = a_t @ out[r, lo:hi]
                for lo in range(0, end - start, block):  # G[R, I] and G[I, I], by columns
                    hi = min(lo + block, end - start)
                    cols = slice(start - g + lo, start - g + hi)
                    out[r, cols] = out[cols, r].T  # a transpose in blocks keeps to the cache
                    g_ii = a_t @ out[r, cols]
                    g_ii[np.arange(lo, hi), np.arange(hi - lo)] += 1.0 / d[lo:hi, 0]
                    out[i, cols] = g_ii
        if not np.isfinite(out).all():
            raise FloatingPointError("grounded inverse is not finite: the potentials overflow double precision")
        return out


class PowerIterationResult(NamedTuple):
    """Top eigenvalue estimate, operator products used, and the certified
    bracket ``lower <= spectral radius <= upper``."""

    value: float
    iterations: int
    lower: float
    upper: float


def _collatz_wielandt(y: np.ndarray, ay: np.ndarray) -> tuple[float, float]:
    ratios = ay / y
    return float(ratios.min()), float(ratios.max())


def spectral_norm_nonneg(
    matvec: Callable[[np.ndarray], np.ndarray],
    m: int,
    tol: float = POWER_TOL,
    max_iter: int | None = None,
    first_product: np.ndarray | None = None,
) -> PowerIterationResult:
    """Dominant eigenvalue of a symmetric entrywise-nonnegative operator.

    Lanczos with full reorthogonalization from the (positive) normalized
    all-ones vector; for such operators the spectral radius equals the top
    eigenvalue and the positive start vector cannot be orthogonal to its
    eigenspace.  Each step takes one product and reports the top Ritz value
    of the Krylov basis; it stops when that value changes by at most ``tol``
    relative, or at a breakdown, where the basis spans an invariant subspace
    and the Ritz value is exact.  When the basis holds ``KRYLOV_CAP`` vectors
    it restarts from the current Ritz vector, whose product is a combination
    of the stored ones, so a restart costs no product.

    The bracket ``[lower, upper]`` is the Collatz-Wielandt bracket of the
    all-ones vector, its extreme column sums, tightened by that of the final
    Ritz vector when it is entrywise positive; its product, too, comes from
    the stored ones.  For a nonnegative operator the spectral radius lies in
    every such bracket.

    Parameters
    ----------
    matvec : callable
        Pure function computing the operator applied to a length-``m`` vector.
    m : int
        Operator dimension.
    tol : float
        Relative change threshold on the top Ritz value.
    max_iter : int, optional
        Maximum number of products, counting ``first_product``.  Defaults to
        ``10*m + 1000``; exceeding it raises :class:`ConvergenceError`
        carrying the last estimate.
    first_product : array_like, optional
        The operator applied to the normalized all-ones vector, when the
        caller already holds it; it counts as the first iteration.
    """
    if m < 1:
        raise ValueError("operator dimension must be positive")
    if max_iter is None:
        max_iter = 10 * m + 1000
    cap = min(KRYLOV_CAP, m)
    basis = np.empty((cap, m))
    products = np.empty((cap, m))
    h = np.zeros((cap, cap))  # projected operator basis @ products.T
    v = np.full(m, 1.0 / np.sqrt(m))
    av = matvec(v) if first_product is None else np.array(first_product, dtype=float)
    if av.shape != (m,):
        raise ValueError(f"expected a first product of length {m}, got shape {av.shape}")
    lower, upper = _collatz_wielandt(v, av)
    k = 0
    last = None
    for iteration in range(1, max_iter + 1):
        if iteration > 1:
            av = matvec(v)
        basis[k], products[k] = v, av
        coeffs = basis[: k + 1] @ av
        h[k, : k + 1] = coeffs
        h[: k + 1, k] = coeffs
        k += 1
        ritz_values, ritz_vectors = np.linalg.eigh(h[:k, :k])
        value, s = float(ritz_values[-1]), ritz_vectors[:, -1]
        if last is not None and abs(value - last) <= tol * max(abs(value), np.finfo(float).tiny):
            break
        last = value
        if k == cap:
            y, ay = s @ basis[:k], s @ products[:k]
            scale = np.linalg.norm(y)
            basis[0], products[0] = y / scale, ay / scale
            h[0, 0] = basis[0] @ products[0]
            k, s = 1, np.ones(1)
        # next Krylov direction: the last product, orthogonalized twice
        q = basis[:k]
        w = products[k - 1].copy()
        for _ in range(2):
            w -= (q @ w) @ q
        beta = float(np.linalg.norm(w))
        if beta <= BREAKDOWN_TOL * float(np.linalg.norm(products[k - 1])):
            break
        v = w / beta
    else:
        raise ConvergenceError(
            f"Lanczos did not converge within {max_iter} iterations",
            estimate=last,
            iterations=max_iter,
        )
    y, ay = s @ basis[:k], s @ products[:k]
    if y.sum() < 0:
        y, ay = -y, -ay
    if np.all(y > 0):
        y_lower, y_upper = _collatz_wielandt(y, ay)
        lower, upper = max(lower, y_lower), min(upper, y_upper)
    return PowerIterationResult(value, iteration, lower, upper)
