"""Dense pseudoinverse solves against the Laplacian of a connected graph,
plus a Lanczos eigensolver with a certified bracket for entrywise-nonnegative
symmetric operators.

A :class:`LaplacianSystem` is built from a :class:`~ohmgraph.graph.Graph`
only.  Its edges were validated when the graph was built, so the Laplacian
is symmetric with zero row sums by construction; the one property left to
check is connectivity, which makes the Laplacian rank n - 1.  The solves
ground vertex 0, which handles the nullspace exactly without an
eigendecomposition, and a single solve centres its result.  The grounded
Laplacian is factored in one fixed order: a greedy independent set I first,
whose block is diagonal, then the remaining vertices S, so only the dense
Schur complement on S is Cholesky-factored.  A solved column costs
2 |S|^2 flops instead of 2 (n-1)^2; on a bipartite graph such as an even
torus |S| = n/2, so a solve costs a quarter and the factor an eighth.
Desk-scale dense path: intended for n up to a few thousand vertices.

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

from .graph import Graph, _weighted_degrees, is_connected

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


def _cho_factor(graph: Graph, block: np.ndarray, name: str):
    """Lower Cholesky factor of a principal block of ``graph``'s Laplacian,
    written over ``block`` when LAPACK can.

    On a connected graph every proper principal block is positive definite,
    so a factorization that fails means the conductances span a range that
    double precision cannot resolve (1e200 + 1e-200 rounds to 1e200).  The
    ``LinAlgError`` raised then says so, with the smallest and largest
    conductance, instead of LAPACK's leading-minor wording."""
    try:
        return scipy.linalg.cho_factor(block, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        c = graph.conductances
        raise np.linalg.LinAlgError(
            f"the {name} block of the Laplacian is not numerically positive definite: "
            f"the graph's conductances span {c.min():.3g} to {c.max():.3g}, "
            "a range double precision cannot resolve"
        ) from None


def _check_connected(graph: Graph) -> None:
    """Raise unless ``graph`` has a rank n - 1 Laplacian: ``ValueError``
    below 2 vertices, :class:`DisconnectedGraphError` when disconnected."""
    if graph.n_vertices < 2:
        raise ValueError("LaplacianSystem requires at least 2 vertices")
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "graph is disconnected; analyses require a single component"
        )


def _independent_set(graph: Graph) -> np.ndarray:
    """Mask of a greedy independent set taken in vertex-id order: vertex v
    joins when none of its smaller neighbours has.  Vertex 0, the ground,
    never joins."""
    t, h = graph.tails, graph.heads
    lo, hi = np.minimum(t, h), np.maximum(t, h)
    order = np.argsort(hi, kind="stable")
    starts = np.searchsorted(hi[order], np.arange(graph.n_vertices + 1)).tolist()
    smaller = lo[order].tolist()
    chosen = [False] * graph.n_vertices
    for v in range(1, graph.n_vertices):
        chosen[v] = not any(chosen[u] for u in smaller[starts[v] : starts[v + 1]])
    return np.array(chosen)


class LaplacianSystem:
    """The Laplacian of a connected graph, grounded at vertex 0 and factored
    with an independent set eliminated first.

    A greedy independent set I, taken in vertex-id order without vertex 0,
    is eliminated before the remaining vertices S.  Its block of the
    Laplacian is the diagonal D_I of weighted degrees, so only the grounded
    Schur complement ``C = L_SS - L_SI D_I^-1 L_IS`` on S minus vertex 0 is
    factored, built from the edge arrays without assembling the n x n
    Laplacian.  This is Cholesky under a symmetric permutation: each
    solved column costs 2 |S|^2 flops instead of 2 (n-1)^2, and the factor
    |S|^3 / 3.  On a bipartite graph such as an even torus |S| = n/2; on a
    random 4-regular expander it is about 2n/3.  Each clique term of C is
    the product ``(c_si / d_i) c_is'`` of a weight c / d <= 1 and a
    conductance, so no term overflows, and it rounds twice; the symmetric
    form ``(c_si / sqrt(d_i)) (c_is' / sqrt(d_i))`` rounds four times and
    doubled the largest off-diagonal ``|Pi - I|`` on a path.  LAPACK reads
    only C's lower triangle.  C's diagonal is the Cholesky pivot
    ``deg_s - sum_i (c_si / d_i) c_si``, computed by subtraction so that
    conductances double precision cannot resolve cancel to a pivot that is
    not positive.  The couplings between I and S are held as sparse
    matrices of the weights c_is / d_i <= 1.

    Construction raises :class:`DisconnectedGraphError` on a disconnected
    graph and ``ValueError`` below 2 vertices.  A weighted degree that
    overflows double precision raises ``FloatingPointError``; a finite
    diagonal bounds every entry of C and of its factor
    (``|R_ij| <= sqrt(C_ii)``), so the factor needs no check of its own.  A
    Schur block that is not numerically positive definite raises
    ``LinAlgError`` naming the range of the graph's conductances, which
    then spans more than double precision can resolve.  Nothing is mutated
    after construction, so solves against a shared system are safe to run
    concurrently.
    """

    def __init__(self, graph: Graph):
        _check_connected(graph)
        n = self.n = graph.n_vertices
        degrees = _weighted_degrees(graph)
        in_i = _independent_set(graph)
        # the elimination order: S with the ground first, then I; where[v] is
        # v's place in it
        self._order = np.argsort(in_i, kind="stable")
        self._where = np.empty(n, dtype=np.int64)
        self._where[self._order] = np.arange(n)
        n_s = self._n_s = n - int(in_i.sum())
        self._d_i = degrees[self._order[n_s:], None]

        t, h, c = graph.tails, graph.heads, graph.conductances
        i_end = np.where(in_i[t], t, h)  # the I end of an edge that has one
        s_end = np.where(in_i[t], h, t)
        couples = (in_i[t] | in_i[h]) & (s_end != 0)
        inside = ~(in_i[t] | in_i[h]) & (t != 0) & (h != 0)
        rows, cols = self._where[s_end[couples]] - 1, self._where[i_end[couples]] - n_s
        c_is, d = c[couples], degrees[i_end[couples]]
        shape = (n_s - 1, n - n_s)
        # x_S's right-hand side gathers b_I through L_SI D_I^-1, and x_I
        # gathers x_S through D_I^-1 L_IS; both weights are c / d <= 1
        self._to_s = scipy.sparse.csr_array((c_is / d, (rows, cols)), shape=shape)
        self._to_i = self._to_s.T
        l_si = scipy.sparse.csr_array((c_is, (rows, cols)), shape=shape)  # -L_SI
        a, b = self._where[t[inside]] - 1, self._where[h[inside]] - 1
        self._factor = None
        if n_s > 1:
            block = (self._to_s @ l_si.T).toarray(order="F")
            np.add.at(block, (np.maximum(a, b), np.minimum(a, b)), c[inside])  # the lower triangle of -L_SS
            np.negative(block, out=block)
            block[np.diag_indices(n_s - 1)] += degrees[self._order[1:n_s]]
            self._factor = _cho_factor(graph, block, "grounded")

    def solve(self, b) -> np.ndarray:
        """Pseudoinverse solve ``L^+ b``: the grounded :meth:`solve_columns`
        solution, centred to be orthogonal to the all-ones vector."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {b.shape}")
        x = self.solve_columns(b[:, None])[:, 0]
        return x - x.mean()

    def solve_columns(self, B) -> np.ndarray:
        """Grounded solves of the columns of an ``(n, k)`` array: each column
        is projected off the all-ones direction and solved with vertex 0
        grounded, so ``X[0] = 0`` exactly and column j differs from
        ``L^+ B[:, j]`` by one constant.  The Schur block is solved for x_S
        in place by LAPACK, and ``x_I = b_I / d_I + D_I^-1 L_IS x_S`` extends
        it to I; X is returned in Fortran order.  A non-finite solve raises
        ``FloatingPointError``.
        """
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ValueError(f"expected shape ({self.n}, k), got {B.shape}")
        n_s = self._n_s
        # the work runs on transposes, whose rows are the columns of B, with
        # the vertices in elimination order
        z = np.take(B.T, self._order, axis=1)
        z -= B.mean(axis=0)[:, None]
        b_i = np.ascontiguousarray(z[:, n_s:].T)
        x_s = np.add(z[:, 1:n_s].T, self._to_s @ b_i, out=np.empty((n_s - 1, B.shape[1]), order="F"))
        if self._factor is not None:
            x_s = scipy.linalg.cho_solve(self._factor, x_s, overwrite_b=True, check_finite=False)
        b_i /= self._d_i
        b_i += self._to_i @ x_s
        z[:, 0] = 0.0
        z[:, 1:n_s] = x_s.T
        z[:, n_s:] = b_i.T
        if not np.isfinite(z).all():  # LAPACK sets no floating-point flag
            raise FloatingPointError("Laplacian solve is not finite: the potentials overflow double precision")
        X = np.empty(B.shape, order="F")
        np.take(z, self._where, axis=1, out=X.T, mode="clip")  # indices are valid; clip skips a buffer
        return X


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
