"""Dense pseudoinverse solves against the Laplacian of a connected graph,
plus a Lanczos eigensolver with a certified bracket for entrywise-nonnegative
symmetric operators.

A :class:`LaplacianSystem` is built from a :class:`~ohmgraph.graph.Graph`
only.  Its edges were validated when the graph was built, so the assembled
Laplacian is symmetric with zero row sums by construction; the one property
left to check is connectivity, which makes the Laplacian rank n - 1.  The
pseudoinverse grounds vertex 0, Cholesky-factors the remaining principal
submatrix, and re-centers the solution; exact nullspace handling for
connected graphs without a full eigendecomposition.  Desk-scale dense path:
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

from .graph import Graph, is_connected, laplacian_matrix

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


class LaplacianSystem:
    """The Laplacian of a connected graph, kept only as the Cholesky factor of
    its grounded block (vertex 0 removed).

    Construction raises :class:`DisconnectedGraphError` on a disconnected
    graph and ``ValueError`` below 2 vertices.  A weighted degree that
    overflows double precision raises ``FloatingPointError`` from
    :func:`~ohmgraph.graph.laplacian_matrix`; a finite diagonal bounds every
    entry of the Laplacian and of its factor (``|R_ij| <= sqrt(L_ii)``), so
    the factor needs no check of its own.  A grounded block that is not
    numerically positive definite raises ``LinAlgError`` naming the range of
    the graph's conductances, which then spans more than double precision
    can resolve.  The factor is never mutated, so solves against a shared
    system are safe to run concurrently.
    """

    def __init__(self, graph: Graph):
        if graph.n_vertices < 2:
            raise ValueError("LaplacianSystem requires at least 2 vertices")
        if not is_connected(graph):
            raise DisconnectedGraphError(
                "graph is disconnected; analyses require a single component"
            )
        self.n = graph.n_vertices
        # Move the grounded block L[1:, 1:] to the front of L's own buffer, row
        # by row (each row's target ends before its source starts), and factor
        # it there, so no second n x n array is allocated.  laplacian_matrix
        # is exactly symmetric, so the block's C-order rows are also the
        # Fortran-order columns LAPACK reads.
        L = laplacian_matrix(graph)
        n = self.n
        flat = L.reshape(-1)
        for i in range(1, n):
            flat[(i - 1) * (n - 1) : i * (n - 1)] = L[i, 1:]
        grounded = flat[: (n - 1) ** 2].reshape(n - 1, n - 1).T
        self._factor = _cho_factor(graph, grounded, "grounded")

    def solve(self, b) -> np.ndarray:
        """Pseudoinverse solve: project ``b`` off the all-ones direction, solve,
        and return the solution orthogonal to the all-ones vector."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {b.shape}")
        return self.solve_columns(b[:, None])[:, 0]

    def solve_columns(self, B) -> np.ndarray:
        """Vectorized :meth:`solve` over the columns of an ``(n, k)`` array.

        The grounded rows of the centred right-hand side are written into one
        Fortran-order buffer that LAPACK solves in place, so the only n x k
        arrays allocated are that buffer and the returned solution.  A
        non-finite LAPACK solve raises ``FloatingPointError``.
        """
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ValueError(f"expected shape ({self.n}, k), got {B.shape}")
        grounded = np.array(B[1:], order="F")
        grounded -= B.mean(axis=0)
        grounded = scipy.linalg.cho_solve(self._factor, grounded, overwrite_b=True, check_finite=False)
        if not np.isfinite(grounded).all():  # LAPACK sets no floating-point flag
            raise FloatingPointError("Laplacian solve is not finite: the potentials overflow double precision")
        X = np.empty_like(B)
        X[0] = 0.0
        X[1:] = grounded
        X -= X.mean(axis=0)
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
