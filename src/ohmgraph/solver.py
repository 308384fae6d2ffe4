"""Dense pseudoinverse solves against graph Laplacians, plus a Perron-style
power iteration for entrywise-nonnegative symmetric operators.

The pseudoinverse grounds vertex 0, Cholesky-factors the remaining principal
submatrix, and re-centers the solution; exact nullspace handling for connected
graphs without a full eigendecomposition.  Desk-scale dense path: intended for
n up to a few thousand vertices.
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

SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-10
POWER_TOL = 1e-10


class DisconnectedGraphError(RuntimeError):
    """The operation needs a connected graph (rank n-1 Laplacian)."""


class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations; carries the last estimate."""

    def __init__(self, message: str, estimate: float | None, iterations: int):
        super().__init__(message)
        self.estimate = estimate
        self.iterations = iterations


class LaplacianSystem:
    """A symmetric PSD Laplacian with a cached grounded factorization.

    Parameters
    ----------
    matrix : array_like, shape (n, n)
        Symmetric matrix with zero row sums (validated on entry, scaled
        tolerances ``SYMMETRY_TOL`` / ``ROW_SUM_TOL``).  Positive
        semidefiniteness is certified by the Cholesky factorization of the
        grounded submatrix on first solve.

    The factorization is created once and never mutated, so solves against a
    shared system are safe to run concurrently.
    """

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        n = matrix.shape[0]
        if n < 2:
            raise ValueError("LaplacianSystem requires at least 2 vertices")
        scale = max(1.0, float(np.abs(matrix).max()))
        if float(np.abs(matrix - matrix.T).max()) > SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric")
        if float(np.abs(matrix.sum(axis=1)).max()) > ROW_SUM_TOL * scale:
            raise ValueError("matrix does not have zero row sums")
        self.matrix = matrix
        self.n = n
        self._factor = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "LaplacianSystem":
        if not is_connected(graph):
            raise DisconnectedGraphError(
                "graph is disconnected; analyses require a single component"
            )
        return cls(laplacian_matrix(graph))

    def _factorization(self):
        if self._factor is None:
            try:
                self._factor = scipy.linalg.cho_factor(
                    self.matrix[1:, 1:], lower=True, check_finite=False
                )
            except np.linalg.LinAlgError as exc:
                raise DisconnectedGraphError(
                    "grounded Laplacian is not positive definite; "
                    "the underlying graph is disconnected or the matrix is not a Laplacian"
                ) from exc
        return self._factor

    def solve(self, b) -> np.ndarray:
        """Pseudoinverse solve: project ``b`` off the all-ones direction, solve,
        and return the solution orthogonal to the all-ones vector."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got shape {b.shape}")
        return self.solve_columns(b[:, None])[:, 0]

    def solve_columns(self, B) -> np.ndarray:
        """Vectorized :meth:`solve` over the columns of an ``(n, k)`` array."""
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != self.n:
            raise ValueError(f"expected shape ({self.n}, k), got {B.shape}")
        Z = B - B.mean(axis=0, keepdims=True)
        X = np.empty_like(Z)
        X[0, :] = 0.0
        X[1:, :] = scipy.linalg.cho_solve(self._factorization(), Z[1:, :], check_finite=False)
        X -= X.mean(axis=0, keepdims=True)
        return X


class PowerIterationResult(NamedTuple):
    value: float
    iterations: int


def spectral_norm_nonneg(
    matvec: Callable[[np.ndarray], np.ndarray],
    m: int,
    tol: float = POWER_TOL,
    max_iter: int | None = None,
) -> PowerIterationResult:
    """Dominant eigenvalue of a symmetric entrywise-nonnegative operator.

    Power iteration from the (positive) normalized all-ones vector; for such
    operators the spectral radius equals the top eigenvalue and the positive
    start vector cannot be orthogonal to its eigenspace.  Stops when the
    relative change of the Rayleigh-quotient estimate drops below ``tol``.

    Parameters
    ----------
    matvec : callable
        Pure function computing the operator applied to a length-``m`` vector.
    m : int
        Operator dimension.
    tol : float
        Relative change threshold on the Rayleigh quotient.
    max_iter : int, optional
        Defaults to ``10*m + 1000``; exceeding it raises
        :class:`ConvergenceError` carrying the last estimate.
    """
    if m < 1:
        raise ValueError("operator dimension must be positive")
    if max_iter is None:
        max_iter = 10 * m + 1000
    v = np.full(m, 1.0 / np.sqrt(m))
    last = None
    for iteration in range(1, max_iter + 1):
        av = matvec(v)
        lam = float(v @ av)
        nrm = float(np.linalg.norm(av))
        if nrm == 0.0:
            return PowerIterationResult(0.0, iteration)
        v = av / nrm
        if last is not None and abs(lam - last) <= tol * max(abs(lam), np.finfo(float).tiny):
            return PowerIterationResult(lam, iteration)
        last = lam
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} iterations",
        estimate=last,
        iterations=max_iter,
    )
