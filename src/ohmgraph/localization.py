"""Greedy elimination driver for the absolute-impedance quadratic form.

Tracks the quantity V_i = w^T |Pi_i| w along a vertex-elimination schedule,
where ``Pi_i = sqrt(C) A_i^T L_i^+ A_i sqrt(C)``, L_i is the Laplacian after i
eliminations and the columns of A_i are the hitting-probability drops of the
original edges onto the surviving terminal set; Pi_0 is the impedance Pi.
Each step is charged against the eliminated vertex's sparsity score
("degree"), whose sum over any terminal set obeys an explicit logarithmic
bound.  A run factors the Laplacian once and checks its terminal pair with
one solve against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .electrical import DENSE_EDGE_CAP, TransferImpedance, _abs_zeroed, _check_weights, quadratic_form_abs
from .graph import Graph, laplacian_matrix
from .schur import SchurResidueError, _check_drop_energy, schur_complement
from .solver import LaplacianSystem, _check_connected

__all__ = [
    "LocalizationError",
    "DegreeProfile",
    "EliminationStep",
    "EliminationTrace",
    "HarmonicBoundReport",
    "degree_profile",
    "run_elimination",
    "harmonic_bound_check",
]

_VI_BLOCK = 1024

# Degrees within this relative distance of the minimum tie; the smallest id
# among them is the pivot, so roundoff in the degrees cannot reorder pivots.
_TIE_RTOL = 1e-12

# Largest admissible gap between the incrementally updated quantities and
# their from-scratch recomputation at the terminal pair: absolute on the
# edge drops, relative on V_T.
_ORACLE_PM_TOL = 1e-9
_ORACLE_VI_RTOL = 1e-8

# Largest admissible gap between each step's rank-one term and the pivot's
# degree (relative to max(1, |degree|), since degrees scale with ||w||^2).
_IDENTITY_TOL = 1e-8


class LocalizationError(RuntimeError):
    """A per-step consistency identity of the elimination run failed."""


@dataclass(frozen=True)
class DegreeProfile:
    """Degrees of every terminal, their sum, and the explicit dyadic bound
    ``(6*ceil(log2 |S|) + 6) * sum(w^2)``."""

    vertices: np.ndarray
    degrees: np.ndarray
    total: float
    bound: float


@dataclass(frozen=True)
class EliminationStep:
    index: int
    pivot: int
    degree_value: float
    rank_one_value: float
    v_i: float | None
    slack: float | None  # v_i - v_{i+1} - degree_value; <= 0 up to roundoff


@dataclass(frozen=True)
class EliminationTrace:
    steps: list[EliminationStep]
    terminal_pair: tuple[int, int]
    v_terminal: float | None
    v_initial: float | None
    w_norm_sq: float


@dataclass(frozen=True)
class HarmonicBoundReport:
    lhs: float
    harmonic_bound: float
    ok: bool


def _bucket_count(s: int) -> int:
    # ceil(log2 s) for s >= 2, integer-exact at powers of two
    return int(s - 1).bit_length()


def _degree_vector(drops: np.ndarray, z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Degree ``(|q| . z)^2 / sum_e c_e q_e^2`` of every row ``q`` of
    ``drops``, one row per terminal holding its hitting-probability drop
    ``p(tail) - p(head)`` across every edge, with ``z = w sqrt(c)`` for edge
    weights w and conductances c; each drop energy (the denominator) passes
    :func:`ohmgraph.schur._check_drop_energy`.  The ratio
    ``|q| . z / sqrt(energy)`` is formed before it is squared, so the
    conductance scale cancels before a square can underflow or overflow."""
    q = np.abs(drops)
    num = q @ z
    den = np.square(q, out=q) @ c
    _check_drop_energy(float(den.min()))  # NaN propagates through min
    return (num / np.sqrt(den)) ** 2


def degree_profile(graph: Graph, terminals, w) -> DegreeProfile:
    """Degrees of all terminals plus the explicit localization bound."""
    w = _check_weights(graph, w)
    system = schur_complement(graph, terminals)
    pm = system.prob_map
    c = graph.conductances
    degrees = _degree_vector(pm[:, graph.tails] - pm[:, graph.heads], w * np.sqrt(c), c)
    bound = (6 * _bucket_count(system.size) + 6) * float(w @ w)
    return DegreeProfile(vertices=system.vertices, degrees=degrees, total=float(degrees.sum()), bound=bound)


def _eliminate_pivot(L: np.ndarray, D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate vertex ``k`` in place by one star-clique step.

    ``L`` is an exactly symmetric Laplacian in which every index eliminated
    so far has a zero row and column, and ``D`` holds one row per index,
    linear in the probability map's rows, such as the edge drops ``pm
    B^T``.  Only the neighbours ``nb`` of ``k`` (the nonzeros of row ``k``
    off the diagonal) change: ``L[nb, nb] -= L[nb, k] L[k, nb] / L[k, k]``
    and ``D[nb] += (-L[nb, k] / L[k, k]) D[k]``, since a walk that would
    first hit ``k`` now moves on to neighbour j with probability ``-L[j, k]
    / L[k, k]``.  Row and column ``k`` of ``L`` are zeroed and ``D[k]`` is
    left as it was.  Returns ``nb`` and the updated ``D[nb]``.  A
    non-positive pivot diagonal, or a pivot with no neighbour left (its row
    no longer sums to zero), raises
    :class:`~ohmgraph.schur.SchurResidueError`.

    Both updates are in-place BLAS rank-one updates (``dger``) on the
    gathered rows ``L[nb]`` and ``D[nb]``, written back afterwards; the
    transpose of a freshly gathered C-order block is the Fortran-order
    matrix ``dger`` updates without a copy.  The clique update subtracts
    ``s_i x_j`` from ``L[nb]``, where ``s = L[nb, k] / sqrt(L[k, k])`` and
    x is s scattered into a zero n-vector, so only the ``nb x nb`` block
    changes.  Its ``(i, j)`` and ``(j, i)`` entries get the same product
    ``s_i s_j`` (the factor -1 is exact), so as long as BLAS rounds every
    entry of one update the same way, fused multiply-add or not, an exactly
    symmetric ``L`` stays exactly symmetric, as reading row ``k`` for
    column ``k`` requires.
    """
    d = L[k, k]
    if d <= 0:
        raise SchurResidueError(f"pivot diagonal {d:.3e} is not positive")
    L[k, k] = 0.0
    nb = np.flatnonzero(L[k])
    c = L[k, nb]
    L[k] = 0.0
    if not nb.size:  # also keeps dger from an empty update
        raise SchurResidueError(
            f"pivot {k} has no neighbour left; an underflowed update cut the eliminated network apart"
        )
    s = c / np.sqrt(d)  # c_i c_j alone can overflow
    x = np.zeros(L.shape[0])
    x[nb] = s
    block = L[nb]
    scipy.linalg.blas.dger(-1.0, x, s, a=block.T, overwrite_a=True)
    block[:, k] = 0.0
    L[nb] = block
    updated = D[nb]
    scipy.linalg.blas.dger(1.0, D[k], -c / d, a=updated.T, overwrite_a=True)
    D[nb] = updated
    return nb, updated


def _abs_rows(P: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row values ``|P| w`` with entries below ``ABS_ZERO_TOL`` zeroed, so that
    ``w^T |P| w = w . _abs_rows(P, w)``.  Works in row blocks, so
    temporaries stay at ``_VI_BLOCK`` rows."""
    return np.concatenate([_abs_zeroed(P[lo : lo + _VI_BLOCK]) @ w for lo in range(0, P.shape[0], _VI_BLOCK)])


def _downdate_rows(P: np.ndarray, row_vals: np.ndarray, w: np.ndarray, a: np.ndarray, d: float) -> None:
    """Downdate ``P -= a a^T / d`` in place and refresh ``row_vals`` (the
    :func:`_abs_rows` of ``P``) where it changes.  Only rows and columns in
    ``supp(a)`` change, so only those rows are gathered, downdated and
    written back, ``_VI_BLOCK`` rows at a time.  Each block is downdated by
    one in-place BLAS rank-one update (``dger``) on the transpose of the
    gathered C-order rows, which is Fortran-order, so ``dger`` writes into
    it without a copy and no outer product is formed.  The terms
    ``(a_i / d) a_j`` and ``(a_j / d) a_i`` can differ in the last bit, so
    ``P`` stays symmetric only to roundoff; only its rows are ever read."""
    supp = np.flatnonzero(a)
    for lo in range(0, supp.size, _VI_BLOCK):
        r = supp[lo : lo + _VI_BLOCK]
        rows = P[r]
        scipy.linalg.blas.dger(-1.0, a, a[r] / d, a=rows.T, overwrite_a=True)
        P[r] = rows
        row_vals[r] = _abs_zeroed(rows, out=rows) @ w


def _pair_value(f: np.ndarray, R: float, w: np.ndarray) -> float:
    """``w^T |f f^T / R| w`` with entries below ``ABS_ZERO_TOL`` zeroed;
    ``f / sqrt(R)`` keeps the outer product in range."""
    s = f / np.sqrt(R)
    return float(w @ _abs_rows(np.outer(s, s), w))


def run_elimination(graph: Graph, w, compute_vi: bool = True) -> EliminationTrace:
    """Run the greedy elimination loop down to two terminals.

    At every step the pivot is the terminal of minimum degree; degrees
    within a relative 1e-12 of the minimum tie and the smallest id wins, so
    traces do not depend on roundoff.  Each step checks that the rank-one
    term ``(|a_k| . z)^2 / L[k, k]`` equals the pivot's degree to
    ``1e-8 * max(1, |degree|)``.  Degrees and every check are unchanged when
    all conductances, or all weights, are scaled.  With ``compute_vi`` each
    step also records the slack of ``V_i <= V_{i+1} + degree``.

    The run holds one factor, of the Laplacian grounded at vertex 0, built
    before L and D; a graph of fewer than 2 vertices raises ``ValueError``,
    a disconnected one :class:`~ohmgraph.solver.DisconnectedGraphError` and
    an overflowing weighted degree ``FloatingPointError``.  The state is the
    Laplacian L (n x n) and the edge drops ``D = pm B^T`` (n x m): row j
    holds the drop ``p_j(tail) - p_j(head)`` of vertex j's hitting
    probability across every edge, so the n x n probability map is never
    held.  D starts as the signed incidence matrix.  Both are updated in
    place by :func:`_eliminate_pivot`, which changes and returns only the
    rows of the pivot's current neighbours; only their degrees are
    recomputed, so a step costs O(deg_k * m).  An eliminated index has a
    zero row and column in L and an infinite degree, so it is never a
    neighbour or a pivot again; the two ids never picked are the terminal
    pair.  On a connected graph every drop energy is positive, so no degree
    is special-cased; one below the smallest normal double raises
    ``FloatingPointError``.  A non-positive pivot diagonal raises
    :class:`~ohmgraph.schur.SchurResidueError` from the pivot step.

    With ``compute_vi`` the run tracks ``Pi_i``: ``Pi_0`` is every column of
    a streaming :class:`~ohmgraph.electrical.TransferImpedance`, whose
    factor the run keeps and whose Y it frees, and ``Pi_{i+1} = Pi_i - s_k
    s_k^T / L[k, k]`` with the scaled drop ``s_k = sqrt(C) a_k``.  Entries
    below ``ABS_ZERO_TOL`` are zeroed as in
    :func:`~ohmgraph.electrical.quadratic_form_abs`, so V_0 is that form and
    every V_i is unchanged when all conductances are scaled.  Only the rows
    of Pi in ``supp(a_k)`` change, so only they are downdated and only their
    row values ``|Pi[r]| w`` recomputed.  Pi is one m x m array, so
    tracking is refused with ``ValueError`` above ``DENSE_EDGE_CAP`` edges.

    The terminal pair u < v is one resistor, checked by one pair solve
    ``phi = L^+ (e_u - e_v)``: with drops ``f = phi[tails] - phi[heads]``
    and ``R = phi_u - phi_v``, rows u and v of D must equal ``f / R`` and
    ``-f / R`` to 1e-9, and V_T must equal ``w^T |s s^T / R| w`` with
    ``s = sqrt(C) f`` (built after Pi is freed) to 1e-8 relative, else
    :class:`LocalizationError`.
    """
    w = _check_weights(graph, w)
    n, m = graph.n_vertices, graph.n_edges
    if compute_vi and m > DENSE_EDGE_CAP:
        raise ValueError(
            f"tracking V_i holds an m x m matrix and caps at m={DENSE_EDGE_CAP} "
            f"(got m={m}); use compute_vi=False (--skip-vi on the command line)"
        )
    _check_connected(graph)  # refuses an edgeless graph before the impedance would
    tails, heads, c = graph.tails, graph.heads, graph.conductances
    sqrt_c = np.sqrt(c)
    z = w * sqrt_c
    w_norm_sq = float(w @ w)
    v_now = v_initial = None  # V_i before the coming step
    if compute_vi:
        tp = TransferImpedance(graph, mode="streaming")
        system = tp.system
        P = tp.column_block(0, m).T  # Pi_0, in C order
        del tp  # and its Y
        row_vals = _abs_rows(P, w)
        v_now = v_initial = float(w @ row_vals)
    else:
        system = LaplacianSystem(graph)

    L = laplacian_matrix(graph)
    D = np.zeros((n, m))
    edges = np.arange(m)
    D[tails, edges] = 1.0
    D[heads, edges] = -1.0
    degrees = _degree_vector(D, z, c)
    steps: list[EliminationStep] = []

    for i in range(n - 2):
        lowest = degrees.min()
        k = int(np.argmax(degrees <= lowest + _TIE_RTOL * abs(lowest)))
        d = float(L[k, k])
        a = D[k]  # row k is never written again once k is eliminated
        nb, drops = _eliminate_pivot(L, D, k)  # refuses d <= 0
        rank_one = (float(np.abs(a) @ z) / math.sqrt(d)) ** 2
        degree = float(degrees[k])
        if not abs(rank_one - degree) <= _IDENTITY_TOL * max(1.0, abs(degree)):  # NaN fails
            raise LocalizationError(
                f"rank-one correction {rank_one!r} disagrees with degree {degree!r} "
                f"beyond {_IDENTITY_TOL:.0e} x max(1, |degree|) at step {i}"
            )
        degrees[k] = np.inf
        degrees[nb] = _degree_vector(drops, z, c)
        v_i = slack = None
        if compute_vi:
            v_i = v_now
            _downdate_rows(P, row_vals, w, a * sqrt_c, d)
            v_now = float(w @ row_vals)
            slack = v_i - v_now - degree
        steps.append(EliminationStep(i, k, degree, rank_one, v_i, slack))

    # an overflowed degree is inf too, so the pair is what was never a pivot
    u, v = (int(x) for x in np.setdiff1d(np.arange(n), [s.pivot for s in steps]))
    e_uv = np.zeros(n)
    e_uv[[u, v]] = 1.0, -1.0
    phi = system.solve(e_uv)  # p_u drops by f / R, and A_T^T L_T^+ A_T = f f^T / R
    f = phi[tails] - phi[heads]
    R = phi[u] - phi[v]
    drift = float(np.maximum(np.abs(D[u] - f / R), np.abs(D[v] + f / R)).max())
    if not drift <= _ORACLE_PM_TOL:  # NaN fails
        raise LocalizationError(
            f"incremental edge drops differ from the from-scratch drops by {drift:.3e} "
            f"at the terminal pair, beyond {_ORACLE_PM_TOL:.0e}"
        )
    if compute_vi:
        del P, row_vals  # before the m x m reference
        v_ref = _pair_value(f * sqrt_c, R, w)
        if not abs(v_now - v_ref) <= _ORACLE_VI_RTOL * abs(v_ref):  # NaN fails
            raise LocalizationError(
                f"incremental V_T = {v_now!r} differs from the from-scratch value {v_ref!r} "
                f"beyond {_ORACLE_VI_RTOL:.0e} relative"
            )
    return EliminationTrace(steps, (u, v), v_terminal=v_now, v_initial=v_initial, w_norm_sq=w_norm_sq)


def _harmonic_sum(n: int) -> float:
    # one pigeonhole term per elimination step, at terminal sizes n, n-1, ..., 3
    return sum((6 * _bucket_count(s) + 6) / s for s in range(n, 2, -1))


def harmonic_bound_check(graph: Graph, w) -> HarmonicBoundReport:
    """Compare the absolute-impedance quadratic form against the assembled
    elimination bound ``||w||^2 * (1 + sum_i (6*ceil(log2 |S_i|) + 6)/|S_i|)``.

    The left side is :func:`~ohmgraph.electrical.quadratic_form_abs`, one
    factorization and one streaming pass over Pi, so no m x m array is held
    and no edge count is refused; the bound depends only on ``||w||^2`` and
    the vertex count, so no elimination runs.  Both sides scale with
    ``||w||^2``, so the verdict's slack is relative: ``lhs <= bound * (1 +
    1e-9)``.
    """
    w = _check_weights(graph, w)
    lhs = quadratic_form_abs(graph, w)
    bound = float(w @ w) * (1.0 + _harmonic_sum(graph.n_vertices))
    return HarmonicBoundReport(lhs=lhs, harmonic_bound=bound, ok=bool(lhs <= bound * (1 + 1e-9)))
