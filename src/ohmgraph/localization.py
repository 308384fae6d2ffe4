"""Greedy elimination driver for the absolute-impedance quadratic form.

Tracks the quantity V_i = z^T |A_i^T L_i^+ A_i| z along a vertex-elimination
schedule, where L_i is the Laplacian after i eliminations, the columns of A_i
are the hitting-probability drops of the original edges onto the surviving
terminal set, and z is the conductance-scaled weight vector.  Each step is
charged against the eliminated vertex's sparsity score ("degree"), whose sum
over any terminal set obeys an explicit logarithmic bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electrical import DENSE_EDGE_CAP, _abs_zeroed, _check_weights, quadratic_form_abs
from .graph import Graph, is_connected, laplacian_matrix
from .schur import _block_prob_map, _check_schur, _eliminate_pivot, _validate_terminals
from .solver import DisconnectedGraphError, LaplacianSystem

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

# Below this, the drop-energy denominator counts as identically zero: the
# vertex sees no activity, its degree is 0, and eliminating it changes nothing.
_DEGENERATE_DENOM = 1e-30

_VI_BLOCK = 1024

# Degrees within this relative distance of the minimum tie; the smallest id
# among them is the pivot, so roundoff in the degrees cannot reorder pivots.
_TIE_RTOL = 1e-12

# Largest admissible gap between the incrementally updated quantities and
# their from-scratch recomputation at the terminal pair: absolute on the
# probability map, relative on V_T.
_ORACLE_PM_TOL = 1e-9
_ORACLE_VI_RTOL = 1e-8

# Largest admissible gap between each step's rank-one term and the pivot's
# degree (absolute), and between the trace's V_0 and the direct quadratic
# form in harmonic_bound_check (relative).
_IDENTITY_TOL = 1e-8
_V0_RTOL = 1e-6


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
    degenerate: list[int]


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


def _degree_vector(graph: Graph, prob_map: np.ndarray, w: np.ndarray):
    """Degree of every row of ``prob_map`` (one row per terminal)."""
    q = np.abs(prob_map[:, graph.tails] - prob_map[:, graph.heads])
    z = w * np.sqrt(graph.conductances)
    num = (q @ z) ** 2
    den = (q * q) @ graph.conductances
    degenerate = den <= _DEGENERATE_DENOM
    degrees = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
    return degrees, den, degenerate


def degree_profile(graph: Graph, terminals, w) -> DegreeProfile:
    """Degrees of all terminals plus the explicit localization bound."""
    S = _validate_terminals(graph, terminals)
    w = _check_weights(graph, w)
    if not is_connected(graph):
        raise DisconnectedGraphError("degree profile requires a connected graph")
    degrees, _, degenerate = _degree_vector(graph, _block_prob_map(graph, S)[0], w)
    bound = (6 * _bucket_count(S.size) + 6) * float(w @ w)
    return DegreeProfile(
        vertices=S,
        degrees=degrees,
        total=float(degrees.sum()),
        bound=bound,
        degenerate=[int(v) for v in S[degenerate]],
    )


def _abs_form(M: np.ndarray, z: np.ndarray, a: np.ndarray | None = None, d: float = 1.0) -> float:
    """z^T |M| z with entries below ``ABS_ZERO_TOL`` zeroed.  With ``a``,
    first downdate ``M -= a a^T / d`` in place.  Works in row blocks, so
    temporaries stay at ``_VI_BLOCK`` rows and each row is read once."""
    total = 0.0
    for lo in range(0, M.shape[0], _VI_BLOCK):
        hi = lo + _VI_BLOCK
        rows = M[lo:hi]
        if a is not None:
            rows -= np.outer(a[lo:hi] / d, a)
        total += float(z[lo:hi] @ (_abs_zeroed(rows) @ z))
    return total


def _abs_quadratic(A: np.ndarray, pinv: np.ndarray, z: np.ndarray) -> float:
    """z^T |A^T L^+ A| z, given the pseudoinverse ``L^+``."""
    return _abs_form(A.T @ (pinv @ A), z)


def _pick_pivot(degrees: np.ndarray, alive: np.ndarray) -> int:
    """Smallest alive id whose degree is within ``_TIE_RTOL`` (relative) of
    the minimum alive degree."""
    ids = np.flatnonzero(alive)
    deg = degrees[ids]
    lowest = deg.min()
    return int(ids[np.argmax(deg <= lowest + _TIE_RTOL * abs(lowest))])


def run_elimination(graph: Graph, w, compute_vi: bool = True) -> EliminationTrace:
    """Run the greedy elimination loop down to two terminals.

    At every step the pivot is the terminal of minimum degree.  Degrees
    within a relative 1e-12 of the minimum count as tied and the smallest
    vertex id among them wins, so traces are deterministic and do not depend
    on roundoff.  Each step verifies that the eliminated rank-one term
    ``(|a_k| . z)^2 / L[k, k]`` equals the pivot's degree to 1e-8
    and, with ``compute_vi``, records the slack of the step inequality
    ``V_i <= V_{i+1} + degree``.  A non-positive pivot diagonal raises
    :class:`LocalizationError`.

    Nothing is rebuilt per step.  The Laplacian and the probability map stay
    full-size (n x n) under an alive mask and are updated in place by the
    one-step pivot identities of :func:`ohmgraph.schur._eliminate_pivot`;
    only the rows of the pivot's current neighbours change, and only their
    degrees are recomputed.  A step costs O(deg_k * (n + m)), where deg_k is
    the pivot's neighbour count in the eliminated network so far.

    With ``compute_vi`` the edge-space matrix ``M_0 = A_0^T L^+ A_0`` is
    built once from one ``solve_columns`` over the m incidence columns and
    then updated as ``M_{i+1} = M_i - a_k a_k^T / L[k, k]``, where ``a_k`` is
    the pivot's probability drop across every edge.  ``V_i = z^T |M_i| z``
    zeroes entries below ``ABS_ZERO_TOL`` as the direct computation does.
    This adds O(m^2) time per step and holds one m x m array, so it is
    refused with ``ValueError`` above ``DENSE_EDGE_CAP`` edges.

    At the terminal pair the surviving probability rows are compared against
    a from-scratch block elimination, and V_T against the exact
    pseudoinverse of that elimination's two-vertex Laplacian, after
    :func:`ohmgraph.schur._check_schur` accepts it; a gap beyond 1e-9
    absolute or 1e-8 relative raises :class:`LocalizationError`.

    With ``compute_vi=False`` only pivots and degrees are recorded (cheap mode
    for larger runs).
    """
    w = _check_weights(graph, w)
    n, m = graph.n_vertices, graph.n_edges
    if n < 2:
        raise ValueError("elimination requires at least 2 vertices")
    if not is_connected(graph):
        raise DisconnectedGraphError("elimination requires a connected graph")
    if compute_vi and m > DENSE_EDGE_CAP:
        raise ValueError(
            f"tracking V_i holds an m x m matrix and caps at m={DENSE_EDGE_CAP} "
            f"(got m={m}); use compute_vi=False (--skip-vi on the command line)"
        )
    tails, heads = graph.tails, graph.heads
    z = w * np.sqrt(graph.conductances)
    w_norm_sq = float(w @ w)

    L = laplacian_matrix(graph)
    pm = np.eye(n)
    alive = np.ones(n, dtype=bool)
    degrees, _, _ = _degree_vector(graph, pm, w)
    v_vals: list[float] = []
    if compute_vi:
        Y = LaplacianSystem(graph).solve_columns(pm[:, tails] - pm[:, heads])
        M = Y[tails] - Y[heads]  # A_0^T L^+ A_0, A_0 the incidence matrix
        v_vals.append(_abs_form(M, z))
    pivots: list[int] = []
    degree_vals: list[float] = []
    rank_one_vals: list[float] = []

    for _ in range(n - 2):
        k = _pick_pivot(degrees, alive)
        d = float(L[k, k])
        if d <= 0:
            raise LocalizationError(f"pivot diagonal {d:.3e} is not positive")
        a = pm[k, tails] - pm[k, heads]
        rank_one = float(np.abs(a) @ z) ** 2 / d
        if abs(rank_one - float(degrees[k])) > _IDENTITY_TOL:
            raise LocalizationError(
                f"rank-one correction {rank_one!r} disagrees with degree "
                f"{float(degrees[k])!r} beyond {_IDENTITY_TOL:.0e} at step {len(pivots)}"
            )
        pivots.append(k)
        degree_vals.append(float(degrees[k]))
        rank_one_vals.append(rank_one)
        nb = _eliminate_pivot(L, pm, alive, k)
        degrees[nb] = _degree_vector(graph, pm[nb], w)[0]
        if compute_vi:
            v_vals.append(_abs_form(M, z, a, d))

    verts = np.flatnonzero(alive)
    pm_ref, schur_ref = _block_prob_map(graph, verts)
    drift = float(np.abs(pm[verts] - pm_ref).max())
    if drift > _ORACLE_PM_TOL:
        raise LocalizationError(
            f"incremental probability map differs from the from-scratch map by {drift:.3e} "
            f"at the terminal pair, beyond {_ORACLE_PM_TOL:.0e}"
        )
    if compute_vi:
        # a two-vertex Laplacian c [[1, -1], [-1, 1]] has pseudoinverse L / trace(L)^2
        _check_schur(schur_ref)
        pinv = schur_ref / np.trace(schur_ref) ** 2
        v_ref = _abs_quadratic(pm_ref[:, tails] - pm_ref[:, heads], pinv, z)
        if abs(v_vals[-1] - v_ref) > _ORACLE_VI_RTOL * abs(v_ref):
            raise LocalizationError(
                f"incremental V_T = {v_vals[-1]!r} differs from the from-scratch value {v_ref!r} "
                f"beyond {_ORACLE_VI_RTOL:.0e} relative"
            )

    steps = []
    for i, pivot in enumerate(pivots):
        v_i = v_vals[i] if compute_vi else None
        slack = (v_vals[i] - v_vals[i + 1] - degree_vals[i]) if compute_vi else None
        steps.append(
            EliminationStep(
                index=i,
                pivot=pivot,
                degree_value=degree_vals[i],
                rank_one_value=rank_one_vals[i],
                v_i=v_i,
                slack=slack,
            )
        )
    return EliminationTrace(
        steps=steps,
        terminal_pair=(int(verts[0]), int(verts[1])),
        v_terminal=v_vals[-1] if compute_vi else None,
        v_initial=v_vals[0] if compute_vi else None,
        w_norm_sq=w_norm_sq,
    )


def _harmonic_sum(n: int) -> float:
    # one pigeonhole term per elimination step, at terminal sizes n, n-1, ..., 3
    return sum((6 * _bucket_count(s) + 6) / s for s in range(n, 2, -1))


def harmonic_bound_check(graph: Graph, w, verify_trace: bool = True) -> HarmonicBoundReport:
    """Compare the absolute-impedance quadratic form against the assembled
    elimination bound ``||w||^2 * (1 + sum_i (6*ceil(log2 |S_i|) + 6)/|S_i|)``.

    With ``verify_trace`` the left side is also recomputed through the full
    elimination trace and must agree with the direct streaming computation to
    1e-6 relative (two independent code paths for the same quantity).
    """
    w = _check_weights(graph, w)
    lhs = quadratic_form_abs(graph, w)
    if verify_trace:
        trace = run_elimination(graph, w)
        v0 = trace.v_initial
        if abs(v0 - lhs) > _V0_RTOL * max(abs(lhs), 1e-30):
            raise LocalizationError(
                f"trace V_0 = {v0!r} disagrees with the direct quadratic form {lhs!r} "
                f"beyond {_V0_RTOL:.0e} relative"
            )
        lhs = v0
    bound = float(w @ w) * (1.0 + _harmonic_sum(graph.n_vertices))
    return HarmonicBoundReport(lhs=lhs, harmonic_bound=bound, ok=bool(lhs <= bound + 1e-9))
