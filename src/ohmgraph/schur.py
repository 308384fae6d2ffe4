"""Schur complements of graph Laplacians with their random-walk
hitting-probability maps, both from one solve grounded at the terminal set,
plus checkers for the distribution, energy-fraction, and
conductance-preservation identities.

A :class:`SchurSystem` is an immutable snapshot of a terminal set ``S``: the
eliminated Laplacian on ``S`` and the probability map ``prob_map[i, x]`` =
probability that a random walk from ``x`` hits terminal ``vertices[i]``
before any other terminal.  The eliminated Laplacian is the whole eliminated
network: its off-diagonal entries are the negated conductances.  It scales
linearly with the base conductances while the probability map does not
change, so its checks are relative to ``scale = max(1, max|L|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _check_ids, _check_index
from .solver import LaplacianSystem

__all__ = [
    "SELF_LOOP_RESIDUE_TOL",
    "SchurResidueError",
    "SchurSystem",
    "schur_complement",
    "check_sum_potentials",
    "check_norm_energy",
    "check_schur_conductance",
]

# Elimination of a pure Laplacian leaves only roundoff on the diagonal
# surplus; anything larger, relative to the matrix scale, signals lost mass
# and is an error, not a warning.
SELF_LOOP_RESIDUE_TOL = 1e-9

# An off-diagonal entry above this, relative to the matrix scale, is a
# negative conductance rather than roundoff.
_POSITIVE_OFFDIAG_TOL = 1e-12

# The smallest normal double, below which a drop energy has lost its digits.
_TINY = np.finfo(float).tiny


class SchurResidueError(RuntimeError):
    """Self-loop residue of an eliminated Laplacian exceeded tolerance."""


@dataclass(frozen=True, eq=False)
class SchurSystem:
    """Terminal set ``S`` with its eliminated Laplacian and probability map."""

    base: Graph
    vertices: np.ndarray  # sorted original ids retained, shape (s,)
    laplacian: np.ndarray  # (s, s) Laplacian of the eliminated network
    prob_map: np.ndarray  # (s, n_base)

    @property
    def size(self) -> int:
        return int(self.vertices.shape[0])

    def local_index(self, v: int) -> int:
        """Position of original vertex ``v`` inside the terminal set."""
        v = _check_index(v, "v", self.base.n_vertices)
        pos = int(np.searchsorted(self.vertices, v))
        if pos >= self.size or self.vertices[pos] != v:
            raise ValueError(f"vertex {v} is not in the terminal set")
        return pos


def _block_prob_map(graph: Graph, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probability map and Schur Laplacian from one Dirichlet block solve.

    With ``a[x, i]`` the conductance between vertex x and terminal
    ``S[i]``, the system grounded at S solves ``X = L_FF^-1 a_F`` off S (F
    the other vertices) and is 0 on S, so X is the map's transpose off the
    terminals: a walk from x hits ``S[i]`` first with probability
    ``X[x, i]``.  The Schur Laplacian is ``L_SS - L_SF L_FF^-1 L_FS =
    diag(deg_S) - a[S] - a^T X``, symmetrized.  No n x n array is built.
    """
    n, s = graph.n_vertices, S.size
    local = np.full(n, -1)
    local[S] = np.arange(s)
    ends, others = np.concatenate((graph.tails, graph.heads)), np.concatenate((graph.heads, graph.tails))
    c = np.concatenate((graph.conductances, graph.conductances))
    at_s = local[others] >= 0
    a = np.bincount(ends[at_s] * s + local[others[at_s]], weights=c[at_s], minlength=n * s).reshape(n, s)
    X = LaplacianSystem(graph, S).solve_columns(a)
    off = local < 0  # X is 0 on S, so the product runs over the other rows
    schur = np.diag(a.sum(axis=0)) - a[S] - a[off].T @ X[off]
    schur = (schur + schur.T) / 2.0
    pm = X.T
    pm[np.arange(s), S] = 1.0
    return pm, schur


def _check_schur(L: np.ndarray) -> None:
    """Raise :class:`SchurResidueError` unless ``L`` is numerically a
    Laplacian: zero row sums up to ``SELF_LOOP_RESIDUE_TOL`` and no
    off-diagonal entry above ``_POSITIVE_OFFDIAG_TOL``, both relative to
    ``max(1, max|L|)``.  This is the library's one Laplacian check; it is
    needed only for matrices produced by elimination, since a Laplacian
    assembled from a graph's validated edges holds both by construction.
    The comparisons are written so that NaN fails them."""
    scale = max(1.0, float(np.abs(L).max()))
    residue = float(np.abs(L.sum(axis=1)).max())
    if not residue <= SELF_LOOP_RESIDUE_TOL * scale:
        raise SchurResidueError(
            f"self-loop residue {residue:.3e} exceeds {SELF_LOOP_RESIDUE_TOL:.0e} x scale {scale:.3e}; "
            "the eliminated matrix is not numerically a pure Laplacian"
        )
    rows, cols = np.triu_indices(L.shape[0], k=1)  # row-major pair order
    bad = np.flatnonzero(~(L[rows, cols] <= _POSITIVE_OFFDIAG_TOL * scale))
    if bad.size:
        i, j = int(rows[bad[0]]), int(cols[bad[0]])
        raise SchurResidueError(
            f"positive off-diagonal {L[i, j]:.3e} at ({i}, {j}); "
            "elimination produced a non-Laplacian matrix"
        )


def schur_complement(graph: Graph, terminals) -> SchurSystem:
    """Eliminate every vertex outside ``terminals`` from the graph Laplacian.

    The result is electrically equivalent to the input on the terminal set:
    quadratic forms of the pseudoinverse on terminal-supported vectors are
    preserved.  The system grounded at the terminals refuses a disconnected
    graph with :class:`~ohmgraph.solver.DisconnectedGraphError`.
    """
    S = _check_ids(terminals, "terminals", graph.n_vertices)
    if S.size < 2:
        raise ValueError("terminal set must contain at least 2 distinct vertices")
    pm, schur = _block_prob_map(graph, S)
    _check_schur(schur)
    return SchurSystem(base=graph, vertices=S, laplacian=schur, prob_map=pm)


def _check_drop_energy(energy: float) -> None:
    """Raise ``FloatingPointError`` unless a terminal's drop energy
    ``sum_e c_e (p(x) - p(y))^2`` is a normal double.  On a connected graph
    it is positive, since p is 1 at the terminal and 0 at the others; one
    below the smallest normal double has lost its precision."""
    if not energy >= _TINY:  # NaN fails too
        raise FloatingPointError(
            f"drop energy {energy:.3e} is below the smallest normal double; "
            "the conductances are too small for double precision"
        )


def _drop_energies(system: SchurSystem, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Per base edge, the energy ``c_e (p(x) - p(y))^2`` of ``v``'s hitting
    probability drop across the edge, checked by :func:`_check_drop_energy`
    in total, and the larger endpoint probability."""
    row = system.prob_map[system.local_index(v)]
    px = row[system.base.tails]
    py = row[system.base.heads]
    energy = system.base.conductances * (px - py) ** 2
    _check_drop_energy(float(energy.sum()))
    return energy, np.maximum(px, py)


def check_sum_potentials(system: SchurSystem, edge_index: int) -> float:
    """Sum over terminals of the clamped endpoint level of one edge; always <= 3."""
    edge_index = _check_index(edge_index, "edge_index", system.base.n_edges)
    x = int(system.base.tails[edge_index])
    y = int(system.base.heads[edge_index])
    px = system.prob_map[:, x]
    py = system.prob_map[:, y]
    r = np.maximum(np.maximum(px, py), 1.0 / system.size)
    return float(r.sum())


def check_norm_energy(system: SchurSystem, v: int, p: float) -> tuple[float, float]:
    """Energy of the low-potential edge set versus its fraction bound.

    ``lhs`` is the conductance-weighted square of ``v``'s probability drops
    over base edges whose endpoint probabilities both stay at or below ``p``;
    ``rhs`` is ``p`` times the total drop energy.  The contract is
    ``lhs <= rhs``.  A total drop energy below the smallest normal double
    raises ``FloatingPointError``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("threshold p must lie in (0, 1)")
    energy, level = _drop_energies(system, v)
    lhs = float(energy[level <= p].sum())
    rhs = float(p * energy.sum())
    return lhs, rhs


def check_schur_conductance(system: SchurSystem, v: int) -> tuple[float, float]:
    """Weighted degree of a terminal after elimination versus the drop energy.

    ``lhs`` sums the conductances incident to ``v`` in the eliminated network,
    read as the negated off-diagonal entries of ``v``'s row of the eliminated
    Laplacian, none pruned; ``rhs`` is the conductance-weighted square of
    ``v``'s probability drops over the base edges.  The two agree to solver
    accuracy.  A drop energy below the smallest normal double raises
    ``FloatingPointError``.
    """
    i = system.local_index(v)
    lhs = -float(np.delete(system.laplacian[i], i).sum())
    rhs = float(_drop_energies(system, v)[0].sum())
    return lhs, rhs
