"""Schur complements of graph Laplacians and random-walk hitting-probability
maps computed by three independent routes, plus checkers for the
distribution, energy-fraction, and conductance-preservation identities.

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
import scipy.linalg

from .graph import Graph, _graph_from_arrays, is_connected, laplacian_matrix
from .solver import DisconnectedGraphError, LaplacianSystem

__all__ = [
    "SELF_LOOP_RESIDUE_TOL",
    "SchurResidueError",
    "SchurSystem",
    "schur_complement",
    "eliminate_one",
    "hitting_probabilities",
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
        pos = int(np.searchsorted(self.vertices, v))
        if pos >= self.size or self.vertices[pos] != v:
            raise ValueError(f"vertex {v} is not in the terminal set")
        return pos


def _validate_terminals(graph: Graph, terminals) -> np.ndarray:
    S = np.unique(np.asarray(list(terminals), dtype=np.int64))
    if S.size < 2:
        raise ValueError("terminal set must contain at least 2 distinct vertices")
    if S[0] < 0 or S[-1] >= graph.n_vertices:
        raise ValueError(f"terminal ids out of range for n={graph.n_vertices}")
    return S


def _block_prob_map(graph: Graph, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probability map and Schur Laplacian from the block elimination formula.

    The Laplacian is split into terminal/non-terminal blocks; eliminating the
    non-terminal block yields both the reduced Laplacian and, per vertex, the
    harmonic extension that encodes the hitting probabilities.
    """
    n = graph.n_vertices
    L = laplacian_matrix(graph)
    comp = np.setdiff1d(np.arange(n), S)
    s = S.size
    pm = np.zeros((s, n))
    pm[np.arange(s), S] = 1.0
    P = L[np.ix_(S, S)]
    if comp.size == 0:
        return pm, P
    Q = L[np.ix_(S, comp)]
    R = L[np.ix_(comp, comp)]
    factor = scipy.linalg.cho_factor(R, lower=True, check_finite=False)
    X = scipy.linalg.cho_solve(factor, Q.T, check_finite=False)  # R^{-1} Q^T
    schur = P - Q @ X
    schur = (schur + schur.T) / 2.0
    pm[:, comp] = -X.T
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
    preserved.
    """
    S = _validate_terminals(graph, terminals)
    if not is_connected(graph):
        raise DisconnectedGraphError("Schur elimination requires a connected graph")
    pm, schur = _block_prob_map(graph, S)
    _check_schur(schur)
    return SchurSystem(base=graph, vertices=S, laplacian=schur, prob_map=pm)


def _eliminate_pivot(L: np.ndarray, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate row ``k`` in place by one star-clique step.

    ``L`` is an exactly symmetric Laplacian in which every index eliminated
    so far has a zero row and column.  ``rows`` holds one row per index of
    any quantity linear in the probability map's rows: the map ``pm`` itself
    in :func:`eliminate_one`, its edge drops ``D = pm B^T`` in
    :func:`ohmgraph.localization.run_elimination`.  Only the neighbours
    ``nb`` of ``k`` (the nonzeros of row ``k`` off the diagonal) change:
    ``L[nb, nb] -= L[nb, k] L[k, nb] / L[k, k]`` and
    ``rows[nb] += (-L[nb, k] / L[k, k]) rows[k]``, since a walk that would
    first hit ``k`` now moves on to neighbour j with probability
    ``-L[j, k] / L[k, k]``.  Row and column ``k`` of ``L`` are zeroed and
    ``rows[k]`` is left as it was.  Returns ``nb`` and the updated
    ``rows[nb]``.  A non-positive pivot diagonal, or a pivot with no
    neighbour left (its row no longer sums to zero), raises
    :class:`SchurResidueError`.

    Both updates are in-place BLAS rank-one updates (``dger``) on the
    gathered rows ``L[nb]`` and ``rows[nb]``, written back afterwards; the
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
    updated = rows[nb]
    scipy.linalg.blas.dger(1.0, rows[k], -c / d, a=updated.T, overwrite_a=True)
    rows[nb] = updated
    return nb, updated


def eliminate_one(system: SchurSystem, v: int) -> SchurSystem:
    """Eliminate a single terminal by a star-clique update of the current
    Laplacian and the matching one-step update of the probability map.

    Equals the from-scratch elimination onto the smaller terminal set.  Runs
    the same pivot update as :func:`ohmgraph.localization.run_elimination`
    on copies of the system's arrays, so nothing is re-solved.
    """
    if system.size <= 2:
        raise ValueError("cannot eliminate below 2 terminals (termination state)")
    k = system.local_index(v)
    L = system.laplacian.copy()
    pm = system.prob_map.copy()
    _eliminate_pivot(L, pm, k)
    keep = np.arange(system.size) != k
    updated = L[np.ix_(keep, keep)]
    _check_schur(updated)
    return SchurSystem(base=system.base, vertices=system.vertices[keep], laplacian=updated, prob_map=pm[keep])


def _identify_prob_map(graph: Graph, S: np.ndarray) -> np.ndarray:
    """Probability map via terminal identification.

    For each terminal ``v``, all other terminals are merged into a single
    ground vertex; the normalized potentials of the v-to-ground unit flow are
    the hitting probabilities.  Merging turns terminal-terminal edges into
    self-loops, which are dropped (they cancel in every potential difference).
    """
    n = graph.n_vertices
    s = S.size
    pm = np.empty((s, n))
    for i, v in enumerate(S):
        others = S[S != v]
        idmap = np.full(n, -1, dtype=np.int64)
        idmap[others] = 0
        rest = np.flatnonzero(idmap < 0)
        idmap[rest] = np.arange(1, rest.size + 1)
        ma = idmap[graph.tails]
        mb = idmap[graph.heads]
        keep = ma != mb
        merged = _graph_from_arrays(ma[keep], mb[keep], graph.conductances[keep], rest.size + 1)
        b = np.zeros(merged.n_vertices)
        b[idmap[v]] = 1.0
        b[0] = -1.0
        phi = LaplacianSystem(merged).solve(b)
        denom = phi[idmap[v]] - phi[0]
        pm[i, :] = np.abs(phi[idmap] - phi[0]) / denom
    return pm


def _walk_prob_map(graph: Graph, S: np.ndarray) -> np.ndarray:
    """Probability map from the absorbing-chain linear system (deterministic,
    no Monte Carlo): transition probabilities proportional to conductances,
    terminals absorbing."""
    n = graph.n_vertices
    L = laplacian_matrix(graph)
    A = np.diag(np.diag(L)) - L  # weighted adjacency, parallel edges summed
    deg = A.sum(axis=1)
    if np.any(deg <= 0):
        raise DisconnectedGraphError("isolated vertex: walk transition matrix undefined")
    P = A / deg[:, None]
    comp = np.setdiff1d(np.arange(n), S)
    s = S.size
    pm = np.zeros((s, n))
    pm[np.arange(s), S] = 1.0
    if comp.size:
        T = P[np.ix_(comp, comp)]
        H = np.linalg.solve(np.eye(comp.size) - T, P[np.ix_(comp, S)])
        pm[:, comp] = H.T
    return pm


def hitting_probabilities(graph: Graph, terminals, method: str = "block") -> np.ndarray:
    """Hitting-probability map for a terminal set, rows ordered by sorted id.

    Parameters
    ----------
    graph : Graph
        Connected weighted multigraph.
    terminals : iterable of int
        At least two distinct vertex ids.
    method : str
        ``'block'`` uses the Laplacian block-elimination formula,
        ``'identify'`` normalized potentials after merging the other
        terminals, ``'walk_oracle'`` the absorbing-chain linear system.
        The three agree entrywise to solver accuracy.

    Returns
    -------
    ndarray of shape (len(terminals), n_vertices)
        ``result[i, x]`` is the probability that a walk from ``x`` reaches
        sorted terminal ``i`` first.  Rows at terminal columns form the
        identity; every column sums to 1.
    """
    S = _validate_terminals(graph, terminals)
    if not is_connected(graph):
        raise DisconnectedGraphError("hitting probabilities require a connected graph")
    if method == "block":
        return _block_prob_map(graph, S)[0]
    if method == "identify":
        return _identify_prob_map(graph, S)
    if method == "walk_oracle":
        return _walk_prob_map(graph, S)
    raise ValueError(f"unknown method {method!r}; use 'block', 'identify', or 'walk_oracle'")


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
    if not (0 <= edge_index < system.base.n_edges):
        raise ValueError(f"edge index {edge_index} out of range for m={system.base.n_edges}")
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
