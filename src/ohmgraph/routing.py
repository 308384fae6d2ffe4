"""Electrical-flow oblivious routing: superpose per-pair unit flows and
report per-edge congestion against the exact competitive-ratio bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electrical import _PiReader
from .graph import _NOT_REAL, Graph, _check_index, _parse_triples
from .solver import LaplacianSystem

__all__ = [
    "Demand",
    "RoutingReport",
    "parse_demands",
    "route_demands",
]


@dataclass(frozen=True)
class Demand:
    source: int
    sink: int
    amount: float


@dataclass(frozen=True)
class RoutingReport:
    """Signed superposed flow, per-edge congestion |flow|/conductance, and the
    max-column-sum bound (None on weighted graphs, where no routing identity
    is claimed)."""

    flow: np.ndarray
    congestion: np.ndarray
    max_congestion: float
    competitive_ratio_bound: float | None


def parse_demands(text: str, source_name: str = "<demands>") -> list[Demand]:
    """Parse `source sink amount` triples, one per line, `#` comments allowed."""
    lines = text.splitlines()
    return [Demand(s, t, a) for _, s, t, a in _parse_triples(lines, source_name, "source sink amount", ValueError)]


def _validate_demands(graph: Graph, demands: list[Demand]) -> None:
    if not demands:
        raise ValueError("demand set is empty")
    n = graph.n_vertices
    for i, d in enumerate(demands):
        _check_index(d.source, f"demand {i}: source", n)
        _check_index(d.sink, f"demand {i}: sink", n)
        if d.source == d.sink:
            raise ValueError(f"demand {i}: source equals sink ({d.source})")
        if isinstance(d.amount, _NOT_REAL):
            raise ValueError(f"demand {i}: amount must be a real number, got {d.amount!r}")
        if not 0 < d.amount < np.inf:
            raise ValueError(f"demand {i}: amount must be a positive finite real, got {d.amount}")


def route_demands(graph: Graph, demands) -> RoutingReport:
    """Route every demand along its electrical flow and superpose them signed.

    Opposite-direction demands may cancel on an edge; congestion is taken on
    the superposed flow, which is the congestion the routed traffic actually
    produces.  Electrical flows superpose, so the whole demand set is one
    solve: ``flow = C B L^+ r`` for the summed injections
    ``r = sum_j a_j (e_s - e_t)``.  An unweighted graph also gets its
    competitive-ratio bound, the largest entry of ``|Pi| 1``, from one pass
    over Pi read from the n x n grounded inverse G (see
    :class:`~ohmgraph.electrical._PiReader`), so no n x m array is built.
    The demands are solved on the factorization behind G, so the graph is
    factored once, and G is dropped before the demand solve.
    """
    demands = list(demands)
    _validate_demands(graph, demands)
    bound = None
    if graph.is_unweighted:
        pi = _PiReader(graph)
        bound = float(pi.abs_apply(np.ones(graph.n_edges)).max())
        system = pi.system
        del pi  # and its G
    else:
        system = LaplacianSystem(graph)
    injections = np.zeros(graph.n_vertices)
    for d in demands:
        injections[d.source] += d.amount
        injections[d.sink] -= d.amount
    potentials = system.solve(injections)
    flow = graph.conductances * (potentials[graph.tails] - potentials[graph.heads])
    congestion = np.abs(flow) / graph.conductances
    return RoutingReport(
        flow=flow,
        congestion=congestion,
        max_congestion=float(congestion.max()),
        competitive_ratio_bound=bound,
    )
