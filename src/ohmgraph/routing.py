"""Electrical-flow oblivious routing: superpose per-pair unit flows and
report per-edge congestion against the exact competitive-ratio bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electrical import TransferImpedance
from .graph import Graph
from .solver import LaplacianSystem

__all__ = [
    "Demand",
    "RoutingReport",
    "parse_demands",
    "route_demands",
    "competitive_ratio_bound",
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
    demands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{source_name}:{lineno}: expected 'source sink amount', got {raw!r}")
        try:
            s, t, a = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"{source_name}:{lineno}: could not parse fields in {raw!r}")
        demands.append(Demand(s, t, a))
    return demands


def _validate_demands(graph: Graph, demands: list[Demand]) -> None:
    if not demands:
        raise ValueError("demand set is empty")
    n = graph.n_vertices
    for i, d in enumerate(demands):
        if not (0 <= d.source < n and 0 <= d.sink < n):
            raise ValueError(f"demand {i}: vertex ids ({d.source}, {d.sink}) out of range for n={n}")
        if d.source == d.sink:
            raise ValueError(f"demand {i}: source equals sink ({d.source})")
        if not 0 < d.amount < np.inf:
            raise ValueError(f"demand {i}: amount must be a positive finite real, got {d.amount}")


def route_demands(graph: Graph, demands) -> RoutingReport:
    """Route every demand along its electrical flow and superpose them signed.

    Opposite-direction demands may cancel on an edge; congestion is taken on
    the superposed flow, which is the congestion the routed traffic actually
    produces.  Electrical flows superpose, so the whole demand set is one
    solve: ``flow = C B L^+ r`` for the summed injections
    ``r = sum_j a_j (e_s - e_t)``.  An unweighted graph also gets its
    competitive-ratio bound: the demands are solved on the Laplacian
    factorization of the impedance that yields it, so the graph is factored
    once; the impedance is dropped once the bound is read, before the demand
    solve.
    """
    demands = list(demands)
    _validate_demands(graph, demands)
    bound = None
    if graph.is_unweighted:
        impedance = TransferImpedance(graph, mode="streaming")
        bound = _max_colsum(impedance)
        system = impedance.system
        del impedance
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


def _max_colsum(impedance: TransferImpedance) -> float:
    return float(impedance.per_edge_stats()[0].max())


def competitive_ratio_bound(graph: Graph) -> float:
    """Exact competitive ratio of electrical routing on an unweighted graph:
    the maximum column sum of the entrywise-absolute impedance, equivalently
    the maximum per-edge flow stretch.  The column sums come from one
    streaming pass over Pi, so no m x m array is held."""
    if not graph.is_unweighted:
        raise ValueError(
            "the competitive-ratio identity holds for unweighted graphs only; "
            "for weighted graphs route_demands reports raw congestion without a bound"
        )
    return _max_colsum(TransferImpedance(graph, mode="streaming"))
