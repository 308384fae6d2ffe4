import weakref

import numpy as np
import pytest
import scipy.linalg

from ohmgraph import (
    Demand,
    LaplacianSystem,
    TransferImpedance,
    build_graph,
    parallel_paths,
    parse_demands,
    route_demands,
    torus,
    unit_flow,
)

from conftest import delta_edge, log_uniform_expander, net_outflow, single_edge, triangle


class TestRouteDemands:
    def test_single_edge_unit_demand(self):
        report = route_demands(single_edge(), [Demand(0, 1, 1.0)])
        assert report.max_congestion == pytest.approx(1.0, abs=1e-12)
        assert report.competitive_ratio_bound == pytest.approx(1.0, abs=1e-10)
        assert report.max_congestion <= report.competitive_ratio_bound + 1e-9

    def test_triangle_unit_demand(self):
        report = route_demands(triangle(), [Demand(0, 1, 1.0)])
        assert report.max_congestion == pytest.approx(2 / 3, abs=1e-9)

    def test_parallel_paths_direct_edge_half(self):
        g = parallel_paths(3)
        report = route_demands(g, [Demand(0, 1, 1.0)])
        assert report.congestion[0] == pytest.approx(0.5, abs=1e-9)

    def test_superposition_is_linear(self, rng):
        g = torus(3)
        d1 = [Demand(0, 4, 1.3)]
        d2 = [Demand(2, 7, 0.7), Demand(5, 1, 2.0)]
        f1 = route_demands(g, d1).flow
        f2 = route_demands(g, d2).flow
        f12 = route_demands(g, d1 + d2).flow
        assert np.abs(f12 - (f1 + f2)).max() <= 1e-10

    def test_single_edge_demand_total_flow_matches_delta(self):
        for g in (triangle(), torus(3)):
            for e in range(g.n_edges):
                u, v = int(g.tails[e]), int(g.heads[e])
                report = route_demands(g, [Demand(u, v, 1.0)])
                assert np.abs(report.flow).sum() == pytest.approx(delta_edge(g, e), abs=1e-9)

    def test_weighted_graph_reports_congestion_without_bound(self):
        g = build_graph([(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0)])
        report = route_demands(g, [Demand(0, 1, 1.0)])
        assert report.competitive_ratio_bound is None
        assert report.max_congestion > 0

    def test_opposite_demands_cancel(self):
        g = single_edge()
        report = route_demands(g, [Demand(0, 1, 1.0), Demand(1, 0, 1.0)])
        assert report.max_congestion == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [Demand(0, 0, 1.0)],
            [Demand(0, 1, 0.0)],
            [Demand(0, 1, -2.0)],
            [Demand(0, 9, 1.0)],
            [Demand(True, 2, 1.0)],  # read as a mask, injecting at every vertex
            [Demand(0, np.True_, 1.0)],
            [Demand(1.0, 2, 1.0)],
            [Demand(0, "1", 1.0)],
            [Demand(-1, 2, 1.0)],
            [Demand(0, 1, 1.0), Demand(2, 3, 1.0)],
            [Demand(0, 1, True)],  # float() reads these three as numbers
            [Demand(0, 1, np.True_)],
            [Demand(0, 1, "1")],
        ],
    )
    def test_invalid_demands(self, bad):
        with pytest.raises(ValueError, match=r"^demand"):
            route_demands(triangle(), bad)


class TestCompetitiveRatioBound:
    def test_single_edge(self):
        bound = route_demands(single_edge(), [Demand(0, 1, 1.0)]).competitive_ratio_bound
        assert bound == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("g", [triangle(), torus(3), parallel_paths(3)])
    def test_equals_max_delta(self, g):
        expected = max(delta_edge(g, e) for e in range(g.n_edges))
        bound = route_demands(g, [Demand(0, 1, 1.0)]).competitive_ratio_bound
        assert bound == pytest.approx(expected, abs=1e-9)

    def test_bound_streams_pi(self, monkeypatch):
        # the bound reads Pi once, from the grounded inverse, so no
        # TransferImpedance and no Y is built
        built = []
        original = TransferImpedance.__init__

        def spy(self, graph, *args, **kwargs):
            built.append(graph)
            original(self, graph, *args, **kwargs)

        monkeypatch.setattr(TransferImpedance, "__init__", spy)
        g = torus(6)
        report = route_demands(g, [Demand(0, 21, 1.0)])
        assert built == []
        dense = np.abs(TransferImpedance(g, mode="dense").column_block(0, g.n_edges))
        assert abs(report.competitive_ratio_bound - dense.sum(axis=0).max()) <= 1e-12

    def test_route_factors_once(self, monkeypatch):
        g = torus(6)
        demands = [Demand(0, 21, 1.0), Demand(5, 30, 2.5), Demand(17, 3, 0.5)]
        factored = []
        original = scipy.linalg.cho_factor

        def spy(a, *args, **kwargs):
            factored.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
        report = route_demands(g, demands)
        # one factor, of the grounded Schur block left by the rounds: 14 of
        # torus:6's 36 vertices, the ground included
        assert factored == [(13, 13)]
        superposed = sum(d.amount * unit_flow(g, d.source, d.sink) for d in demands)
        assert np.abs(report.flow - superposed).max() <= 1e-12 * np.abs(superposed).max()
        # a different kernel sums the bound, so it agrees to roundoff, not bitwise
        expected = TransferImpedance(g).per_edge_stats()[0].max()
        assert abs(report.competitive_ratio_bound - expected) <= 1e-12 * expected

    def test_summed_injections_superpose_unit_flows(self, monkeypatch):
        # opposite-direction and repeated pairs on a weighted graph: one solve
        # against the summed injections is the amount-weighted sum of unit flows
        g = log_uniform_expander(30, 4)
        demands = [Demand(0, 17, 1.5), Demand(17, 0, 0.25), Demand(3, 11, 2.0), Demand(3, 11, 0.75),
                   Demand(11, 3, 0.5), Demand(29, 0, 1.0)]
        solved = []
        original = LaplacianSystem.solve_columns

        def spy(self, B):
            solved.append(np.shape(B)[1])
            return original(self, B)

        monkeypatch.setattr(LaplacianSystem, "solve_columns", spy)
        report = route_demands(g, demands)
        monkeypatch.undo()
        assert solved == [1]
        assert report.competitive_ratio_bound is None
        superposed = sum(d.amount * unit_flow(g, d.source, d.sink) for d in demands)
        assert np.abs(report.flow - superposed).max() <= 1e-12 * np.abs(superposed).max()
        injections = np.zeros(g.n_vertices)
        for d in demands:
            injections[d.source] += d.amount
            injections[d.sink] -= d.amount
        assert np.abs(net_outflow(g, report.flow) - injections).max() <= 1e-12

    def test_impedance_released_before_demand_solves(self, monkeypatch):
        # G, the n x n grounded inverse the bound is read from, is written
        # through a view of it
        refs, shapes, alive = [], [], []
        original_inverse = LaplacianSystem.grounded_inverse
        original_solve = LaplacianSystem.solve_columns

        def inverse_spy(self, out, block):
            refs.append(weakref.ref(out.base))
            shapes.append(out.base.shape)
            return original_inverse(self, out, block)

        def solve_spy(self, B):
            alive.append(refs[0]() is not None if refs else None)
            return original_solve(self, B)

        monkeypatch.setattr(LaplacianSystem, "grounded_inverse", inverse_spy)
        monkeypatch.setattr(LaplacianSystem, "solve_columns", solve_spy)
        g = torus(6)
        report = route_demands(g, [Demand(0, 21, 1.0), Demand(5, 30, 2.5)])
        assert report.competitive_ratio_bound is not None
        assert shapes == [(36, 36)]
        # G's own solves run while it is alive; the demand solve runs last,
        # after G is gone
        assert alive[-1] is False and all(alive[:-1])

    def test_weighted_rejected_with_explanation(self):
        # the routing identity holds on unweighted graphs only, so a weighted
        # graph is routed without a bound
        g = build_graph([(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0)])
        assert route_demands(g, [Demand(0, 1, 1.0)]).competitive_ratio_bound is None


class TestParseDemands:
    def test_basic_with_comments(self):
        text = "# demands\n0 1 1.0\n\n2 3 0.5\n"
        assert parse_demands(text) == [Demand(0, 1, 1.0), Demand(2, 3, 0.5)]

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_demands("0 1 1.0\n0 1\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_demands("a b 1.0\n")
        with pytest.raises(ValueError, match=r":1: expected 'source sink amount', got '0 1'$"):
            parse_demands("0 1  \n")  # the echo drops trailing blanks, as edge lists do
