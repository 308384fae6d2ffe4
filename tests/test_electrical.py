import functools
import inspect
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import ohmgraph.cli as cli
import ohmgraph.electrical as electrical
import ohmgraph.graph as graph_module
import ohmgraph.localization as localization
from ohmgraph import (
    ABS_ZERO_TOL,
    Demand,
    DisconnectedGraphError,
    LaplacianSystem,
    TransferImpedance,
    build_graph,
    complete,
    effective_resistance,
    hypercube,
    is_connected,
    parallel_paths,
    path,
    quadratic_form_abs,
    random_regular_expander,
    route_demands,
    run_elimination,
    spectral_norm_nonneg,
    torus,
    unit_flow,
)

from conftest import (
    bad_ids,
    bfs_distance,
    delta_edge,
    impedance_longdouble,
    impedance_reference,
    indicator_drop,
    log_uniform_expander,
    net_outflow,
    oracle_pinv_apply,
    random_connected_graph,
    single_edge,
    triangle,
)

TEST_GRAPHS = [triangle(), torus(3), parallel_paths(3), complete(4), random_regular_expander(16, 4, seed=2)]


class TestUnitFlow:
    def test_single_edge(self):
        assert np.allclose(unit_flow(single_edge(), 0, 1), [1.0], atol=1e-12)

    def test_triangle_split(self):
        f = unit_flow(triangle(), 0, 1)
        # direct edge carries 2/3, the two-hop route 1/3 (3x3 solve oracle)
        assert abs(abs(f[0]) - 2 / 3) < 1e-12
        assert np.allclose(np.sort(np.abs(f)), [1 / 3, 1 / 3, 2 / 3], atol=1e-12)
        assert abs(np.abs(f).sum() - 4 / 3) < 1e-12

    @pytest.mark.parametrize("g", TEST_GRAPHS)
    def test_conservation_everywhere(self, g):
        for e in range(g.n_edges):
            u, v = int(g.tails[e]), int(g.heads[e])
            f = unit_flow(g, u, v)
            resid = net_outflow(g, f) - indicator_drop(g.n_vertices, u, v)
            assert np.abs(resid).max() <= 1e-9

    @pytest.mark.parametrize("g", TEST_GRAPHS)
    def test_energy_equals_effective_resistance(self, g, rng):
        for _ in range(5):
            u, v = rng.choice(g.n_vertices, size=2, replace=False)
            f = unit_flow(g, int(u), int(v))
            energy = float((f**2 / g.conductances).sum())
            reff = effective_resistance(g, int(u), int(v))
            assert abs(energy - reff) <= 1e-9 * reff

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            unit_flow(triangle(), 1, 1)

    @pytest.mark.parametrize("bad", bad_ids(3), ids=repr)
    @pytest.mark.parametrize("entry", [unit_flow, effective_resistance], ids=lambda f: f.__name__)
    def test_bad_vertex_ids_rejected(self, entry, bad):
        with pytest.raises(ValueError, match=r"^u must"):
            entry(triangle(), bad, 2)
        with pytest.raises(ValueError, match=r"^v must"):
            entry(triangle(), 2, bad)

    def test_disconnected_propagates(self):
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            unit_flow(g, 0, 1)

    def test_l1_at_least_hop_distance(self, rng):
        for g in (torus(4), random_regular_expander(16, 4, seed=5)):
            for _ in range(10):
                u, v = rng.choice(g.n_vertices, size=2, replace=False)
                f = unit_flow(g, int(u), int(v))
                assert np.abs(f).sum() >= bfs_distance(g, int(u), int(v)) - 1e-9


class TestEffectiveResistance:
    def test_single_edge(self):
        assert effective_resistance(single_edge(), 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_triangle(self):
        assert effective_resistance(triangle(), 0, 1) == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_path_is_series(self, n):
        assert effective_resistance(path(n), 0, n - 1) == pytest.approx(n - 1, rel=1e-12)

    def test_symmetric(self):
        g = torus(3)
        assert effective_resistance(g, 1, 7) == pytest.approx(effective_resistance(g, 7, 1), rel=1e-12)

    def test_rayleigh_monotonicity_under_deletion(self, rng):
        for g in (torus(3), complete(5)):
            base = effective_resistance(g, 0, 1)
            edges = g.edge_list()
            tried = 0
            while tried < 20:
                e = int(rng.integers(g.n_edges))
                reduced = build_graph(edges[:e] + edges[e + 1 :], n_vertices=g.n_vertices)
                if not is_connected(reduced):
                    continue
                tried += 1
                assert effective_resistance(reduced, 0, 1) >= base - 1e-12


class TestDelta:
    # delta_edge is the unit-flow oracle in conftest, which does not read Y
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_parallel_paths_direct_edge(self, k):
        g = parallel_paths(k)
        assert delta_edge(g, 0) == pytest.approx((k + 1) / 2, abs=1e-9)

    @pytest.mark.parametrize("k", [4, 5])
    def test_parallel_paths_mid_edge_is_small(self, k):
        g = parallel_paths(k)
        mid = 1 + k // 2  # middle edge of the first hub-to-hub path
        assert delta_edge(g, mid) <= 3.0

    def test_complete4_any_edge(self):
        # direct flow 1/2 plus two 2-hop paths at 1/4 each: l1 = 3/2
        assert delta_edge(complete(4), 0) == pytest.approx(1.5, abs=1e-12)

    def test_weighted_graph_rejected(self):
        g = build_graph([(0, 1, 2.0), (1, 2, 1.0), (2, 0, 1.0)])
        with pytest.raises(ValueError, match="unweighted"):
            delta_edge(g, 0)

    @pytest.mark.parametrize("bad", bad_ids(6), ids=repr)
    def test_bad_edge_index_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^edge_index must"):
            delta_edge(complete(4), bad)

    def test_summary_matches_per_edge_and_floor(self):
        g = torus(3)
        delta, _, _ = TransferImpedance(g).per_edge_stats()
        for e in range(g.n_edges):
            assert delta[e] == pytest.approx(delta_edge(g, e), abs=1e-9)
        assert np.all(delta >= 1.0 - 1e-9)


class TestTransferImpedance:
    def test_single_edge_is_scalar_one(self):
        tp = TransferImpedance(single_edge())
        assert np.allclose(tp.column_block(0, 1), [[1.0]], atol=1e-12)

    def test_triangle_entries(self):
        tp = TransferImpedance(triangle())
        M = tp.column_block(0, 3)
        assert np.allclose(np.diag(M), 2 / 3, atol=1e-12)
        off = M[~np.eye(3, dtype=bool)]
        assert np.allclose(np.abs(off), 1 / 3, atol=1e-12)
        assert tp.per_edge_stats()[2].sum() == pytest.approx(2.0, abs=1e-12)

    def test_torus3_trace(self):
        assert TransferImpedance(torus(3)).per_edge_stats()[2].sum() == pytest.approx(8.0, abs=1e-8)

    @pytest.mark.parametrize("g", TEST_GRAPHS)
    def test_projection_identities(self, g):
        tp = TransferImpedance(g, mode="dense")
        M = tp.column_block(0, g.n_edges)
        assert np.abs(M @ M - M).max() <= 1e-8
        assert abs(np.trace(M) - (g.n_vertices - 1)) <= 1e-8
        assert np.abs(M - M.T).max() <= 1e-12
        assert np.all(np.diag(M) >= -1e-12) and np.all(np.diag(M) <= 1 + 1e-12)
        assert np.linalg.eigvalsh(M).max() == pytest.approx(1.0, abs=1e-10)

    def test_streaming_matches_dense(self, monkeypatch):
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 5)
        g = torus(3)
        dense = TransferImpedance(g, mode="dense")
        streaming = TransferImpedance(g, mode="streaming")
        M = dense.column_block(0, g.n_edges)
        rebuilt = np.hstack([streaming.column_block(lo, min(lo + 5, g.n_edges)) for lo in range(0, g.n_edges, 5)])
        assert np.abs(rebuilt - M).max() < 1e-12
        s_colsums, s_l1, s_diag = streaming.per_edge_stats()
        d_colsums, d_l1, d_diag = dense.per_edge_stats()
        assert s_diag.sum() == pytest.approx(np.trace(M), abs=1e-10)
        assert s_diag.sum() == pytest.approx(d_diag.sum(), abs=1e-10)
        v = np.linspace(0.0, 1.0, g.n_edges)
        assert np.allclose(streaming.abs_matvec(v), dense.abs_matvec(v), atol=1e-12)
        assert np.allclose(dense.abs_matvec(v), np.abs(M) @ v, atol=1e-12)
        assert np.allclose(s_colsums, d_colsums, atol=1e-12)
        assert np.allclose(s_l1, d_l1, atol=1e-12)

    def test_dense_cap_error_names_streaming(self, monkeypatch):
        monkeypatch.setattr(electrical, "DENSE_EDGE_CAP", 4)
        with pytest.raises(ValueError, match="streaming"):
            TransferImpedance(torus(3), mode="dense")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            TransferImpedance(triangle(), mode="sideways")

    @pytest.mark.parametrize(
        "lo, hi, message",
        [(bad, 3, "lo must") for bad in bad_ids(18)]
        + [(0, bad, "hi must") for bad in bad_ids(19)]
        + [(0, 999, "hi must"), (-2, 18, "lo must"), (5, 3, "hi must exceed lo"), (4, 4, "hi must exceed lo")],
        ids=repr,
    )
    def test_column_block_outside_the_edge_range_rejected(self, lo, hi, message):
        # on m = 18 the slices read 18, 2 and 0 columns without an error
        with pytest.raises(ValueError, match=f"^{message}"):
            TransferImpedance(torus(3)).column_block(lo, hi)


def _oracle_impedance(g):
    """Column f from a fresh unit-flow solve across edge f: Pi_ef = sqrt(c_f/c_e) flow_e."""
    c = g.conductances
    cols = [np.sqrt(c[f] / c) * unit_flow(g, int(g.tails[f]), int(g.heads[f])) for f in range(g.n_edges)]
    return np.column_stack(cols)


class TestImpedanceOracle:
    # block size 7 divides neither n nor m of any graph below
    GRAPHS = [torus(6), hypercube(4), log_uniform_expander(40, 5)]

    @pytest.mark.parametrize("mode", ["dense", "streaming"])
    @pytest.mark.parametrize("g", GRAPHS, ids=["torus6", "hypercube4", "weighted_expander40"])
    def test_matches_unit_flow_oracle(self, g, mode, monkeypatch):
        assert g.n_vertices % 7 and g.n_edges % 7
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 7)
        monkeypatch.setattr(electrical, "_SOLVE_BLOCK", 7)
        m = g.n_edges
        tp = TransferImpedance(g, mode=mode)
        built = np.hstack([tp.column_block(lo, min(lo + 7, m)) for lo in range(0, m, 7)])
        oracle = _oracle_impedance(g)
        assert np.abs(built - oracle).max() <= 1e-12
        _, _, diag = tp.per_edge_stats()
        assert np.abs(diag - np.diag(oracle)).max() <= 1e-12

    def test_edge_potentials_from_partial_solve_blocks(self, monkeypatch):
        # S_k's 17 columns are solved in 7-column blocks, the last partial,
        # the round products run in 7-column blocks and the 39 rows past the
        # ground are converted in 5-row slices, the last partial
        monkeypatch.setattr(electrical, "_SOLVE_BLOCK", 7)
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 5)
        g = log_uniform_expander(40, 5)
        system = LaplacianSystem(g)
        assert system._n_s == 18
        y, tails, heads = electrical._edge_potentials(system, g, np.empty((g.n_vertices, g.n_edges)))
        assert np.array_equal(tails, system._where[g.tails]) and np.array_equal(heads, system._where[g.heads])
        sqrt_c = np.sqrt(g.conductances)
        bt = np.zeros((g.n_vertices, g.n_edges))
        bt[g.tails, np.arange(g.n_edges)] = sqrt_c
        bt[g.heads, np.arange(g.n_edges)] = -sqrt_c
        oracle = oracle_pinv_apply(g, bt)
        # Y's rows are in elimination order, and each of its columns is
        # L^+ B^T sqrt(C)'s up to one constant
        y = y[system._where]
        assert np.abs(y - y.mean(axis=0) - oracle).max() <= 1e-10 * np.abs(oracle).max()

    @pytest.mark.parametrize("spread, bound", [(1e4, 1.5e-11), (1e6, 1.1e-9)])
    def test_wide_spreads_match_cholesky_reference(self, spread, bound):
        # over these four draws the largest |Pi - Pi_ref| was 3.54e-12 at
        # 1e+-4 and 2.36e-10 at 1e+-6 (one BLAS thread); the bounds are 4.2x
        # and 4.7x that, a margin for other BLAS builds
        for seed in range(4):
            g = log_uniform_expander(256, seed, spread)
            pi = TransferImpedance(g).column_block(0, g.n_edges)
            assert np.abs(pi - impedance_reference(g)).max() <= bound, seed

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than double here"
    )
    @pytest.mark.parametrize("spread, bound", [(1e4, 1.5e-11), (1e6, 1.1e-9)])
    def test_wide_spreads_match_longdouble_reference(self, spread, bound):
        # the same draws against a long-double factor in natural order: the
        # largest error was 3.54e-12 at 1e+-4 and 1.56e-10 at 1e+-6 (one BLAS
        # thread), and 1.50e-12 and 8.41e-11 for the natural-order double
        # factor; the bounds are 4.2x and 7.1x the first two
        for seed in range(4):
            g = log_uniform_expander(256, seed, spread)
            pi = TransferImpedance(g).column_block(0, g.n_edges)
            assert np.abs(pi - impedance_longdouble(g)).max() <= bound, seed

    def test_path_impedance_is_identity(self):
        # a path is eliminated completely, so its grounded inverse comes from
        # the round recursion alone, with nothing to cancel: the largest
        # off-diagonal |Pi - I| is 0 at n = 2000 and 4000
        for n in (2000, 4000):
            tp = TransferImpedance(path(n), mode="streaming")
            m = tp.n_edges
            for lo in range(0, m, electrical._DEFAULT_BLOCK):
                hi = min(lo + electrical._DEFAULT_BLOCK, m)
                block = tp.column_block(lo, hi)
                block[lo:hi] -= np.eye(hi - lo)
                assert np.abs(block).max() < ABS_ZERO_TOL, (n, lo)
            del tp

    def test_streaming_solves_schur_columns_once(self, monkeypatch):
        # the n_s - 1 unit columns of S_k, in blocks, at construction; no
        # pass over Pi solves
        solved = []
        original = LaplacianSystem.solve_columns

        def spy(self, B):
            solved.append(np.shape(B)[1])
            return original(self, B)

        monkeypatch.setattr(LaplacianSystem, "solve_columns", spy)
        monkeypatch.setattr(electrical, "_SOLVE_BLOCK", 7)
        g = log_uniform_expander(40, 5)
        tp = TransferImpedance(g, mode="streaming")
        assert solved == [7, 7, 3] and LaplacianSystem(g)._n_s == 18
        tp.per_edge_stats()
        result = tp.abs_spectral_norm()
        assert result.iterations > 2
        assert solved == [7, 7, 3]

    def test_connectivity_is_searched_once_and_before_y(self, monkeypatch):
        # the impedance and its system share one BFS of the graph, and a
        # disconnected graph with n - 1 edges is refused before the source
        # of Pi's rows is allocated: G (n x n) in dense mode, Y (n x m) in
        # streaming mode
        searched, allocated = [], []
        hops = graph_module._hops
        monkeypatch.setattr(graph_module, "_hops", lambda g, source: searched.append(source) or hops(g, source))
        submit = electrical._WORKER.submit

        def spy(fn, *args):
            if fn is np.empty:
                allocated.append(args)
            return submit(fn, *args)

        # G or Y is allocated on the worker thread, in its allocator arena
        monkeypatch.setattr(electrical._WORKER, "submit", spy)
        TransferImpedance(torus(4))
        assert searched == [0] and allocated == [((16, 16),)]
        TransferImpedance(torus(4), mode="streaming")
        assert searched == [0, 0] and allocated == [((16, 16),), ((16, 32),)]
        halves = [(v, v + 1, 1.0) for v in range(999)] + [(v, v + 1, 1.0) for v in range(1000, 1999)]
        g = build_graph(halves + [(0, 1, 2.0)])
        assert g.n_edges == g.n_vertices - 1
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraphError):
                TransferImpedance(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated == [((16, 16),), ((16, 32),)]
        assert peak < 0.1 * 8 * g.n_vertices * g.n_edges


class _Stop(Exception):
    pass


def _reachable(obj) -> list:
    """Every object an ohmgraph object holds through its attributes, lists,
    tuples and dicts, with the base of every array view."""
    seen, stack, out = set(), [obj], []
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        out.append(x)
        if isinstance(x, np.ndarray):
            if x.base is not None:
                stack.append(x.base)
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif type(x).__module__.startswith("ohmgraph"):
            stack.extend(vars(x).values())
    return out


class TestPiReader:
    """Pi read once from the n x n grounded inverse, by the callers that
    make one pass: the routing bound, quadratic_form_abs and the tracked
    elimination's Pi_0."""

    GRAPHS = TestImpedanceOracle.GRAPHS

    @pytest.fixture(autouse=True)
    def _blocks_of_seven(self, monkeypatch):
        # 7 divides neither n nor m of any graph below
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 7)
        monkeypatch.setattr(electrical, "_SOLVE_BLOCK", 7)

    @pytest.mark.parametrize("g", GRAPHS, ids=["torus6", "hypercube4", "weighted_expander40"])
    def test_matches_the_dense_impedance(self, g):
        m = g.n_edges
        reader, tp = electrical._PiReader(g), TransferImpedance(g, mode="dense")
        v = np.linspace(0.0, 2.0, m)
        want = tp.abs_matvec(v)
        assert np.abs(reader.abs_apply(v) - want).max() <= 1e-12 * np.abs(want).max()
        colsums = tp.per_edge_stats()[0]
        assert np.abs(reader.abs_apply(np.ones(m)) - colsums).max() <= 1e-12 * colsums.max()
        pi = tp.column_block(0, m)
        assert np.abs(reader.fill(np.empty((m, m))) - pi).max() <= 1e-12 * np.abs(pi).max()

    def test_two_runs_give_equal_bits(self):
        g = log_uniform_expander(40, 5)
        first, second = electrical._PiReader(g), electrical._PiReader(g)
        v = np.linspace(0.0, 2.0, g.n_edges)
        assert np.array_equal(first.abs_apply(v), second.abs_apply(v))
        shape = (g.n_edges, g.n_edges)
        assert np.array_equal(first.fill(np.empty(shape)), second.fill(np.empty(shape)))

    @pytest.mark.parametrize("caller", ["route", "quadratic_form_abs", "tracked_elimination"])
    def test_callers_hold_no_n_by_m_array(self, caller, monkeypatch):
        built, peaks = [], []
        original = TransferImpedance.__init__

        def spy(self, graph, *args, **kwargs):
            built.append(graph)
            original(self, graph, *args, **kwargs)

        def stop(*args):
            # the tracked run first takes Pi_0's row values once Pi_0 is
            # built and G freed, before L and D exist
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise _Stop

        monkeypatch.setattr(TransferImpedance, "__init__", spy)
        monkeypatch.setattr(localization, "_abs_rows", stop)
        g = torus(16)
        n, m = g.n_vertices, g.n_edges
        tracemalloc.start()
        try:
            if caller == "route":
                route_demands(g, [Demand(0, 100, 1.0)])
            elif caller == "quadratic_form_abs":
                quadratic_form_abs(g, np.ones(m))
            else:
                with pytest.raises(_Stop):
                    run_elimination(g, np.ones(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if peaks:  # Pi_0 itself is m x m by design
            peak = peaks[0] - 8 * m * m
        assert built == []
        assert peak < 8 * n * m

    def test_connectivity_is_searched_once_and_before_g(self, monkeypatch):
        # as for the impedance's Y: one BFS, and a disconnected graph is
        # refused before G is allocated on the worker thread
        searched, allocated = [], []
        hops = graph_module._hops
        monkeypatch.setattr(graph_module, "_hops", lambda g, source: searched.append(source) or hops(g, source))
        submit = electrical._WORKER.submit

        def spy(fn, *args):
            if fn is np.empty:
                allocated.append(args)
            return submit(fn, *args)

        monkeypatch.setattr(electrical._WORKER, "submit", spy)
        electrical._PiReader(torus(4))
        assert searched == [0] and allocated == [((16, 16),)]
        halves = [(v, v + 1, 1.0) for v in range(999)] + [(v, v + 1, 1.0) for v in range(1000, 1999)]
        g = build_graph(halves + [(0, 1, 2.0)])
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraphError):
                quadratic_form_abs(g, np.ones(g.n_edges))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated == [((16, 16),)]
        assert peak < 0.1 * 8 * g.n_vertices**2

    @pytest.mark.parametrize("g", GRAPHS, ids=["torus6", "hypercube4", "weighted_expander40"])
    def test_quadratic_form_is_the_dense_impedances(self, g):
        # a dense impedance reads Pi from the same grounded inverse, block by
        # block, so the one-pass form and its pass agree to the bit
        w = np.linspace(0.5, 2.0, g.n_edges)
        assert quadratic_form_abs(g, w) == float(w @ TransferImpedance(g, mode="dense").abs_matvec(w))

    @pytest.mark.parametrize("g", GRAPHS, ids=["torus6", "hypercube4", "weighted_expander40"])
    def test_dense_columns_and_diagonal_match_streaming(self, g):
        m = g.n_edges
        dense, streaming = TransferImpedance(g, mode="dense"), TransferImpedance(g, mode="streaming")
        for lo in range(0, m, 7):
            hi = min(lo + 7, m)
            assert np.abs(dense.column_block(lo, hi) - streaming.column_block(lo, hi)).max() <= 1e-12
        diag = dense.per_edge_stats()[2]
        assert np.abs(diag - streaming.per_edge_stats()[2]).max() <= 1e-12
        assert np.array_equal(diag, np.diag(dense.column_block(0, m)))

    @pytest.mark.parametrize("mode", ["dense", "streaming"])
    def test_dense_mode_holds_g_and_streaming_mode_y(self, mode):
        # dense mode keeps G (n x n) and the cache; streaming mode keeps Y
        g = torus(16)
        n, m = g.n_vertices, g.n_edges
        tracemalloc.start()
        try:
            tp = TransferImpedance(g, mode=mode)
            tp.per_edge_stats()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = _reachable(tp)
        shapes = {a.shape for a in held if isinstance(a, np.ndarray)}
        assert not any(isinstance(x, LaplacianSystem) for x in held)
        assert ((n, m) in shapes) == (mode == "streaming") and ((n, n) in shapes) == (mode == "dense")
        if mode == "dense":
            # beyond the cache, the peak was 1.06 x 8nm bytes with Y beside
            # it and 0.59 x 8nm with G (one BLAS thread, blocks of seven)
            cache = sum(block.nbytes for block in tp._abs_cache)
            assert peak - cache < 0.8 * 8 * n * m

    @pytest.mark.parametrize("n", [1, 3])
    def test_edgeless_graph_has_no_edges(self, n):
        with pytest.raises(ValueError, match="graph has no edges"):
            quadratic_form_abs(build_graph([], n_vertices=n), np.ones(0))


class TestUpperTriangleApply:
    # block size 7 divides no m below, so every pass ends on a partial block
    GRAPHS = TestImpedanceOracle.GRAPHS
    IDS = ["torus6", "hypercube4", "weighted_expander40"]

    @pytest.mark.parametrize("mode", ["dense", "streaming"])
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_matches_full_abs_matrix(self, g, mode, monkeypatch, rng):
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 7)
        m = g.n_edges
        tp = TransferImpedance(g, mode=mode)
        full = electrical._abs_zeroed(tp.column_block(0, m))
        sqrt_c = np.sqrt(g.conductances)
        colsums, l1, diag = tp.per_edge_stats()
        assert np.abs(colsums - full.sum(axis=0)).max() <= 1e-12
        assert np.abs(l1 - (full @ sqrt_c) / sqrt_c).max() <= 1e-12
        assert np.abs(diag - np.diag(tp.column_block(0, m))).max() <= 1e-12
        for _ in range(3):
            v = rng.uniform(0, 1, size=m)
            assert np.abs(tp.abs_matvec(v) - full @ v).max() <= 1e-12

    @pytest.mark.parametrize("mode", ["dense", "streaming"])
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_applied_matrix_is_bitwise_symmetric(self, g, mode, monkeypatch):
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 7)
        tp = TransferImpedance(g, mode=mode)
        applied = np.column_stack([tp.abs_matvec(e) for e in np.eye(g.n_edges)])
        assert np.array_equal(applied, applied.T)

    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_dense_cache_gives_the_streaming_bits(self, g, monkeypatch, rng):
        # dense mode reads Pi from the grounded inverse: its first pass and
        # the passes over its cache give the one-pass reader's bits, and
        # streaming mode, which reads Y, agrees to roundoff
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 7)
        dense = TransferImpedance(g, mode="dense")
        streaming = TransferImpedance(g, mode="streaming")
        v = rng.uniform(0, 1, size=g.n_edges)
        want = electrical._PiReader(g).abs_apply(v)
        for _ in range(2):
            assert np.array_equal(dense.abs_matvec(v), want)
        got = streaming.abs_matvec(v)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for a, b in zip(dense.per_edge_stats(), streaming.per_edge_stats()):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("mode", ["dense", "streaming"])
    def test_dense_cache_is_filled_by_the_first_pass(self, mode, monkeypatch):
        # construction computes no block; dense mode keeps each block the
        # stats pass computes, streaming computes every block on every pass
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 7)
        computed = []

        def spy(rows):
            return lambda self, lo, hi, start=0: computed.append(lo) or rows(self, lo, hi, start)

        for source in (electrical._PiReader, electrical._EdgePotentials):
            monkeypatch.setattr(source, "rows", spy(source.rows))
        g = log_uniform_expander(40, 5)
        starts = list(range(0, g.n_edges, 7))
        assert len(starts) == 12
        tp = TransferImpedance(g, mode=mode)
        assert computed == []
        tp.per_edge_stats()
        assert sorted(computed) == starts
        computed.clear()
        passes = tp.abs_spectral_norm().iterations - 1  # the first product is the stats pass's
        assert passes > 1
        assert sorted(computed) == (sorted(starts * passes) if mode == "streaming" else [])


class TestTwoHalves:
    """Every pass over Pi, the dense cache and the Y conversion run their
    blocks in two fixed halves, the even-indexed ones on a worker thread."""

    def test_worker_half_overflow_raises_in_the_caller(self):
        ran = {}

        def scale(part):
            ran[tuple(part)] = threading.current_thread()
            return np.asarray(part) * 10.0

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                electrical._both(scale, [1e308, 1.0])
        assert ran[(1e308,)] is not threading.main_thread()
        assert ran[(1.0,)] is threading.main_thread()

    def test_concurrent_first_passes_give_the_streaming_bits(self, monkeypatch):
        # threads racing through the first pass of one dense instance may
        # each compute a block, but they store equal blocks: every thread
        # gets the bits of a fresh dense instance
        monkeypatch.setattr(electrical, "_DEFAULT_BLOCK", 7)
        g = log_uniform_expander(40, 5)
        v = np.linspace(0.0, 1.0, g.n_edges)
        expected = TransferImpedance(g, mode="dense").abs_matvec(v)
        dense = TransferImpedance(g, mode="dense")
        results = []
        threads = [threading.Thread(target=lambda: results.append(dense.abs_matvec(v))) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4 and all(np.array_equal(r, expected) for r in results)
        assert all(block is not None for block in dense._abs_cache)

    def test_public_calls_stay_on_the_main_thread(self, monkeypatch, capsys):
        # wraps every public function and method of the ohmgraph modules, and
        # the Cholesky calls, as the benchmark's tracer does: its one span
        # stack holds only while they all run on one thread
        calls = []

        def watch(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread() is threading.main_thread()))
                return fn(*args, **kwargs)

            return wrapper

        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "ohmgraph"]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(value) and not issubclass(value, BaseException):
                    for key, meth in list(vars(value).items()):
                        if inspect.isfunction(meth) and (key == "__init__" or not key.startswith("_")):
                            monkeypatch.setattr(value, key, watch(f"{value.__name__}.{key}", meth))
                elif inspect.isfunction(value):
                    wrapper = watch(attr, value)
                    for other in modules:
                        for key, bound in list(vars(other).items()):
                            if bound is value:
                                monkeypatch.setattr(other, key, wrapper)
        for attr in ("cho_factor", "cho_solve"):
            monkeypatch.setattr(scipy.linalg, attr, watch(attr, getattr(scipy.linalg, attr)))
        # a private helper the worker runs, to show the worker did run
        monkeypatch.setattr(electrical, "_abs_zeroed", watch("_abs_zeroed", electrical._abs_zeroed))

        spec = "expander:128:4:3"  # m = 256: four blocks of 64, two per half
        for argv in (["analyze", "--mode", "dense"], ["analyze", "--mode", "streaming"], ["route", "--demands", "0 5 1"]):
            assert cli.cli_main([argv[0], "--graph", spec, *argv[1:]]) == 0, capsys.readouterr().err
        capsys.readouterr()
        public = {name for name, _ in calls if name != "_abs_zeroed"}
        assert {"cli_main", "TransferImpedance.__init__", "TransferImpedance.abs_matvec", "cho_factor", "cho_solve"} <= public
        off_main = {name for name, on_main in calls if not on_main}
        assert off_main == {"_abs_zeroed"}

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
    def test_a_forked_child_runs_passes(self):
        # the parent's worker thread has run, and is not in the child
        g = torus(8)  # m = 128: two blocks, one per half
        expected = TransferImpedance(g, mode="streaming").per_edge_stats()[0]
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=lambda: queue.put(TransferImpedance(g, mode="streaming").per_edge_stats()[0]))
        child.start()
        try:
            got = queue.get(timeout=30)
            child.join(timeout=30)
            assert not child.is_alive()
        finally:
            child.kill()
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mode", ["dense", "streaming"])
    def test_halves_are_deterministic_and_match_a_serial_loop(self, mode):
        g = log_uniform_expander(200, 7)  # m = 400: seven blocks of 64
        first, second = TransferImpedance(g, mode=mode), TransferImpedance(g, mode=mode)
        for a, b in zip(first.per_edge_stats(), second.per_edge_stats()):
            assert np.array_equal(a, b)
        assert first.abs_spectral_norm() == second.abs_spectral_norm()

        m, block = g.n_edges, electrical._DEFAULT_BLOCK

        def serial(v):
            out = np.zeros(v.shape)
            for lo in range(0, m, block):
                hi = min(lo + block, m)
                upper = first._upper_block(lo)
                out[lo:hi] += upper @ v[lo:]
                out[hi:] += upper[:, hi - lo :].T @ v[lo:hi]
            return out

        sqrt_c = np.sqrt(g.conductances)
        colsums, l1, _ = first.per_edge_stats()
        want = serial(np.column_stack([np.ones(m), sqrt_c]))
        assert np.abs(colsums - want[:, 0]).max() <= 1e-14 * np.abs(want[:, 0]).max()
        assert np.abs(l1 - want[:, 1] / sqrt_c).max() <= 1e-14 * np.abs(want[:, 1] / sqrt_c).max()
        norm = first.abs_spectral_norm().value
        want_norm = spectral_norm_nonneg(serial, m, first_product=want[:, 0] / np.sqrt(m)).value
        assert abs(norm - want_norm) <= 1e-14 * want_norm


class TestAbsNorms:
    def test_single_edge_both_one(self):
        tp = TransferImpedance(single_edge())
        assert tp.abs_spectral_norm().value == pytest.approx(1.0, abs=1e-10)
        assert tp.per_edge_stats()[0].max() == pytest.approx(1.0, abs=1e-12)

    def test_triangle_colsum(self):
        tp = TransferImpedance(triangle())
        assert np.allclose(tp.per_edge_stats()[0], 4 / 3, atol=1e-12)

    def test_expander_colsum_logarithmic(self):
        g = random_regular_expander(256, 4, seed=0)
        tp = TransferImpedance(g)
        assert tp.per_edge_stats()[0].max() <= 4 * np.log(256)

    def test_stats_pass_is_the_first_lanczos_product(self, monkeypatch):
        calls = []
        original = TransferImpedance.abs_matvec

        def spy(self, v):
            calls.append(1)
            return original(self, v)

        monkeypatch.setattr(TransferImpedance, "abs_matvec", spy)
        g = torus(8)
        tp = TransferImpedance(g, mode="streaming")
        tp.per_edge_stats()
        result = tp.abs_spectral_norm()
        assert calls == []
        expected = float(np.linalg.eigvalsh(np.abs(tp.column_block(0, g.n_edges))).max())
        assert abs(result.value - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("mode", ["dense", "streaming"])
    def test_per_edge_stats_run_once(self, mode, monkeypatch):
        g = log_uniform_expander(40, 5)
        tp = TransferImpedance(g, mode=mode)
        blocks = []
        original = TransferImpedance._abs_apply

        def spy(self, v):
            blocks.append(1)
            return original(self, v)

        monkeypatch.setattr(TransferImpedance, "_abs_apply", spy)
        first = tp.per_edge_stats()
        result = tp.abs_spectral_norm()
        # one stats pass, then one pass per product after the first
        assert len(blocks) == result.iterations
        assert all(a is b for a, b in zip(first, tp.per_edge_stats()))
        assert len(blocks) == result.iterations
        for a in first:
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestQuadraticFormAbs:
    def test_single_edge(self):
        assert quadratic_form_abs(single_edge(), [1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_all_ones(self):
        assert quadratic_form_abs(triangle(), np.ones(3)) == pytest.approx(4.0, abs=1e-10)

    def test_matches_delta_sum_on_torus8(self):
        g = torus(8)
        total = quadratic_form_abs(g, np.ones(g.n_edges))
        delta, _, _ = TransferImpedance(g).per_edge_stats()
        assert abs(total - delta.sum()) <= 1e-6 * total

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            quadratic_form_abs(triangle(), [1.0, -1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            quadratic_form_abs(triangle(), [bad, 1.0, 1.0])

    def test_bounded_by_spectral_norm(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng)
            tp = TransferImpedance(g)
            norm = tp.abs_spectral_norm().value
            for _ in range(5):
                w = rng.uniform(0, 2, size=g.n_edges)
                assert w @ tp.abs_matvec(w) <= norm * (w @ w) + 1e-8
