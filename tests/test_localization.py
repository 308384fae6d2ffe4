import numpy as np
import pytest

import ohmgraph.localization as localization
from ohmgraph import (
    LocalizationError,
    build_graph,
    complete,
    degree_profile,
    eliminate_one,
    parallel_paths,
    path,
    quadratic_form_abs,
    random_regular_expander,
    run_elimination,
    harmonic_bound_check,
    schur_complement,
    torus,
)
from ohmgraph.localization import _abs_quadratic, _degree_vector
from ohmgraph.schur import _block_prob_map

from conftest import laplacian_pinv, random_connected_graph, single_edge, triangle


def star(k):
    return build_graph([(0, i, 1.0) for i in range(1, k + 1)])


class TestDegree:
    def test_star_center_full_set_is_plain_degree(self):
        g = star(5)
        w = np.ones(g.n_edges)
        degrees = degree_profile(g, range(6), w).degrees
        assert degrees[0] == pytest.approx(5.0, abs=1e-10)
        assert degrees[1] == pytest.approx(1.0, abs=1e-10)

    def test_path4_two_terminals(self):
        assert degree_profile(path(4), [0, 3], np.ones(3)).degrees[0] == pytest.approx(3.0, abs=1e-10)

    def test_zero_weights_give_zero(self):
        assert degree_profile(path(4), [0, 3], np.zeros(3)).degrees[0] == 0.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            degree_profile(path(4), [0, 3], [-1.0, 0.0, 0.0])


class TestDegreeProfile:
    def test_two_terminal_bound_is_12(self):
        prof = degree_profile(path(4), [0, 3], np.ones(3))
        assert prof.bound == pytest.approx(12.0 * 3)
        assert prof.total <= prof.bound

    def test_torus4_full_set(self):
        g = torus(4)
        prof = degree_profile(g, range(16), np.ones(32))
        assert np.allclose(prof.degrees, 4.0, atol=1e-10)
        assert prof.total == pytest.approx(64.0, abs=1e-8)
        assert prof.bound == pytest.approx(960.0)

    def test_bound_and_pigeonhole_on_random_instances(self, rng):
        for _ in range(20):
            weighted = bool(rng.integers(2))
            g = random_connected_graph(rng, weighted=weighted)
            n = g.n_vertices
            size = int(rng.integers(2, n + 1))
            S = np.sort(rng.choice(n, size=size, replace=False))
            w = np.ones(g.n_edges) if rng.integers(2) else rng.uniform(0, 2, size=g.n_edges)
            prof = degree_profile(g, S, w)
            assert prof.total <= prof.bound + 1e-9
            assert prof.degrees.min() <= prof.bound / size + 1e-9


class TestRunElimination:
    def test_single_edge_empty_trace(self):
        trace = run_elimination(single_edge(), np.ones(1))
        assert trace.steps == []
        assert trace.v_initial == trace.v_terminal
        assert trace.v_terminal <= trace.w_norm_sq + 1e-8

    def test_path3_single_step(self):
        trace = run_elimination(path(3), np.ones(2))
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step.pivot == 0  # tie between the two leaves breaks to smallest id
        assert step.degree_value == pytest.approx(1.0, abs=1e-10)
        assert trace.v_initial == pytest.approx(2.0, abs=1e-10)
        assert trace.v_terminal == pytest.approx(1.0, abs=1e-10)
        assert step.slack <= 1e-8

    def test_torus4_full_trace(self):
        g = torus(4)
        w = np.ones(g.n_edges)
        trace = run_elimination(g, w)
        assert len(trace.steps) == 14
        for step in trace.steps:
            assert step.slack <= 1e-8
            assert abs(step.rank_one_value - step.degree_value) <= 1e-8
            assert step.v_i >= 0.0
        assert trace.v_terminal <= trace.w_norm_sq + 1e-8
        direct = quadratic_form_abs(g, w)
        assert abs(trace.v_initial - direct) <= 1e-6 * direct

    def test_complete_graph_pivots_break_ties_by_id(self):
        trace = run_elimination(complete(5), np.ones(10))
        assert [s.pivot for s in trace.steps] == [0, 1, 2]

    def test_skip_vi_records_only_degrees(self):
        trace = run_elimination(torus(3), np.ones(18), compute_vi=False)
        assert len(trace.steps) == 7
        assert all(s.v_i is None and s.slack is None for s in trace.steps)
        assert all(s.degree_value >= 0 for s in trace.steps)
        assert trace.v_initial is None and trace.v_terminal is None

    def test_zero_weights_run_cleanly(self):
        trace = run_elimination(triangle(), np.zeros(3))
        assert trace.v_initial == 0.0
        assert all(s.degree_value == 0.0 for s in trace.steps)

    def test_weighted_graph_weighted_w(self, rng):
        g = random_connected_graph(rng, weighted=True)
        w = rng.uniform(0, 2, size=g.n_edges)
        trace = run_elimination(g, w)
        for step in trace.steps:
            assert step.slack <= 1e-8
        assert trace.v_terminal <= trace.w_norm_sq + 1e-8
        direct = quadratic_form_abs(g, w)
        assert abs(trace.v_initial - direct) <= 1e-6 * max(direct, 1e-12)


def _from_scratch(g, verts, w):
    """Probability map, degrees and V on the surviving set, rebuilt from the
    base graph by block elimination and a fresh solve."""
    pm, schur = _block_prob_map(g, verts)
    degrees = _degree_vector(g, pm, w)[0]
    z = w * np.sqrt(g.conductances)
    v = _abs_quadratic(pm[:, g.tails] - pm[:, g.heads], laplacian_pinv(schur), z)
    return pm, degrees, v


class TestIncrementalEngine:
    @pytest.mark.parametrize("instance", ["torus6", "weighted", "expander32"])
    def test_every_step_matches_from_scratch(self, instance, rng):
        if instance == "torus6":
            g = torus(6)
            w = np.ones(g.n_edges)
        elif instance == "weighted":
            g = random_connected_graph(rng, weighted=True)
            w = rng.uniform(0, 2, size=g.n_edges)
        else:
            g = random_regular_expander(32, 4, seed=0)
            w = np.ones(g.n_edges)
        trace = run_elimination(g, w)
        system = schur_complement(g, range(g.n_vertices))
        verts = np.arange(g.n_vertices)
        for step in trace.steps:
            pm, degrees, v = _from_scratch(g, verts, w)
            ref = degrees[np.searchsorted(verts, step.pivot)]
            assert abs(step.degree_value - ref) <= 1e-10 * abs(ref)
            assert abs(step.v_i - v) <= 1e-9 * v
            # eliminate_one runs the same pivot update as run_elimination
            assert np.abs(system.prob_map - pm).max() <= 1e-9
            assert np.abs(system.prob_map.sum(axis=0) - 1.0).max() <= 1e-9
            system = eliminate_one(system, step.pivot)
            verts = verts[verts != step.pivot]
        assert list(trace.terminal_pair) == verts.tolist()
        _, _, v = _from_scratch(g, verts, w)
        assert abs(trace.v_terminal - v) <= 1e-9 * v

    def test_tied_pivots_take_smallest_id(self):
        # torus(10) has degrees tied up to roundoff, first at step 62
        g = torus(10)
        w = np.ones(g.n_edges)
        trace = run_elimination(g, w, compute_vi=False)
        verts = np.arange(g.n_vertices)
        for step in trace.steps:
            degrees = _degree_vector(g, _block_prob_map(g, verts)[0], w)[0]
            lowest = degrees.min()
            tied = verts[degrees <= lowest + 1e-12 * abs(lowest)]
            assert step.pivot == tied.min()
            verts = verts[verts != step.pivot]

    def test_tracked_vi_refused_above_edge_cap(self, monkeypatch):
        monkeypatch.setattr(localization, "DENSE_EDGE_CAP", 17)
        with pytest.raises(ValueError, match="--skip-vi"):
            run_elimination(torus(3), np.ones(18))
        assert len(run_elimination(torus(3), np.ones(18), compute_vi=False).steps) == 7

    def test_oracle_rejects_probability_map_drift(self, monkeypatch):
        def shifted(graph, S):
            pm, schur = _block_prob_map(graph, S)
            return pm + 1e-6, schur

        monkeypatch.setattr(localization, "_block_prob_map", shifted)
        with pytest.raises(LocalizationError, match="from-scratch map"):
            run_elimination(torus(3), np.ones(18), compute_vi=False)

    def test_oracle_rejects_vi_drift(self, monkeypatch):
        monkeypatch.setattr(localization, "_abs_quadratic", lambda *a: 1.0001 * _abs_quadratic(*a))
        with pytest.raises(LocalizationError, match="from-scratch value"):
            run_elimination(torus(3), np.ones(18))


class TestHarmonicBoundCheck:
    def test_single_edge(self):
        rep = harmonic_bound_check(single_edge(), np.ones(1))
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.ok

    def test_triangle(self):
        rep = harmonic_bound_check(triangle(), np.ones(3))
        assert rep.lhs == pytest.approx(4.0, abs=1e-8)
        assert rep.harmonic_bound == pytest.approx(21.0)
        assert rep.ok

    def test_parallel_paths(self):
        g = parallel_paths(3)
        rep = harmonic_bound_check(g, np.ones(g.n_edges))
        assert rep.ok

    def test_scaling_sweep_bounded(self):
        ratios = []
        for n in (16, 64, 256):
            g = random_regular_expander(n, 4, seed=9)
            w = np.ones(g.n_edges)
            rep = harmonic_bound_check(g, w, verify_trace=False)
            ratios.append(rep.lhs / (g.n_edges * np.log(n) ** 2))
            assert rep.ok
        assert all(r <= 8.0 for r in ratios)
        assert ratios[-1] <= 2.0 * ratios[0]
