import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ohmgraph.electrical as electrical
import ohmgraph.localization as localization
from ohmgraph import (
    DENSE_EDGE_CAP,
    DisconnectedGraphError,
    LocalizationError,
    SchurResidueError,
    build_graph,
    complete,
    degree_profile,
    laplacian_matrix,
    parallel_paths,
    path,
    quadratic_form_abs,
    random_regular_expander,
    run_elimination,
    harmonic_bound_check,
    schur_complement,
    torus,
)
from ohmgraph.localization import (
    _abs_rows,
    _degree_vector,
    _downdate_rows,
    _eliminate_pivot,
    _harmonic_sum,
    _pair_value,
)
from ohmgraph.schur import _block_prob_map
from ohmgraph.solver import LaplacianSystem

from conftest import (
    bad_ids,
    eliminate_one,
    laplacian_pinv,
    log_uniform_expander,
    random_connected_graph,
    single_edge,
    triangle,
)


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

    @pytest.mark.parametrize("bad", bad_ids(4), ids=repr)
    def test_bad_terminal_ids_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^terminals must"):
            degree_profile(path(4), [0, 3, bad], np.ones(3))


# bools, strings and bytes that float() would read, and complex numbers; a
# bool among numbers, which numpy promotes to a number array
NOT_REAL_WEIGHTS = [[True, True, True], ["1", "2", "3"], [b"1", b"2", b"3"], [1 + 0j, 1.0, 1.0],
                    [True, 2.0, 1.0], [1.0, 1.0, np.False_], (1, False, 2)]


@pytest.mark.parametrize("w", NOT_REAL_WEIGHTS, ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda w: run_elimination(triangle(), w),
        lambda w: degree_profile(triangle(), [0, 2], w),
        lambda w: harmonic_bound_check(triangle(), w),
        lambda w: quadratic_form_abs(triangle(), w),
    ],
    ids=["run_elimination", "degree_profile", "harmonic_bound_check", "quadratic_form_abs"],
)
def test_non_real_weights_rejected(call, w):
    with pytest.raises(ValueError, match=r"^weights must be real numbers"):
        call(w)


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

    def test_exact_ties_give_distinct_pivots(self):
        # every degree of torus(6) is exactly 4 at the start; an eliminated id
        # holds an infinite degree, so it is never picked again or left over
        g = torus(6)
        trace = run_elimination(g, np.ones(g.n_edges), compute_vi=False)
        pivots = [s.pivot for s in trace.steps]
        assert pivots[0] == 0
        assert len(set(pivots)) == len(pivots) == g.n_vertices - 2
        assert not set(trace.terminal_pair) & set(pivots)

    @pytest.mark.parametrize("compute_vi", [True, False])
    def test_edgeless_graph_is_disconnected(self, compute_vi):
        # refused by the connectivity check before the impedance is built
        with pytest.raises(DisconnectedGraphError):
            run_elimination(build_graph([], n_vertices=3), np.ones(0), compute_vi=compute_vi)

    def test_skip_vi_records_only_degrees(self):
        trace = run_elimination(torus(3), np.ones(18), compute_vi=False)
        assert len(trace.steps) == 7
        assert all(s.v_i is None and s.slack is None for s in trace.steps)
        assert all(s.degree_value >= 0 for s in trace.steps)
        assert trace.v_initial is None and trace.v_terminal is None

    @pytest.mark.parametrize("g, w", [(path(3), [1e160, 1e160]), (path(2), [1e200])], ids=["path3", "path2"])
    def test_overflowing_weight_norm_rejected_up_front(self, g, w):
        # ||w||^2 = inf would otherwise surface, after an overflow warning, as
        # a rank-one or V_T mismatch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"\|\|w\|\|\^2 overflows"):
                run_elimination(g, w)

    def test_pivot_cut_off_by_underflow_is_numerical_failure(self):
        # eliminating 0 couples 1 to 2 through 1e-300 / sqrt(1e300), which
        # underflows to 0 and leaves 1 with no neighbour
        g = build_graph([(1, 0, 1e-300), (0, 2, 1e300), (2, 3, 1.0)])
        with pytest.raises(SchurResidueError, match="pivot 1 has no neighbour"):
            run_elimination(g, np.ones(3), compute_vi=False)

    @pytest.mark.parametrize("diagonal", [0.0, -1.0])
    def test_non_positive_pivot_diagonal_is_numerical_failure(self, monkeypatch, diagonal):
        # every degree of torus(3) starts at 4, so vertex 0 is the first pivot
        def bad_laplacian(g):
            L = laplacian_matrix(g)
            L[0, 0] = diagonal
            return L

        monkeypatch.setattr(localization, "laplacian_matrix", bad_laplacian)
        with pytest.raises(SchurResidueError, match=r"pivot diagonal .* is not positive"):
            run_elimination(torus(3), np.ones(18), compute_vi=False)

    @pytest.mark.parametrize("instance", ["torus4", "weighted", "expander32"])
    def test_each_step_records_its_own_v_i_and_slack(self, instance, rng):
        if instance == "torus4":
            g, w = torus(4), np.ones(32)
        elif instance == "weighted":
            g = random_connected_graph(rng, weighted=True)
            w = rng.uniform(0, 2, size=g.n_edges)
        else:
            g = random_regular_expander(32, 4, seed=0)
            w = np.linspace(0.0, 2.0, g.n_edges)
        trace = run_elimination(g, w)
        assert trace.steps[0].v_i == trace.v_initial
        after = [s.v_i for s in trace.steps[1:]] + [trace.v_terminal]
        for i, (step, v_next) in enumerate(zip(trace.steps, after)):
            assert step.index == i
            assert step.slack == step.v_i - v_next - step.degree_value

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


def _drops(g, pm):
    return pm[:, g.tails] - pm[:, g.heads]


def _abs_quadratic(A, pinv, w):
    """w^T |A^T L^+ A| w, given the pseudoinverse ``L^+``."""
    return float(w @ _abs_rows(A.T @ (pinv @ A), w))


def _from_scratch(g, verts, w):
    """Probability map, degrees and V on the surviving set, rebuilt from the
    base graph by block elimination and a fresh solve; V zeroes entries of
    the surviving impedance ``sqrt(C) A^T L_S^+ A sqrt(C)``."""
    pm, schur = _block_prob_map(g, verts)
    degrees = _degree_vector(_drops(g, pm), w * np.sqrt(g.conductances), g.conductances)
    v = _abs_quadratic(_drops(g, pm) * np.sqrt(g.conductances), laplacian_pinv(schur), w)
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
            drops = _drops(g, _block_prob_map(g, verts)[0])
            degrees = _degree_vector(drops, w * np.sqrt(g.conductances), g.conductances)
            lowest = degrees.min()
            tied = verts[degrees <= lowest + 1e-12 * abs(lowest)]
            assert step.pivot == tied.min()
            verts = verts[verts != step.pivot]

    def test_rank_one_identity_is_scale_free(self):
        # degrees scale with ||w||^2; an absolute 1e-8 raised at 1e3 and above
        g = random_regular_expander(64, 4, seed=3)
        traces = [run_elimination(g, scale * np.ones(g.n_edges)) for scale in (2.0**-20, 1.0, 1e3, 2.0**10, 1e6)]
        pivots = [[s.pivot for s in t.steps] for t in traces]
        assert all(p == pivots[1] for p in pivots)
        assert all(t.terminal_pair == traces[1].terminal_pair for t in traces)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_rank_one_identity_rejects_relative_mismatch(self, monkeypatch, scale):
        def perturbed(drops, z, c):
            return _degree_vector(drops, z, c) * (1 + 1e-6)

        monkeypatch.setattr(localization, "_degree_vector", perturbed)
        g = random_regular_expander(64, 4, seed=3)
        with pytest.raises(LocalizationError, match="rank-one correction"):
            run_elimination(g, scale * np.ones(g.n_edges), compute_vi=False)

    def test_tracked_vi_refused_above_edge_cap(self, monkeypatch):
        monkeypatch.setattr(localization, "DENSE_EDGE_CAP", 17)
        with pytest.raises(ValueError, match="--skip-vi"):
            run_elimination(torus(3), np.ones(18))
        assert len(run_elimination(torus(3), np.ones(18), compute_vi=False).steps) == 7

    def test_oracle_rejects_probability_map_drift(self, monkeypatch):
        # the reference drops are f / R from the pair solve, which scaling the
        # potentials leaves unchanged; shifting one non-terminal potential
        # changes f on its edges and not R
        trace = run_elimination(torus(3), np.ones(18), compute_vi=False)
        inner = next(x for x in range(9) if x not in trace.terminal_pair)
        solve = LaplacianSystem.solve

        def shifted(self, b):
            phi = solve(self, b)
            phi[inner] += 1e-6
            return phi

        monkeypatch.setattr(LaplacianSystem, "solve", shifted)
        with pytest.raises(LocalizationError, match="from-scratch drops"):
            run_elimination(torus(3), np.ones(18), compute_vi=False)

    def test_oracle_rejects_incremental_drop_drift(self, monkeypatch):
        # corrupt one entry of a surviving row of D at the last step, after
        # the last rank-one check, so only the terminal-pair oracle can see it
        calls = []

        def corrupted(L, rows, k):
            nb, updated = _eliminate_pivot(L, rows, k)
            calls.append(k)
            if len(calls) == 7:
                rows[nb[0], 0] += 1e-6
            return nb, updated

        monkeypatch.setattr(localization, "_eliminate_pivot", corrupted)
        with pytest.raises(LocalizationError, match="from-scratch drops"):
            run_elimination(torus(3), np.ones(18), compute_vi=False)
        assert len(calls) == 7

    def test_downdate_rows_matches_outer_product(self, monkeypatch, rng):
        # a block of 3 rows makes the 8-row support take three write-backs;
        # rows outside supp(a) must stay as they were
        monkeypatch.setattr(localization, "_VI_BLOCK", 3)
        m = 11
        X = rng.standard_normal((m, m))
        P = X + X.T
        a = rng.standard_normal(m)
        a[[1, 4, 9]] = 0.0
        d, w = 2.5, rng.uniform(0.0, 2.0, m)
        row_vals = _abs_rows(P, w)
        ref = P.copy()
        ref -= np.outer(a, a) / d
        before = P.copy()

        _downdate_rows(P, row_vals, w, a, d)
        assert np.abs(P - ref).max() <= 1e-15 * np.abs(ref).max()
        assert np.array_equal(P[[1, 4, 9]], before[[1, 4, 9]])
        assert np.abs(row_vals - _abs_rows(ref, w)).max() <= 1e-14 * np.abs(row_vals).max()

    def test_oracle_rejects_vi_drift(self, monkeypatch):
        monkeypatch.setattr(localization, "_pair_value", lambda *a: 1.0001 * _pair_value(*a))
        with pytest.raises(LocalizationError, match="from-scratch value"):
            run_elimination(torus(3), np.ones(18))

    def test_tracked_run_solves_schur_columns_and_the_pair(self, monkeypatch):
        # Pi_0 comes from the impedance's own grounded inverse, which solves
        # the n_s - 1 unit columns of S_k, not from a solve of the m
        # incidence columns
        widths = []
        solve_columns = LaplacianSystem.solve_columns

        def spy(self, B):
            widths.append(np.asarray(B).shape[1])
            return solve_columns(self, B)

        monkeypatch.setattr(LaplacianSystem, "solve_columns", spy)
        monkeypatch.setattr(electrical, "_SOLVE_BLOCK", 8)
        g = torus(5)
        run_elimination(g, np.ones(g.n_edges))
        assert LaplacianSystem(g)._n_s == 11
        assert widths == [8, 2, 1]  # 10 columns for Pi_0, then the pair solve
        widths.clear()
        run_elimination(g, np.ones(g.n_edges), compute_vi=False)
        assert widths == [1]


def _scaled(g, factor):
    return build_graph([(t, h, c * factor) for t, h, c in g.edge_list()], n_vertices=g.n_vertices)


@st.composite
def _weighted_multigraphs(draw):
    """A connected multigraph on n <= 10 vertices (a random spanning tree
    plus extra edges, parallel ones allowed) with log-uniform conductances
    in [1e-3, 1e3], and edge weights in [0, 2]."""
    n = draw(st.integers(2, 10))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    ends += draw(st.lists(pair, max_size=2 * n))
    exponents = draw(st.lists(st.floats(-3, 3), min_size=len(ends), max_size=len(ends)))
    g = build_graph([(t, h, 10.0**x) for (t, h), x in zip(ends, exponents)], n_vertices=n)
    w = np.array(draw(st.lists(st.floats(0, 2), min_size=len(ends), max_size=len(ends))))
    return g, w


class TestConductanceScaling:
    @pytest.mark.parametrize("factor", [1e11, 1e12, 1e300])
    def test_harmonic_bound_check_at_large_scales(self, factor):
        g = _scaled(torus(6), factor)
        ones = np.ones(g.n_edges)
        assert harmonic_bound_check(g, ones).ok
        # at 1e12 a scale bug once read the trace's V_0 as 0.0
        v0, direct = run_elimination(g, ones).v_initial, quadratic_form_abs(g, ones)
        assert abs(v0 - direct) <= 1e-6 * abs(direct)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instance=_weighted_multigraphs(), k=st.integers(-250, 250))
    # |q| . z is about 1e-162 here: squared before the division by the drop
    # energy it underflows, and the pivot moves
    @example(instance=(build_graph([(0, 1, 1.0), (0, 2, 1.0)]), np.array([0.0, 4.26e-155])), k=-15)
    def test_elimination_is_scale_free(self, instance, k):
        g, w = instance
        scaled = _scaled(g, 10.0**k)
        base = run_elimination(g, w)
        trace = run_elimination(scaled, w)
        assert [s.pivot for s in trace.steps] == [s.pivot for s in base.steps]
        assert trace.terminal_pair == base.terminal_pair
        v0 = base.v_initial
        got = [s.v_i for s in trace.steps] + [trace.v_terminal]
        want = [s.v_i for s in base.steps] + [base.v_terminal]
        assert np.abs(np.subtract(got, want)).max() <= 1e-9 * v0
        assert abs(trace.v_initial - quadratic_form_abs(scaled, w)) <= 1e-10 * v0


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
            rep = harmonic_bound_check(g, w)
            ratios.append(rep.lhs / (g.n_edges * np.log(n) ** 2))
            assert rep.ok
        assert all(r <= 8.0 for r in ratios)
        assert ratios[-1] <= 2.0 * ratios[0]

    def test_factors_once_and_eliminates_nothing(self, monkeypatch):
        g = torus(6)
        factored = []
        original = scipy.linalg.cho_factor

        def spy(a, *args, **kwargs):
            factored.append(a.shape)
            return original(a, *args, **kwargs)

        def no_elimination(*args, **kwargs):
            raise AssertionError("harmonic_bound_check ran an elimination")

        monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
        monkeypatch.setattr(localization, "run_elimination", no_elimination)
        assert harmonic_bound_check(g, np.ones(g.n_edges)).ok
        # one factor, of the grounded Schur block left by the rounds: 14 of
        # torus:6's 36 vertices, less the ground
        assert factored == [(13, 13)]

    def test_report_is_the_quadratic_form_and_the_harmonic_sum(self):
        g = log_uniform_expander(40, 3)
        w = np.linspace(0.0, 2.0, g.n_edges)
        rep = harmonic_bound_check(g, w)
        assert rep.lhs == quadratic_form_abs(g, w)
        assert rep.harmonic_bound == float(w @ w) * (1.0 + _harmonic_sum(g.n_vertices))

    @pytest.mark.parametrize("excess, ok", [(100.0, False), (1 + 1e-10, True)])
    def test_slack_is_relative(self, monkeypatch, excess, ok):
        # with w = 1e-8 both sides are about 1e-13, far below an absolute 1e-9
        g = torus(4)
        w = np.full(g.n_edges, 1e-8)
        bound = float(w @ w) * (1.0 + _harmonic_sum(g.n_vertices))
        monkeypatch.setattr(localization, "quadratic_form_abs", lambda graph, w: excess * bound)
        rep = harmonic_bound_check(g, w)
        assert rep.harmonic_bound == bound and rep.ok is ok

    def test_accepts_more_edges_than_the_dense_cap(self):
        # a 10-cycle with every edge 410 times: no m x m array is held
        g = build_graph([(i, (i + 1) % 10, 1.0) for i in range(10)] * 410)
        assert g.n_edges == 4100 > DENSE_EDGE_CAP
        rep = harmonic_bound_check(g, np.ones(g.n_edges))
        assert rep.ok and rep.lhs == quadratic_form_abs(g, np.ones(g.n_edges))
