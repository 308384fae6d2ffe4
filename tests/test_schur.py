import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmgraph import (
    DisconnectedGraphError,
    SchurResidueError,
    SchurSystem,
    build_graph,
    check_norm_energy,
    check_schur_conductance,
    check_sum_potentials,
    complete,
    effective_resistance,
    eliminate_one,
    laplacian_matrix,
    path,
    random_regular_expander,
    schur_complement,
    torus,
)

from ohmgraph.schur import _check_schur, _eliminate_pivot

from conftest import (
    bad_ids,
    block_prob_map_reference,
    identify_prob_map,
    laplacian_pinv,
    multigraphs,
    random_connected_graph,
    triangle,
    walk_prob_map,
)

# The library's one route to hitting probabilities and the two float oracles
# it is checked against, each on a sorted terminal array.
ROUTES = {
    "block": lambda g, S: schur_complement(g, S).prob_map,
    "identify": identify_prob_map,
    "walk_oracle": walk_prob_map,
}
METHODS = tuple(ROUTES)


def gamblers_ruin_oracle(n):
    """Absorbing-chain oracle for path(n) with terminals {0, n-1}:
    p_0(k) = (n-1-k)/(n-1)."""
    k = np.arange(n)
    p0 = (n - 1 - k) / (n - 1)
    return np.vstack([p0, 1 - p0])


@st.composite
def _terminal_sets(draw):
    """A multigraph from ``multigraphs`` with a sorted terminal set: two
    vertices, all of them, a set without vertex 0 (on three vertices or
    more), or any set of two or more."""
    g = draw(multigraphs())
    n = g.n_vertices
    kind = draw(st.sampled_from(["pair", "all", "without_0", "any"]))
    if kind == "all":
        return g, np.arange(n)
    pool = list(range(1, n)) if kind == "without_0" and n > 2 else list(range(n))
    size = 2 if kind == "pair" else draw(st.integers(2, len(pool)))
    return g, np.sort(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True)))


class TestSchurComplement:
    def test_path3_series_rule(self):
        sys = schur_complement(path(3), [0, 2])
        assert np.allclose(sys.laplacian, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_triangle_two_terminals(self):
        # direct unit edge in parallel with the series 1/2 route
        sys = schur_complement(triangle(), [0, 1])
        assert -sys.laplacian[0, 1] == pytest.approx(1.5, abs=1e-12)

    def test_full_set_is_identity_elimination(self):
        g = torus(3)
        sys = schur_complement(g, range(9))
        assert np.abs(sys.laplacian - laplacian_matrix(g)).max() < 1e-12
        assert np.allclose(sys.prob_map, np.eye(9), atol=1e-12)

    def test_quadratic_form_preserved_on_terminals(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, weighted=True)
            n = g.n_vertices
            size = int(rng.integers(2, n + 1))
            S = np.sort(rng.choice(n, size=size, replace=False))
            sys = schur_complement(g, S)
            x, y = rng.choice(size, size=2, replace=False)
            b_local = np.zeros(size)
            b_local[x], b_local[y] = 1.0, -1.0
            quad_schur = float(b_local @ laplacian_pinv(sys.laplacian) @ b_local)
            quad_base = effective_resistance(g, int(S[x]), int(S[y]))
            assert abs(quad_schur - quad_base) <= 1e-9 * max(1.0, abs(quad_base))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(instance=_terminal_sets())
    def test_matches_dense_block_reference(self, instance):
        # against the dense block formula, factored in natural order: over
        # 2000 random draws the two differed by up to 1.4e-10 on the map and
        # 2.2e-10 of max|L| on the Laplacian; over 1000 draws each was up to
        # 4.6e-11 and 1.5e-10 from a long-double solve
        g, S = instance
        sys = schur_complement(g, S)
        pm, L = block_prob_map_reference(g, S)
        assert np.array_equal(sys.vertices, S)
        assert np.abs(sys.prob_map - pm).max() <= 1e-9
        assert np.abs(sys.laplacian - L).max() <= 1e-9 * np.abs(L).max()

    def test_no_n_by_n_array_is_built(self):
        g = torus(32)  # n = 1024: one n x n array is 8 MiB
        tracemalloc.start()
        try:
            schur_complement(g, [0, 500])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n_vertices**2

    def test_too_small_terminal_set(self):
        with pytest.raises(ValueError):
            schur_complement(path(4), [2])

    def test_disconnected_rejected(self):
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            schur_complement(g, [0, 2])

    @pytest.mark.parametrize(
        "terminals",
        [[0.7, 4.2, 8], ["0", "4", "8"]]
        + [[0, 4, bad] for bad in bad_ids(9)]
        + [np.array([0.0, 4.0, 8.0]), np.array([True, False, True]), np.array([0, 4, 9]), np.array([-1, 4])]
        + [5, np.int64(5), None],
        ids=repr,
    )
    def test_bad_terminal_ids_rejected(self, terminals):
        # the first two read as terminals 0, 4 and 8, a bool as vertex 1; the
        # last three are not iterable
        with pytest.raises(ValueError, match=r"^terminals must"):
            schur_complement(torus(3), terminals)


class TestCheckSchur:
    def test_first_positive_off_diagonal_rejected(self):
        L = np.array(
            [[1.0, -1.5, 0.5, 0.0], [-1.5, 2.0, -0.5, 0.0], [0.5, -0.5, 0.5, -0.5], [0.0, 0.0, -0.5, 0.5]]
        )
        with pytest.raises(SchurResidueError, match=r"positive off-diagonal 5\.000e-01 at \(0, 2\)"):
            _check_schur(L)

    def test_row_sum_residue_rejected(self):
        with pytest.raises(SchurResidueError, match="self-loop residue"):
            _check_schur(np.array([[1.0, -1.0], [-1.0, 1.0 + 1e-6]]))

    def test_nan_matrix_rejected(self):
        with pytest.raises(SchurResidueError, match="self-loop residue"):
            _check_schur(np.array([[1.0, -1.0], [-1.0, np.nan]]))
        with pytest.raises(SchurResidueError, match="self-loop residue"):
            _check_schur(np.full((3, 3), np.nan))

    def test_tolerances_scale_with_the_matrix(self):
        # scale 4e9: residue bound 4.0, positive off-diagonal bound 4e-3
        big = laplacian_matrix(torus(4)) * 1e9
        M = big.copy()
        M[0, 0] += 1.0
        _check_schur(M)
        M[0, 0] += 9.0
        with pytest.raises(SchurResidueError, match="self-loop residue"):
            _check_schur(M)
        M = big.copy()
        M[0, 2] = M[2, 0] = 1e-3  # vertices 0 and 2 are not adjacent
        _check_schur(M)
        M[0, 2] = M[2, 0] = 1e-2
        with pytest.raises(SchurResidueError, match=r"positive off-diagonal 1\.000e-02 at \(0, 2\)"):
            _check_schur(M)

    def test_scaled_conductances_scale_the_laplacian_only(self):
        g = torus(8)
        S = np.arange(0, 64, 3)
        ref = schur_complement(g, S)
        for k in (-13, 0, 6, 9):
            scaled = build_graph([(t, h, c * 10.0**k) for t, h, c in g.edge_list()], n_vertices=g.n_vertices)
            sys = schur_complement(scaled, S)
            assert np.abs(sys.prob_map - ref.prob_map).max() <= 1e-12
            gap = np.abs(sys.laplacian / 10.0**k - ref.laplacian).max()
            assert gap <= 1e-12 * np.abs(ref.laplacian).max()


class TestEliminateOne:
    def test_path4_series_step(self):
        sys = schur_complement(path(4), range(4))
        sys2 = eliminate_one(sys, 1)
        # local ids for vertices {0, 2, 3}: series 0-2 of 1/2, then the 2-3 edge
        expected = [[0.5, -0.5, 0.0], [-0.5, 1.5, -1.0], [0.0, -1.0, 1.0]]
        assert np.abs(sys2.laplacian - expected).max() <= 1e-12

    def test_complete4_clique_fill(self):
        # spec's worked example states 1 + 1/4 per pair, but the block-formula
        # oracle (and the star-clique rule c_iv*c_jv/deg_v = 1/3) gives 4/3
        sys = eliminate_one(schur_complement(complete(4), range(4)), 3)
        off = sys.laplacian[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -4 / 3, atol=1e-12)
        direct = schur_complement(complete(4), [0, 1, 2])
        assert np.abs(sys.laplacian - direct.laplacian).max() < 1e-10

    def test_commutativity(self):
        g = path(4)
        sys = schur_complement(g, range(4))
        via_steps = eliminate_one(eliminate_one(sys, 1), 2)
        direct = schur_complement(g, [0, 3])
        assert np.abs(via_steps.laplacian - direct.laplacian).max() < 1e-10

    def test_order_independence(self, rng):
        g = random_regular_expander(16, 4, seed=4)
        targets = [3, 7, 11]
        final = None
        for _ in range(3):
            order = rng.permutation(np.setdiff1d(np.arange(16), targets))
            sys = schur_complement(g, range(16))
            for v in order:
                sys = eliminate_one(sys, int(v))
            if final is None:
                final = sys.laplacian
            else:
                assert np.abs(sys.laplacian - final).max() < 1e-9

    def test_pivot_leaves_zero_row_and_column(self):
        # 5 and 6 are torus neighbours, so 6's step must skip eliminated 5
        g = torus(4)
        L = laplacian_matrix(g)
        pm = np.eye(g.n_vertices)
        for k in (5, 6, 0):
            nb, updated = _eliminate_pivot(L, pm, k)
            assert not L[k].any() and not L[:, k].any()
            assert np.array_equal(L, L.T)
            assert k not in nb and 5 not in nb
            assert np.array_equal(updated, pm[nb])
        assert np.abs(L.sum(axis=1)).max() <= 1e-12
        survivors = np.setdiff1d(np.arange(g.n_vertices), [5, 6, 0])
        assert np.abs(pm[survivors].sum(axis=0) - 1.0).max() <= 1e-12

    def test_pivot_matches_outer_product_reference(self, rng):
        # a weighted multigraph with parallel edges in both orientations; each
        # step starts both versions from the same state, and the caller's own
        # L and rows must hold the result
        pairs = [(0, 1), (1, 0), (0, 1), (1, 2), (2, 0), (2, 3), (3, 2), (3, 4), (4, 5), (5, 4), (5, 6),
                 (6, 7), (7, 6), (6, 7), (7, 0), (1, 5), (4, 2)]
        g = build_graph([(t, h, float(c)) for (t, h), c in zip(pairs, rng.uniform(0.1, 10.0, len(pairs)))])
        L = laplacian_matrix(g)
        rows = rng.standard_normal((g.n_vertices, g.n_edges))
        for k in (3, 0, 6, 1, 7, 4):
            L_ref, rows_ref = L.copy(), rows.copy()
            d = L_ref[k, k]
            nb_ref = np.flatnonzero(L_ref[:, k])
            nb_ref = nb_ref[nb_ref != k]
            c = L_ref[nb_ref, k]
            L_ref[k] = L_ref[:, k] = 0.0
            s = c / np.sqrt(d)
            L_ref[np.ix_(nb_ref, nb_ref)] -= np.outer(s, s)
            rows_ref[nb_ref] += np.outer(-c / d, rows_ref[k])

            nb, updated = _eliminate_pivot(L, rows, k)
            assert np.array_equal(nb, nb_ref)
            assert np.array_equal(L, L.T)
            assert not L[k].any() and not L[:, k].any()
            assert np.abs(L - L_ref).max() <= 1e-15 * np.abs(L_ref).max()
            assert np.abs(rows - rows_ref).max() <= 1e-15 * np.abs(rows_ref).max()
            assert np.array_equal(updated, rows[nb])

    @pytest.mark.parametrize("diagonal", [0.0, -2.0])
    def test_pivot_refuses_non_positive_diagonal_before_any_write(self, diagonal):
        L = laplacian_matrix(path(3))
        L[1, 1] = diagonal
        rows = np.eye(3)
        L_before = L.copy()
        with pytest.raises(SchurResidueError, match=r"pivot diagonal .* is not positive"):
            _eliminate_pivot(L, rows, 1)
        assert np.array_equal(L, L_before)
        assert np.array_equal(rows, np.eye(3))

    def test_terminal_state_rejected(self):
        sys = schur_complement(path(3), [0, 2])
        with pytest.raises(ValueError, match="2 terminals"):
            eliminate_one(sys, 0)

    def test_unknown_vertex_rejected(self):
        sys = schur_complement(path(4), [0, 1, 3])
        with pytest.raises(ValueError, match="not in the terminal set"):
            eliminate_one(sys, 2)

    @pytest.mark.parametrize("bad", bad_ids(4), ids=repr)
    @pytest.mark.parametrize(
        "entry",
        [
            eliminate_one,
            lambda s, v: check_norm_energy(s, v, 0.5),
            check_schur_conductance,
            SchurSystem.local_index,
        ],
        ids=["eliminate_one", "check_norm_energy", "check_schur_conductance", "local_index"],
    )
    def test_bad_vertex_ids_rejected(self, entry, bad):
        # a plain lookup finds terminal 1 for 1.0 and for True
        with pytest.raises(ValueError, match=r"^v must"):
            entry(schur_complement(path(4), [0, 1, 3]), bad)


class TestHittingProbabilities:
    @pytest.mark.parametrize("method", METHODS)
    def test_path4_gamblers_ruin(self, method):
        pm = ROUTES[method](path(4), np.array([0, 3]))
        assert np.allclose(pm, gamblers_ruin_oracle(4), atol=1e-10)

    @pytest.mark.parametrize("method", METHODS)
    def test_terminal_columns_are_indicators(self, method):
        pm = ROUTES[method](torus(3), np.array([1, 4, 7]))
        assert np.allclose(pm[:, [1, 4, 7]], np.eye(3), atol=1e-12)

    def test_triangle_symmetry(self):
        for route in ROUTES.values():
            pm = route(triangle(), np.array([0, 1]))
            assert pm[0, 2] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weighted_path_hits_by_resistance(self, k):
        # conductances 1, 2, 4, 8 on path 0-1-2-3-4: between the terminals a
        # walk from x reaches k first with probability R(0, x) / R(0, k);
        # beyond k it must pass k
        g = build_graph([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (3, 4, 8.0)])
        r0 = np.concatenate([[0.0], np.cumsum(1.0 / g.conductances)])
        far = np.minimum(r0 / r0[k], 1.0)
        pm = schur_complement(g, [0, k]).prob_map
        assert np.abs(pm - np.vstack([1.0 - far, far])).max() <= 1e-12

    def test_methods_agree_and_rows_distribute(self, rng):
        for _ in range(8):
            weighted = bool(rng.integers(2))
            g = random_connected_graph(rng, weighted=weighted)
            n = g.n_vertices
            size = int(rng.integers(2, min(n, 10) + 1))
            S = np.sort(rng.choice(n, size=size, replace=False))
            maps = [ROUTES[m](g, S) for m in METHODS]
            for other in maps[1:]:
                assert np.abs(maps[0] - other).max() <= 1e-8
            col_sums = maps[0].sum(axis=0)
            assert np.abs(col_sums - 1.0).max() <= 1e-9
            assert maps[0].min() >= -1e-9 and maps[0].max() <= 1 + 1e-9


def _drops(sys, v):
    """|p(x) - p(y)| of terminal ``v``'s probability row across each base edge."""
    row = sys.prob_map[sys.local_index(v)]
    return np.abs(row[sys.base.tails] - row[sys.base.heads])


class TestEdgeStats:
    def test_path4_drops(self):
        sys = schur_complement(path(4), [0, 3])
        q = _drops(sys, 0)
        assert np.allclose(q, [1 / 3, 1 / 3, 1 / 3], atol=1e-10)

    def test_edge_between_other_terminals_has_zero_drop(self):
        sys = schur_complement(path(4), [0, 2, 3])
        q = _drops(sys, 0)
        assert q[2] == pytest.approx(0.0, abs=1e-12)  # edge (2, 3)


class TestSumPotentials:
    def test_path4_between_interior(self):
        sys = schur_complement(path(4), [0, 3])
        # r_0 = max(2/3, 1/3, 1/2), r_3 = max(1/3, 2/3, 1/2)
        assert check_sum_potentials(sys, 1) == pytest.approx(4 / 3, abs=1e-10)

    def test_two_terminal_bound(self):
        sys = schur_complement(triangle(), [0, 1])
        for e in range(3):
            assert check_sum_potentials(sys, e) <= 3.0

    def test_torus_sweep(self, rng):
        g = torus(4)
        S = np.sort(rng.choice(16, size=5, replace=False))
        sys = schur_complement(g, S)
        for e in range(g.n_edges):
            assert check_sum_potentials(sys, e) <= 3.0 + 1e-12

    @pytest.mark.parametrize("bad", bad_ids(3), ids=repr)
    def test_bad_edge_index_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^edge_index must"):
            check_sum_potentials(schur_complement(triangle(), [0, 1]), bad)


class TestNormEnergy:
    def test_path4_worked_example(self):
        lhs, rhs = check_norm_energy(schur_complement(path(4), [0, 3]), 0, 0.5)
        assert lhs == pytest.approx(1 / 9, abs=1e-10)
        assert rhs == pytest.approx(1 / 6, abs=1e-10)

    def test_threshold_near_one_covers_everything(self):
        lhs, rhs = check_norm_energy(schur_complement(path(4), [0, 3]), 0, 0.999)
        assert lhs <= rhs

    def test_invalid_threshold(self):
        sys = schur_complement(path(4), [0, 3])
        for p in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                check_norm_energy(sys, 0, p)

    def test_torus_sweep(self, rng):
        g = torus(4)
        for _ in range(50):
            size = int(rng.integers(2, 17))
            S = np.sort(rng.choice(16, size=size, replace=False))
            v = int(S[rng.integers(size)])
            p = float(rng.uniform(0.05, 0.95))
            lhs, rhs = check_norm_energy(schur_complement(g, S), v, p)
            assert lhs <= rhs + 1e-12


class TestSchurConductance:
    def test_full_set_gives_weighted_degree(self):
        g = build_graph([(0, 1, 2.0), (1, 2, 3.0), (2, 0, 5.0)])
        lhs, rhs = check_schur_conductance(schur_complement(g, range(3)), 1)
        assert lhs == pytest.approx(5.0, abs=1e-12)
        assert rhs == pytest.approx(5.0, abs=1e-12)

    def test_path4_series(self):
        lhs, rhs = check_schur_conductance(schur_complement(path(4), [0, 3]), 0)
        assert lhs == pytest.approx(1 / 3, abs=1e-10)
        assert rhs == pytest.approx(1 / 3, abs=1e-10)

    def test_expander_sweep(self, rng):
        g = random_regular_expander(32, 4, seed=6)
        S = np.sort(rng.choice(32, size=8, replace=False))
        sys = schur_complement(g, S)
        for v in S:
            lhs, rhs = check_schur_conductance(sys, int(v))
            assert abs(lhs - rhs) <= 1e-8 * rhs


class TestDropEnergyPrecision:
    @pytest.mark.parametrize("check", [lambda s: check_norm_energy(s, 0, 0.5), lambda s: check_schur_conductance(s, 0)])
    def test_energy_below_smallest_normal_raises(self, check):
        tiny = build_graph([(0, 1, 5e-324), (1, 2, 5e-324), (2, 0, 5e-324)])
        with pytest.raises(FloatingPointError, match="smallest normal double"):
            check(schur_complement(tiny, range(3)))
        system = schur_complement(triangle(), range(3))
        nan_map = system.prob_map.copy()
        nan_map[0, 1] = np.nan
        with pytest.raises(FloatingPointError, match="nan is below"):
            check(SchurSystem(base=system.base, vertices=system.vertices, laplacian=system.laplacian, prob_map=nan_map))
