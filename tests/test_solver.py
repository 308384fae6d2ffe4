import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmgraph import (
    ConvergenceError,
    DisconnectedGraphError,
    LaplacianSystem,
    TransferImpedance,
    build_graph,
    complete,
    hypercube,
    laplacian_matrix,
    parse_family_spec,
    parallel_paths,
    path,
    spectral_norm_nonneg,
    torus,
)
from ohmgraph.electrical import _abs_zeroed
from ohmgraph import solver
from ohmgraph.solver import KRYLOV_CAP

from conftest import (
    bad_ids,
    indicator_drop,
    log_uniform_expander,
    multigraphs,
    oracle_pinv_apply,
    random_connected_graph,
    single_edge,
    triangle,
)

SOLVE_GRAPHS = [triangle(), torus(3), parallel_paths(3), complete(5)]


def _star(n, centre):
    return build_graph([(centre, v, 1.0 + v) for v in range(n) if v != centre])


def _random_multigraph(rng, n):
    """A connected weighted multigraph on ``n`` vertices: a random spanning
    tree plus extra edges, many repeated in the same and the other
    orientation."""
    edges = [(int(rng.integers(v)), v) for v in range(1, n)]
    edges += [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(n)]
    edges += [(h, t) for t, h in edges if rng.random() < 0.3] + [e for e in edges if rng.random() < 0.2]
    perm = rng.permutation(n)  # so vertex 0 is not always the tree's root
    return build_graph([(int(perm[t]), int(perm[h]), float(rng.uniform(0.1, 10.0))) for t, h in edges])


# small graphs whose rounds eliminate every vertex (path:2, stars centred at
# the ground and elsewhere, complete:6 one vertex a round, parallel edges both
# ways), one with no round (complete:8) and one with rounds and a dense block
SCHUR_EDGE_GRAPHS = [path(2), _star(7, 0), _star(7, 3), complete(6),
                     build_graph([(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 1, 0.5), (2, 3, 1.0), (3, 0, 4.0),
                                  (1, 3, 1.0), (3, 1, 2.0)]),
                     complete(8), torus(6)]
SCHUR_EDGE_IDS = ["path2", "star_at_ground", "star_at_3", "complete6", "parallel_both_ways", "complete8", "torus6"]

# |Pi| of these spans vertex-transitive, weighted, reducible (Pi = I on a path)
# and random operators
SPECTRAL_GRAPHS = [
    torus(6),
    hypercube(4),
    log_uniform_expander(40, 5),
    path(50),
    random_connected_graph(np.random.default_rng(7), weighted=True),
]
SPECTRAL_IDS = ["torus6", "hypercube4", "weighted_expander40", "path50", "random_weighted"]


def _dense_abs_top(tp):
    """Top eigenvalue of the dense |Pi|, zeroed as the passes zero it."""
    return float(np.linalg.eigvalsh(_abs_zeroed(tp.column_block(0, tp.n_edges))).max())


class TestPinvApply:
    def test_single_edge(self):
        sys = LaplacianSystem(single_edge())
        x = sys.solve([1.0, -1.0])
        assert np.allclose(x, [0.5, -0.5], atol=1e-12)

    def test_triangle_effective_resistance(self):
        g = triangle()
        sys = LaplacianSystem(g)
        b = indicator_drop(3, 0, 1)
        x = sys.solve(b)
        assert abs(b @ x - 2 / 3) < 1e-12
        # brute-force pseudoinverse oracle
        assert np.allclose(x, oracle_pinv_apply(g, b), atol=1e-10)

    def test_all_ones_maps_to_zero(self):
        sys = LaplacianSystem(torus(3))
        assert np.abs(sys.solve(np.ones(9))).max() < 1e-12

    @pytest.mark.parametrize("g", SOLVE_GRAPHS)
    def test_residual_and_centering_on_random_inputs(self, g, rng):
        sys = LaplacianSystem(g)
        L = laplacian_matrix(g)
        n = g.n_vertices
        for _ in range(100):
            b = rng.normal(size=n)
            z = b - b.mean()
            x = sys.solve(b)
            assert np.abs(L @ x - z).max() <= 1e-9 * max(np.abs(z).max(), 1e-30)
            assert abs(x.sum()) / n <= 1e-10

    @pytest.mark.parametrize("g", SOLVE_GRAPHS)
    def test_self_adjoint(self, g, rng):
        sys = LaplacianSystem(g)
        for _ in range(20):
            a = rng.normal(size=g.n_vertices)
            b = rng.normal(size=g.n_vertices)
            assert abs(a @ sys.solve(b) - sys.solve(a) @ b) < 1e-10

    def test_matches_oracle_on_random_weighted_graphs(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, weighted=True)
            sys = LaplacianSystem(g)
            b = rng.normal(size=g.n_vertices)
            b -= b.mean()
            assert np.allclose(sys.solve(b), oracle_pinv_apply(g, b), atol=1e-8)

    def test_solve_columns_matches_loop(self, rng):
        g = torus(3)
        sys = LaplacianSystem(g)
        B = rng.normal(size=(9, 4))
        B -= B.mean(axis=0)  # in L's range, so X is L^+ B up to one constant per column
        X = sys.solve_columns(B)
        for j in range(4):
            assert np.allclose(X[:, j] - X[:, j].mean(), sys.solve(B[:, j]), atol=1e-13)

    @pytest.mark.parametrize("g", SOLVE_GRAPHS)
    def test_solve_columns_is_grounded(self, g, rng):
        # the Dirichlet solve: X is 0 at vertex 0, the ground, L X = B on
        # every other row, B's ground row is not read, and X keeps the
        # Fortran layout LAPACK solved in
        sys = LaplacianSystem(g)
        n = g.n_vertices
        B = rng.normal(size=(n, 5))
        X = sys.solve_columns(B)
        assert X.shape == (n, 5) and X.flags.f_contiguous
        assert np.all(X[0] == 0.0)
        assert np.abs((laplacian_matrix(g) @ X - B)[1:]).max() <= 1e-9 * np.abs(B).max()
        B[0] = rng.normal(size=5)
        assert np.array_equal(sys.solve_columns(B), X)

    @pytest.mark.parametrize(
        "ground", [[bad] for bad in bad_ids(9)] + [[], np.array([], dtype=np.int64), np.array([0.0])], ids=repr
    )
    def test_bad_ground_refused(self, ground):
        with pytest.raises(ValueError, match=r"^ground must"):
            LaplacianSystem(torus(3), ground)

    def test_vertex_set_ground(self, rng):
        # duplicate ids merge; X is 0 on the whole ground and L X = B on the
        # other rows; a pseudoinverse solve needs a single ground vertex
        g = torus(4)
        sys = LaplacianSystem(g, [9, 3, 9])
        assert sys._order[:2].tolist() == [3, 9] and 3 not in sys._order[2:] and 9 not in sys._order[2:]
        B = rng.normal(size=(16, 3))
        X = sys.solve_columns(B)
        assert np.all(X[[3, 9]] == 0.0)
        off = np.setdiff1d(np.arange(16), [3, 9])
        assert np.abs((laplacian_matrix(g) @ X - B)[off]).max() <= 1e-9 * np.abs(B).max()
        with pytest.raises(ValueError, match="one ground vertex, not 2"):
            sys.solve(np.zeros(16))

    def test_disconnected_graph_rejected(self):
        g = build_graph([(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
        with pytest.raises(DisconnectedGraphError):
            LaplacianSystem(g)

    def test_factor_reuses_the_laplacian_buffer(self):
        g = torus(16)  # n = 256: one n x n array is 512 KiB
        tracemalloc.start()
        try:
            LaplacianSystem(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * g.n_vertices**2

    def test_eliminated_set_is_greedy_and_independent(self, rng):
        graphs = [torus(6), hypercube(4), log_uniform_expander(40, 5), path(12), _star(7, 3), complete(6)]
        graphs += [_random_multigraph(rng, n) for n in (2, 3, 5, 8, 13, 30, 60)]
        for g in graphs:
            sys = LaplacianSystem(g)
            _check_rounds(g, sys)
            sizes = [len(chosen) for chosen in _round_sets(sys)]
            remaining = g.n_vertices - np.cumsum([0] + sizes[:-1])  # before each round, the ground included
            assert all(k >= solver._ROUND_FLOOR * r for k, r in zip(sizes, remaining)), sizes

    def test_schur_block_is_the_complement_of_the_set(self, monkeypatch):
        factored = _spy_factors(monkeypatch)
        # one factor, of S_k: torus:6 keeps 14 of 36 vertices after 2 rounds,
        # hypercube:4 is eliminated completely, and so is complete:6, one
        # vertex a round, since one of six is above the round floor
        cases = [(torus(6), [(13, 13)]), (hypercube(4), []), (log_uniform_expander(40, 5), [(17, 17)]),
                 (complete(6), []), (path(2), []), (_star(7, 0), [])]
        for g, shapes in cases:
            factored.clear()
            sys = LaplacianSystem(g)
            assert factored == shapes, g.n_vertices
            assert [(s, s) for s in [sys._n_s - 1] if s] == shapes

    @pytest.mark.parametrize("g", SCHUR_EDGE_GRAPHS, ids=SCHUR_EDGE_IDS)
    def test_small_and_dense_schur_blocks_match_oracle(self, g, rng):
        B = rng.normal(size=(g.n_vertices, 4))
        B -= B.mean(axis=0)
        X = LaplacianSystem(g).solve_columns(B)
        assert X.flags.f_contiguous and np.all(X[0] == 0.0)
        assert np.abs((X - X.mean(axis=0)) - oracle_pinv_apply(g, B)).max() <= 1e-13

    def test_random_multigraphs_match_oracle(self, rng):
        for n in (2, 3, 6, 11, 24):
            g = _random_multigraph(rng, n)
            B = rng.normal(size=(n, 3))
            B -= B.mean(axis=0)
            X = LaplacianSystem(g).solve_columns(B)
            assert np.abs((X - X.mean(axis=0)) - oracle_pinv_apply(g, B)).max() <= 1e-10, n

    def test_zero_round_pivot_is_refused_before_any_factor(self, monkeypatch):
        # round 1's pivots are weighted degrees, so a pivot that cancels to 0
        # is a Schur diagonal of a later round; the path is eliminated
        # completely, so no factor is ever attempted
        factored = _spy_factors(monkeypatch)
        rounds = []
        greedy = solver._greedy_set

        def counting(*args):
            rounds.append(1)
            return greedy(*args)

        monkeypatch.setattr(solver, "_greedy_set", counting)
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1e-200), (3, 4, 1e200), (4, 5, 1e-200), (5, 6, 1.0),
                         (6, 7, 1.0), (7, 8, 1.0)])
        with pytest.raises(np.linalg.LinAlgError, match="grounded block .* conductances span 1e-200 to 1e"):
            LaplacianSystem(g)
        assert len(rounds) >= 2 and factored == []

    def test_unresolvable_spread_names_the_conductances(self):
        # 1e200 + 1e-200 rounds to 1e200: vertex 1 is eliminated first, and
        # the pivot it leaves on vertex 2, deg - c^2 / d, is exactly 0
        g = build_graph([(0, 1, 1e-200), (1, 2, 1e200), (2, 3, 1e-200), (3, 4, 1.0)])
        with pytest.raises(np.linalg.LinAlgError, match="conductances span 1e-200 to 1e"):
            LaplacianSystem(g)

    def test_overflowing_degrees_rejected(self):
        # each weighted degree overflows to inf, so the factor is not finite
        g = build_graph([(0, 1, 1e308), (1, 2, 1e308), (2, 3, 1e308), (3, 0, 1e308), (0, 2, 1e308)])
        with pytest.raises(FloatingPointError, match="not finite"):
            LaplacianSystem(g)


def _spy_factors(monkeypatch):
    """The shapes passed to ``scipy.linalg.cho_factor`` from now on."""
    factored = []
    original = scipy.linalg.cho_factor

    def spy(a, *args, **kwargs):
        factored.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
    return factored


def _round_sets(sys):
    """Each round's eliminated vertices, first round first."""
    return [sys._order[start:end] for start, end, *_ in sys._rounds]


def _check_rounds(g, sys):
    """Each round's set is independent in that round's graph, the graph of
    the Schur complement onto the vertices not yet eliminated, ground
    included, and is greedy: every vertex of that graph left out but the
    ground has a neighbour in the set with fewer neighbours, or as many and
    a smaller id, or has more clique terms, d(d - 1)/2 for d neighbours,
    than that graph has edges."""
    n = g.n_vertices
    assert np.array_equal(np.sort(sys._order), np.arange(n)) and sys._order[0] == 0
    adj = np.zeros((n, n), dtype=bool)
    adj[g.tails, g.heads] = adj[g.heads, g.tails] = True
    alive = np.ones(n, dtype=bool)
    for chosen in _round_sets(sys):
        assert 0 not in chosen and alive[chosen].all()
        assert not adj[np.ix_(chosen, chosen)].any()
        degree = adj.sum(axis=1)
        in_i = np.zeros(n, dtype=bool)
        in_i[chosen] = True
        for v in np.flatnonzero(alive & ~in_i)[1:]:
            if degree[v] * (degree[v] - 1) // 2 > degree.sum() // 2:
                continue
            earlier = [i for i in np.flatnonzero(adj[v] & in_i) if (degree[i], i) < (degree[v], v)]
            assert earlier, v
        for i in chosen:  # its neighbours become a clique
            nbrs = np.flatnonzero(adj[i])
            adj[np.ix_(nbrs, nbrs)] = True
            adj[i] = adj[:, i] = False
        adj[np.diag_indices(n)] = False
        alive[chosen] = False


class TestEliminationRounds:
    @pytest.mark.parametrize("g", [path(50), _star(9, 3)], ids=["path50", "star_at_3"])
    def test_trees_are_eliminated_completely(self, g, monkeypatch, rng):
        factored = _spy_factors(monkeypatch)
        sys = LaplacianSystem(g)
        assert factored == [] and sys._n_s == 1
        B = rng.normal(size=(g.n_vertices, 3))
        B -= B.mean(axis=0)
        X = sys.solve_columns(B)
        assert np.abs((X - X.mean(axis=0)) - oracle_pinv_apply(g, B)).max() <= 1e-10

    def test_complete_graph_takes_no_round(self, monkeypatch):
        # one vertex of eight, the ground included, is under the round floor,
        # so K8 is factored whole
        factored = _spy_factors(monkeypatch)
        sys = LaplacianSystem(complete(8))
        assert sys._rounds == [] and factored == [(7, 7)]
        assert np.array_equal(sys._order, np.arange(8))

    @pytest.mark.parametrize(
        "spec, sizes",
        [
            ("torus:12", [72, 18, 9]),
            ("torus:16", [128, 32, 16]),
            ("torus:20", [200, 50, 25]),
            ("torus:32", [512, 128, 64]),
            ("expander:128:4:1", [42, 20, 11]),
        ],
    )
    def test_round_sizes(self, spec, sizes):
        assert [len(r) for r in _round_sets(LaplacianSystem(parse_family_spec(spec)))] == sizes

    def test_hub_never_builds_its_clique(self):
        # vertex 0 and a hub at the last id joined by 2000 disjoint paths of
        # three edges: the hub's 2000 neighbours would make 1999000 clique
        # terms, more than the 6000 edges, so it stays out until one is left;
        # building that clique once peaked at over 200 MB
        hub = 4001
        edges = []
        for a in range(1, hub, 2):
            edges += [(0, a, 1.0), (a, a + 1, 1.0), (a + 1, hub, 1.0)]
        g = build_graph(edges)
        tracemalloc.start()
        try:
            sys = LaplacianSystem(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert [len(r) for r in _round_sets(sys)] == [2000, 2000, 1]
        assert _round_sets(sys)[-1].tolist() == [hub]
        _check_rounds(g, sys)

    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    def test_order_reads_no_conductance(self, factor):
        for g in (log_uniform_expander(60, 2), _random_multigraph(np.random.default_rng(4), 40)):
            scaled = build_graph([(t, h, c * factor) for t, h, c in g.edge_list()], n_vertices=g.n_vertices)
            base, other = LaplacianSystem(g), LaplacianSystem(scaled)
            assert np.array_equal(base._order, other._order)
            assert [r[:2] for r in base._rounds] == [r[:2] for r in other._rounds]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(g=multigraphs())
    def test_solves_match_oracle_on_random_multigraphs(self, g):
        B = np.random.default_rng(g.n_edges).normal(size=(g.n_vertices, 3))
        B -= B.mean(axis=0)
        sys = LaplacianSystem(g)
        _check_rounds(g, sys)
        X = sys.solve_columns(B)
        assert X.flags.f_contiguous and np.all(X[0] == 0.0)
        Z = oracle_pinv_apply(g, B)
        # a 1e-3 conductance puts potentials near 1e3, so the bound scales
        assert np.abs((X - X.mean(axis=0)) - Z).max() <= 1e-10 * max(np.abs(Z).max(), 1.0)


def _inverse_error(g, block):
    """The largest error of ``grounded_inverse``, written into a strided
    view as into Y's buffer, against ``inv(L[1:, 1:])`` in elimination
    order, relative to its largest entry."""
    sys = LaplacianSystem(g)
    n = g.n_vertices
    out = np.full((n, n + 2), np.nan)[1:, 2:-1]
    assert sys.grounded_inverse(out, block) is out
    places = sys._order[1:] - 1
    ref = np.linalg.inv(laplacian_matrix(g)[1:, 1:])[np.ix_(places, places)]
    return np.abs(out - ref).max() / np.abs(ref).max()


class TestGroundedInverse:
    # the impedance oracle's graphs, trees (n_s = 1), a graph with no round
    GRAPHS = [torus(6), hypercube(4), log_uniform_expander(40, 5), path(50), _star(9, 3), complete(8)]
    IDS = ["torus6", "hypercube4", "weighted_expander40", "path50", "star_at_3", "complete8"]

    @pytest.mark.parametrize("block", [5, 128])
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_matches_dense_inverse(self, g, block):
        assert _inverse_error(g, block) <= 1e-13

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(g=multigraphs(), block=st.sampled_from([1, 3, 128]))
    def test_matches_dense_inverse_on_random_multigraphs(self, g, block):
        assert _inverse_error(g, block) <= 1e-10

    def test_overflow_raises_from_the_recursion(self):
        # a path of 200 resistances of 1e306 is grounded at one end, so G
        # reaches 1.99e308; no column is solved, since the path factors nothing
        g = path(200)
        g = build_graph([(t, h, 1e-306) for t, h, _ in g.edge_list()])
        sys = LaplacianSystem(g)
        assert sys._n_s == 1
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="grounded inverse is not finite"):
                sys.grounded_inverse(np.empty((199, 199)), 128)


class TestPowerIteration:
    def test_identity_operator(self):
        res = spectral_norm_nonneg(lambda v: v, 7)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.iterations >= 1

    def test_rank_one_averaging(self):
        m = 5
        res = spectral_norm_nonneg(lambda v: np.full(m, v.sum() / m), m)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_triangle_abs_impedance_vs_dense_eigensolver(self):
        tp = TransferImpedance(triangle(), mode="dense")
        A = np.abs(tp.column_block(0, 3))
        expected = float(np.linalg.eigvalsh(A).max())
        got = tp.abs_spectral_norm().value
        assert abs(got - expected) < 1e-8
        for g in SPECTRAL_GRAPHS:
            for mode in ("dense", "streaming"):
                tp = TransferImpedance(g, mode=mode)
                expected = float(np.linalg.eigvalsh(np.abs(tp.column_block(0, g.n_edges))).max())
                assert abs(tp.abs_spectral_norm().value - expected) <= 1e-10 * expected

    def test_non_convergence_carries_estimate(self):
        # 50 distinct eigenvalues: five Krylov steps cannot resolve the top one
        A = np.diag(np.linspace(0.99, 1.0, 50))
        with pytest.raises(ConvergenceError) as info:
            spectral_norm_nonneg(lambda v: A @ v, 50, tol=0.0, max_iter=5)
        assert info.value.iterations == 5
        assert info.value.estimate is not None

    def test_bracketed_by_column_sums(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 12))
            A = rng.uniform(0, 1, size=(m, m))
            A = (A + A.T) / 2
            res = spectral_norm_nonneg(lambda v, A=A: A @ v, m, tol=1e-12)
            colmax = A.sum(axis=0).max()
            assert res.value <= colmax + 1e-8
            assert res.value >= colmax / np.sqrt(m) - 1e-8

    @pytest.mark.parametrize("mode", ["dense", "streaming"])
    @pytest.mark.parametrize("g", SPECTRAL_GRAPHS, ids=SPECTRAL_IDS)
    def test_bracket_certifies_top_eigenvalue(self, g, mode):
        tp = TransferImpedance(g, mode=mode)
        res = tp.abs_spectral_norm()
        top = _dense_abs_top(tp)
        assert res.lower <= top * (1 + 1e-12)
        assert top <= res.upper * (1 + 1e-12)
        assert res.lower <= res.value * (1 + 1e-12) and res.value <= res.upper * (1 + 1e-12)
        colsums = tp.per_edge_stats()[0]
        assert res.lower >= colsums.min() * (1 - 1e-12) and res.upper <= colsums.max() * (1 + 1e-12)

    def test_bracket_on_random_nonnegative_operators(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 60))
            A = rng.uniform(0, 1, size=(m, m))
            A = (A + A.T) / 2
            res = spectral_norm_nonneg(lambda v, A=A: A @ v, m, tol=1e-12)
            top = float(np.linalg.eigvalsh(A).max())
            assert res.lower <= top * (1 + 1e-12) and top <= res.upper * (1 + 1e-12)
            # the final Ritz vector of a positive operator is positive and tightens the bracket
            assert res.upper - res.lower <= 1e-6 * top

    def test_breakdown_is_exact(self):
        # the all-ones vector is the Perron vector of a cycle's adjacency
        m = 9
        A = np.roll(np.eye(m), 1, axis=1) + np.roll(np.eye(m), -1, axis=1)
        res = spectral_norm_nonneg(lambda v: A @ v, m)
        assert res.iterations == 1
        assert res.value == pytest.approx(2.0, abs=1e-14)
        assert res.lower == pytest.approx(2.0, abs=1e-14) and res.upper == pytest.approx(2.0, abs=1e-14)

    def test_zero_operator(self):
        res = spectral_norm_nonneg(lambda v: np.zeros_like(v), 4)
        assert res == (0.0, 1, 0.0, 0.0)

    def test_first_product_replaces_the_first_call(self, rng):
        m = 30
        A = rng.uniform(0, 1, size=(m, m))
        A = (A + A.T) / 2
        calls = []

        def matvec(v):
            calls.append(1)
            return A @ v

        plain = spectral_norm_nonneg(matvec, m)
        n_plain = len(calls)
        calls.clear()
        fused = spectral_norm_nonneg(matvec, m, first_product=A @ np.full(m, 1 / np.sqrt(m)))
        assert n_plain == plain.iterations
        assert len(calls) == fused.iterations - 1
        assert fused.iterations == plain.iterations
        assert abs(fused.value - plain.value) <= 1e-12 * plain.value
        with pytest.raises(ValueError, match="first product"):
            spectral_norm_nonneg(matvec, m, first_product=np.ones(m + 1))

    def test_restarts_beyond_krylov_cap(self):
        # a dense spectrum near the top needs more steps than the basis holds
        m = 400
        d = np.linspace(0.0, 1.0, m)
        calls = []

        def matvec(v):
            calls.append(1)
            return d * v

        res = spectral_norm_nonneg(matvec, m, tol=1e-12)
        assert res.iterations > KRYLOV_CAP
        assert len(calls) == res.iterations
        assert abs(res.value - 1.0) <= 1e-6
        assert res.lower <= 1.0 <= res.upper
