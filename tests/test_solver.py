import tracemalloc

import numpy as np
import pytest

from ohmgraph import (
    ConvergenceError,
    DisconnectedGraphError,
    LaplacianSystem,
    TransferImpedance,
    build_graph,
    complete,
    hypercube,
    laplacian_matrix,
    parallel_paths,
    path,
    spectral_norm_nonneg,
    torus,
)
from ohmgraph.electrical import _abs_zeroed
from ohmgraph.solver import KRYLOV_CAP

from conftest import (
    indicator_drop,
    log_uniform_expander,
    oracle_pinv_apply,
    random_connected_graph,
    single_edge,
    triangle,
)

SOLVE_GRAPHS = [triangle(), torus(3), parallel_paths(3), complete(5)]

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
        X = sys.solve_columns(B)
        for j in range(4):
            assert np.allclose(X[:, j] - X[:, j].mean(), sys.solve(B[:, j]), atol=1e-13)

    @pytest.mark.parametrize("g", SOLVE_GRAPHS)
    def test_solve_columns_is_grounded(self, g, rng):
        # vertex 0 is grounded and the output is not centred: L X is the
        # projected B, and X keeps the Fortran layout LAPACK solved in
        sys = LaplacianSystem(g)
        n = g.n_vertices
        B = rng.normal(size=(n, 5))
        X = sys.solve_columns(B)
        assert X.shape == (n, 5) and X.flags.f_contiguous
        assert np.all(X[0] == 0.0)
        Z = B - B.mean(axis=0)
        assert np.abs(laplacian_matrix(g) @ X - Z).max() <= 1e-9 * np.abs(Z).max()

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

    def test_overflowing_degrees_rejected(self):
        # each weighted degree overflows to inf, so the factor is not finite
        g = build_graph([(0, 1, 1e308), (1, 2, 1e308), (2, 3, 1e308), (3, 0, 1e308), (0, 2, 1e308)])
        with pytest.raises(FloatingPointError, match="not finite"):
            LaplacianSystem(g)


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
