import numpy as np
import pytest

from ohmgraph import (
    ConvergenceError,
    DisconnectedGraphError,
    LaplacianSystem,
    TransferImpedance,
    build_graph,
    complete,
    laplacian_matrix,
    parallel_paths,
    spectral_norm_nonneg,
    torus,
)

from conftest import indicator_drop, oracle_pinv_apply, random_connected_graph, single_edge, triangle

SOLVE_GRAPHS = [triangle(), torus(3), parallel_paths(3), complete(5)]


class TestPinvApply:
    def test_single_edge(self):
        sys = LaplacianSystem.from_graph(single_edge())
        x = sys.solve([1.0, -1.0])
        assert np.allclose(x, [0.5, -0.5], atol=1e-12)

    def test_triangle_effective_resistance(self):
        g = triangle()
        sys = LaplacianSystem.from_graph(g)
        b = indicator_drop(3, 0, 1)
        x = sys.solve(b)
        assert abs(b @ x - 2 / 3) < 1e-12
        # brute-force pseudoinverse oracle
        assert np.allclose(x, oracle_pinv_apply(g, b), atol=1e-10)

    def test_all_ones_maps_to_zero(self):
        sys = LaplacianSystem.from_graph(torus(3))
        assert np.abs(sys.solve(np.ones(9))).max() < 1e-12

    @pytest.mark.parametrize("g", SOLVE_GRAPHS)
    def test_residual_and_centering_on_random_inputs(self, g, rng):
        sys = LaplacianSystem.from_graph(g)
        L = sys.matrix
        n = g.n_vertices
        for _ in range(100):
            b = rng.normal(size=n)
            z = b - b.mean()
            x = sys.solve(b)
            assert np.abs(L @ x - z).max() <= 1e-9 * max(np.abs(z).max(), 1e-30)
            assert abs(x.sum()) / n <= 1e-10

    @pytest.mark.parametrize("g", SOLVE_GRAPHS)
    def test_self_adjoint(self, g, rng):
        sys = LaplacianSystem.from_graph(g)
        for _ in range(20):
            a = rng.normal(size=g.n_vertices)
            b = rng.normal(size=g.n_vertices)
            assert abs(a @ sys.solve(b) - sys.solve(a) @ b) < 1e-10

    def test_matches_oracle_on_random_weighted_graphs(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, weighted=True)
            sys = LaplacianSystem.from_graph(g)
            b = rng.normal(size=g.n_vertices)
            b -= b.mean()
            assert np.allclose(sys.solve(b), oracle_pinv_apply(g, b), atol=1e-8)

    def test_solve_columns_matches_loop(self, rng):
        g = torus(3)
        sys = LaplacianSystem.from_graph(g)
        B = rng.normal(size=(9, 4))
        X = sys.solve_columns(B)
        for j in range(4):
            assert np.allclose(X[:, j], sys.solve(B[:, j]), atol=1e-13)

    def test_disconnected_graph_rejected(self):
        g = build_graph([(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
        with pytest.raises(DisconnectedGraphError):
            LaplacianSystem.from_graph(g)

    def test_disconnected_matrix_rejected_on_factor(self):
        L = np.zeros((4, 4))
        L[:2, :2] = [[1, -1], [-1, 1]]
        L[2:, 2:] = [[1, -1], [-1, 1]]
        sys = LaplacianSystem(L)
        with pytest.raises(DisconnectedGraphError):
            sys.solve(np.array([1.0, -1.0, 0.0, 0.0]))

    def test_validation_rejects_bad_matrices(self):
        with pytest.raises(ValueError, match="symmetric"):
            LaplacianSystem([[1.0, -1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row sums"):
            LaplacianSystem([[2.0, -1.0], [-1.0, 2.0]])
        with pytest.raises(ValueError, match="square"):
            LaplacianSystem(np.zeros((2, 3)))


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

    def test_non_convergence_carries_estimate(self):
        A = np.diag([1.0, 0.9999])
        with pytest.raises(ConvergenceError) as info:
            spectral_norm_nonneg(lambda v: A @ v, 2, tol=0.0, max_iter=5)
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
