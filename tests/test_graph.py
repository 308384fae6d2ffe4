import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmgraph import (
    GraphFormatError,
    build_graph,
    complete,
    erdos_renyi,
    hypercube,
    is_connected,
    laplacian_matrix,
    parallel_paths,
    parse_family_spec,
    path,
    random_regular_expander,
    read_graph,
    torus,
)

import ohmgraph.graph as graph_module
from ohmgraph.cli import cli_main

from conftest import bfs_distance, single_edge, triangle


class TestBuildGraph:
    def test_single_edge(self):
        g = single_edge()
        assert g.n_vertices == 2
        assert g.n_edges == 1

    def test_triangle_preserves_order(self):
        g = build_graph([(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert g.n_edges == 3
        assert g.edge_list() == [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]

    def test_parallel_edges_kept_distinct(self):
        g = build_graph([(0, 1, 1), (0, 1, 2)])
        assert g.n_edges == 2
        assert g.conductances.tolist() == [1.0, 2.0]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph([(0, 0, 1.0)])

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_conductance(self, c):
        with pytest.raises(ValueError, match="conductance"):
            build_graph([(0, 1, c)])

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="negative"):
            build_graph([(-1, 1, 1.0)])

    def test_rejects_id_beyond_declared_count(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph([(0, 5, 1.0)], n_vertices=3)

    def test_empty_needs_vertex_count(self):
        with pytest.raises(ValueError):
            build_graph([])

    def test_rejects_id_beyond_int64(self):
        with pytest.raises(ValueError, match="edge 1: .*int64"):
            build_graph([(0, 1, 1.0), (0, 2**63, 1.0)])

    @pytest.mark.parametrize(
        "edges, n_vertices, message",
        [
            ([(0, 1.7, 1.0), (1, 2, 1.0)], None, "edge 0: vertex ids must be integers"),
            ([(0, 1.0, 1.0)], None, "edge 0: vertex ids must be integers"),
            ([("2", 1, "3.5")], None, "edge 0: vertex ids must be integers"),
            ([(np.float64(0), 1, 1.0)], None, "edge 0: vertex ids must be integers"),
            ([(0, 1, 1.0)], 2.7, "n_vertices must be an integer"),
            ([(0, 1, 1.0)], "3", "n_vertices must be an integer"),
            ([(0, 1, 1.0)], True, "n_vertices must be an integer"),
        ],
        ids=["edges0", "edges1", "edges2", "edges3", "n_vertices=2.7", "n_vertices='3'", "n_vertices=True"],
    )
    def test_rejects_non_integer_id(self, edges, n_vertices, message):
        # int() would truncate 1.7 to vertex 1 and 2.7 to two vertices, and
        # read "2" as vertex 2
        with pytest.raises(ValueError, match=f"^{message}"):
            build_graph(edges, n_vertices=n_vertices)

    @pytest.mark.parametrize(
        "edge, what",
        [
            ((0, 1, "3.5"), "conductance"),
            ((0, 1, b"2"), "conductance"),
            ((0, 1, True), "conductance"),
            ((0, 1, np.True_), "conductance"),
            ((True, 0, 1.0), "vertex ids"),
            ((0, True, 1.0), "vertex ids"),
            ((np.True_, 0, 1.0), "vertex ids"),
        ],
    )
    def test_rejects_text_and_bool_values(self, edge, what):
        # float() reads "3.5", b"2" and True, and operator.index(True) is 1
        with pytest.raises(ValueError, match=f"edge 1: {what}"):
            build_graph([(1, 2, 1.0), edge])

    def test_numpy_scalar_conductances_accepted(self):
        g = build_graph([(0, 1, np.float32(0.5)), (1, 2, np.int64(3)), (2, 0, 2)])
        assert g.conductances.tolist() == [0.5, 3.0, 2.0]

    def test_numpy_integer_ids_accepted(self):
        g = build_graph([(np.int64(0), np.int32(1), 1.0)])
        assert g.edge_list() == [(0, 1, 1.0)]

    def test_arrays_immutable(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.conductances[0] = 7.0


class TestFamilies:
    def test_parallel_paths_counts(self):
        g = parallel_paths(3)
        assert (g.n_vertices, g.n_edges) == (8, 10)

    def test_torus_counts(self):
        g = torus(3)
        assert (g.n_vertices, g.n_edges) == (9, 18)

    def test_hypercube_counts(self):
        g = hypercube(3)
        assert (g.n_vertices, g.n_edges) == (8, 12)

    def test_complete_counts(self):
        assert complete(6).n_edges == 15

    def test_expander_regular_simple_connected(self):
        g = random_regular_expander(16, 4, seed=1)
        deg = np.zeros(16)
        np.add.at(deg, g.tails, 1)
        np.add.at(deg, g.heads, 1)
        assert np.all(deg == 4)
        pairs = {tuple(sorted(e[:2])) for e in g.edge_list()}
        assert len(pairs) == g.n_edges  # no multi-edges
        assert is_connected(g)

    def test_expander_deterministic_per_seed(self):
        a = random_regular_expander(16, 4, seed=3)
        b = random_regular_expander(16, 4, seed=3)
        assert a.edge_list() == b.edge_list()

    @pytest.mark.parametrize(
        "g",
        [parallel_paths(4), torus(4), hypercube(4), path(7), complete(5),
         random_regular_expander(16, 4, seed=0)],
        ids=["parallel_paths", "torus", "hypercube", "path", "complete", "expander"],
    )
    def test_families_connected_with_zero_laplacian_row_sums(self, g):
        assert is_connected(g)
        L = laplacian_matrix(g)
        assert np.abs(L.sum(axis=1)).max() < 1e-12

    def test_laplacian_exactly_symmetric_with_two_way_parallel_edges(self):
        # summing L[t, h] and L[h, t] in two passes can leave them an ulp apart
        rng = np.random.default_rng(5)
        for _ in range(200):
            conds = rng.uniform(0.1, 10.0, 5).tolist()
            g = build_graph(zip([0, 1, 0, 1, 2], [1, 0, 1, 2, 0], conds))
            L = laplacian_matrix(g)
            assert np.array_equal(L, L.T)

    def test_erdos_renyi_row_sums(self):
        L = laplacian_matrix(erdos_renyi(20, 0.4, 3))
        assert np.abs(L.sum(axis=1)).max() < 1e-12

    @pytest.mark.parametrize(
        "n,p,seed", [(6, 1.0, 0), (8, 1e-9, 1), (2, 0.5, 2), (2, 0.5, 4), (30, 0.2, 5), (17, 0.6, 9)]
    )
    def test_erdos_renyi_matches_pairwise_draws(self, n, p, seed):
        rng = np.random.default_rng(seed)
        expected = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = erdos_renyi(n, p, seed)
        assert g.n_vertices == n
        assert g.edge_list() == expected

    def test_generate_family_dispatch(self):
        assert parse_family_spec("torus:3").n_vertices == 9
        with pytest.raises(ValueError, match="unknown graph family"):
            parse_family_spec("moebius:3")

    def test_invalid_parameters(self):
        for call in [lambda: torus(1), lambda: hypercube(0), lambda: parallel_paths(0),
                     lambda: random_regular_expander(7, 4), lambda: path(1)]:
            with pytest.raises(ValueError):
                call()

    def test_parse_family_spec(self):
        assert parse_family_spec("torus:3").n_edges == 18
        assert parse_family_spec("family:torus:3").n_edges == 18
        assert parse_family_spec("triangle").n_edges == 3
        assert parse_family_spec("expander:16:4:7").n_edges == 32
        assert parse_family_spec("erdos_renyi:10:0.5:1").n_vertices == 10
        with pytest.raises(ValueError):
            parse_family_spec("torus:three")
        with pytest.raises(ValueError):
            parse_family_spec("torus:3:4:5")
        with pytest.raises(ValueError, match=r"family 'expander' expects parameters: n d \[seed\]"):
            parse_family_spec("expander:64:4:7:1")

    @pytest.mark.parametrize(
        "spec", ["torus:3", "hypercube:4", "parallel_paths:3", "path:5", "complete:6", "expander:16:4:7", "triangle"]
    )
    def test_family_size_is_the_built_size(self, spec):
        name, *args = spec.split(":")
        n, m = graph_module._FAMILIES[name][2](*map(int, args))
        g = parse_family_spec(spec)
        assert (g.n_vertices, g.n_edges) == (n, m)

    @pytest.mark.parametrize(
        "spec, count",
        [
            ("torus:99999999999999999999", "2e+40 edges"),
            ("family:hypercube:200", "1.61e+60 vertices"),
            ("complete:10000000", "49999995000000 edges"),
            ("erdos_renyi:2000:0.5", "1999000 edges or vertex pairs"),
            ("hypercube:99999999999", "over 1e300 vertices"),
            ("path:1000002", "1000002 vertices"),
        ],
    )
    def test_oversized_spec_refused_before_building(self, spec, count, monkeypatch):
        def unbuilt(*args, **kwargs):
            raise AssertionError("an oversized spec reached the builder")

        for name, (_, usage, size) in graph_module._FAMILIES.items():
            monkeypatch.setitem(graph_module._FAMILIES, name, (unbuilt, usage, size))
        with pytest.raises(ValueError, match=rf"{re.escape(count)}.* above the cap of 1000000"):
            parse_family_spec(spec)


def _round_trip(g, directory):
    """Write ``g`` as an edge list, pass it through ``ohmgraph generate`` and
    read the generated file back."""
    src, out = directory / "in.txt", directory / "out.txt"
    src.write_text("".join(f"{t} {h} {c!r}\n" for t, h, c in g.edge_list()))
    assert cli_main(["generate", "--graph", str(src), "--out", str(out)]) == 0
    return read_graph(str(out))


class TestIO:
    def test_read_single_edge(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 1.0\n")
        g = read_graph(str(p))
        assert g.edge_list() == [(0, 1, 1.0)]

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a comment\n\n0 1 1.0\n# another\n1 2 0.25\n")
        g = read_graph(str(p))
        assert g.n_edges == 2

    def test_each_edge_validated_once(self, tmp_path, monkeypatch):
        calls = []
        original = graph_module._edge_error

        def spy(t, h, c):
            calls.append((t, h, c))
            return original(t, h, c)

        monkeypatch.setattr(graph_module, "_edge_error", spy)
        p = tmp_path / "g.txt"
        p.write_text("0 1 1.0\n1 2 0.5\n2 0 2.0\n")
        g = read_graph(str(p))
        assert g.edge_list() == [(0, 1, 1.0), (1, 2, 0.5), (2, 0, 2.0)]
        assert len(calls) == 3

    def test_round_trip_identity(self, tmp_path):
        g = build_graph([(0, 2, 0.1), (2, 1, 1 / 3), (1, 0, 123456.789), (0, 2, 1e-7)])
        h = _round_trip(g, tmp_path)
        assert h.n_vertices == g.n_vertices
        assert h.edge_list() == g.edge_list()

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("0 1\n", "expected"),
            ("0 one 1.0\n", "parse"),
            ("0 0 1.0\n", "self-loop"),
            ("0 1 -2\n", "positive"),
            ("0 -1 1.0\n", "negative"),
            ("0 9223372036854775808 1\n", "int64"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, content, fragment):
        p = tmp_path / "g.txt"
        p.write_text("# header\n" + content)
        with pytest.raises(GraphFormatError, match=f":2:.*{fragment}"):
            read_graph(str(p))

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.integers(0, 9),
                st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
            ).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=30,
        )
    )
    def test_round_trip_random_graphs(self, tmp_path_factory, edges):
        g = build_graph(edges)
        h = _round_trip(g, tmp_path_factory.mktemp("io"))
        assert h.edge_list() == g.edge_list()


class TestBFS:
    def test_adjacent(self):
        assert bfs_distance(triangle(), 0, 1) == 1

    def test_path_endpoints(self):
        assert bfs_distance(path(5), 0, 4) == 4

    def test_torus_diagonal(self):
        # (0,0) -> (2,2) on the 4-torus: 2 hops in each coordinate
        assert bfs_distance(torus(4), 0, 2 * 4 + 2) == 4

    def test_unreachable_is_infinite(self):
        g = build_graph([(0, 1, 1.0)], n_vertices=3)
        assert bfs_distance(g, 0, 2) == math.inf
        assert not is_connected(g)

    def test_same_vertex(self):
        assert bfs_distance(path(3), 1, 1) == 0
