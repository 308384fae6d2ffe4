import dataclasses
import pathlib
import re

import numpy as np
import pytest

import ohmgraph
from ohmgraph import LaplacianSystem, TransferImpedance, electrical, graph, localization, routing, schur, solver

MODULES = [graph, solver, electrical, schur, localization, routing]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_exports_every_module_name(module):
    for name in module.__all__:
        assert getattr(ohmgraph, name) is getattr(module, name)


@pytest.mark.parametrize(
    "name",
    [
        "transfer_impedance",
        "abs_impedance_spectral_norm",
        "abs_impedance_max_colsum",
        "delta_summary",
        "FlowSummary",
        "pinv_apply",
        "degree",
        "incidence_apply",
        "incidence_transpose_apply",
        "write_graph",
        "generate_family",
        "weighted_adjacency",
        "edge_stats",
        "EdgeStats",
        "PRUNE_TOL",
        "from_graph",
        "SYMMETRY_TOL",
        "ROW_SUM_TOL",
        "bfs_distance",
        "hitting_probabilities",
        "_identify_prob_map",
        "_walk_prob_map",
        "competitive_ratio_bound",
        "delta_edge",
        "eliminate_one",
    ],
)
def test_removed_wrappers_are_gone(name):
    assert not hasattr(ohmgraph, name)
    assert all(not hasattr(m, name) for m in MODULES)


@pytest.mark.parametrize(
    "name", ["matrix", "trace", "abs_colsums", "abs_quadratic_form", "iter_blocks", "block_size", "zero_tol"]
)
def test_transfer_impedance_has_one_pi_surface(name):
    assert not hasattr(TransferImpedance(ohmgraph.complete(3)), name)


def test_numpy_integer_ids_give_the_int_results():
    # every entry point that takes an id, once with Python ints and once with
    # np.int64 ids (a terminal set as an int64 array), compared bit for bit
    g = ohmgraph.torus(4)
    w = np.linspace(0.5, 2.0, g.n_edges)
    tp = TransferImpedance(g)

    def results(i):
        system = ohmgraph.schur_complement(g, [i(0), i(5), i(10), i(15)])
        return [
            ohmgraph.unit_flow(g, i(0), i(5)),
            ohmgraph.effective_resistance(g, i(0), i(5)),
            tp.column_block(i(3), i(11)),
            system.vertices,
            system.laplacian,
            system.prob_map,
            ohmgraph.check_sum_potentials(system, i(7)),
            ohmgraph.check_norm_energy(system, i(10), 0.4),
            ohmgraph.check_schur_conductance(system, i(15)),
            ohmgraph.degree_profile(g, [i(1), i(6), i(11)], w).degrees,
            ohmgraph.route_demands(g, [ohmgraph.Demand(i(0), i(5), 1.5), ohmgraph.Demand(i(9), i(2), 0.5)]).flow,
        ]

    ints = results(int)
    for a, b in zip(ints, results(np.int64)):
        assert np.array_equal(a, b)
    as_array = ohmgraph.schur_complement(g, np.array([0, 5, 10, 15], dtype=np.int64))
    assert np.array_equal(as_array.laplacian, ints[4]) and np.array_equal(as_array.prob_map, ints[5])


def test_schur_system_is_its_laplacian():
    fields = {f.name for f in dataclasses.fields(ohmgraph.SchurSystem)}
    assert fields == {"base", "vertices", "laplacian", "prob_map"}  # no materialized `graph`


def test_laplacian_system_keeps_only_its_factor():
    assert not hasattr(LaplacianSystem(ohmgraph.complete(3)), "matrix")
    assert not hasattr(LaplacianSystem, "from_graph")  # the graph constructor is the only one


def test_degree_profile_has_no_degenerate_field():
    # every terminal of a connected graph has positive drop energy, so no
    # degree is special-cased
    fields = {f.name for f in dataclasses.fields(ohmgraph.DegreeProfile)}
    assert fields == {"vertices", "degrees", "total", "bound"}


def test_readme_library_example_runs():
    # the first python block under "## Library", so a name that leaves the
    # library cannot stay in the README
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
