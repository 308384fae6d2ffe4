import dataclasses

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
