"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from ohmgraph import (
    Demand,
    build_graph,
    check_norm_energy,
    check_schur_conductance,
    check_sum_potentials,
    complete,
    degree_profile,
    erdos_renyi,
    hypercube,
    is_connected,
    parallel_paths,
    path,
    quadratic_form_abs,
    random_regular_expander,
    route_demands,
    run_elimination,
    schur_complement,
    torus,
    TransferImpedance,
    LaplacianSystem,
)

from conftest import delta_edge, identify_prob_map, walk_prob_map


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _named_zoo():
    return [
        ("single_edge", build_graph([(0, 1, 1.0)])),
        ("triangle", complete(3)),
        ("path8", path(8)),
        ("complete6", complete(6)),
        ("torus4", torus(4)),
        ("hypercube4", hypercube(4)),
        ("expander64", random_regular_expander(64, 4, seed=0)),
        ("parallel_paths4", parallel_paths(4)),
    ]


def _random_instance(rng, max_vertices=64, weighted=None):
    """Connected graph with |V| <= max_vertices plus a random terminal set."""
    if weighted is None:
        weighted = bool(rng.integers(2))
    kind = int(rng.integers(6))
    if kind == 0:
        g = torus(int(rng.integers(2, 9)))
    elif kind == 1:
        g = complete(int(rng.integers(3, 9)))
    elif kind == 2:
        g = path(int(rng.integers(3, 33)))
    elif kind == 3:
        g = random_regular_expander(2 * int(rng.integers(4, 33)), 4, seed=int(rng.integers(100_000)))
    elif kind == 4:
        g = hypercube(int(rng.integers(2, 7)))
    else:
        while True:
            g = erdos_renyi(int(rng.integers(6, 33)), 0.35, seed=int(rng.integers(100_000)))
            if is_connected(g):
                break
    assert g.n_vertices <= max_vertices
    if weighted:
        conds = rng.uniform(0.1, 10.0, size=g.n_edges)
        g = build_graph(
            [(t, h, float(c)) for (t, h, _), c in zip(g.edge_list(), conds)],
            n_vertices=g.n_vertices,
        )
    size = int(rng.integers(2, g.n_vertices + 1))
    S = np.sort(rng.choice(g.n_vertices, size=size, replace=False))
    return g, S


def test_criterion_1_projection_identities():
    start = time.perf_counter()
    worst_trace = 0.0
    worst_proj = 0.0
    for name, g in _named_zoo():
        tp = TransferImpedance(g, mode="dense")
        M = tp.column_block(0, g.n_edges)
        worst_trace = max(worst_trace, abs(float(np.trace(M)) - (g.n_vertices - 1)))
        worst_proj = max(worst_proj, float(np.abs(M @ M - M).max()))
    elapsed = time.perf_counter() - start
    ok = worst_trace <= 1e-8 and worst_proj <= 1e-8 and elapsed < 10.0
    _report(
        1,
        "projection identities",
        ok,
        f"max |trace - (n-1)| = {worst_trace:.2e}, max |Pi^2 - Pi| = {worst_proj:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_parallel_paths_exact():
    worst = 0.0
    for k in (2, 3, 4, 5):
        got = delta_edge(parallel_paths(k), 0)
        worst = max(worst, abs(got - (k + 1) / 2))
    _report(2, "parallel-paths direct-edge stretch", worst <= 1e-9, f"max error = {worst:.2e}")


def test_criterion_3_probability_method_agreement():
    rng = np.random.default_rng(3)
    worst_gap = 0.0
    worst_sum = 0.0
    for _ in range(20):
        g, S = _random_instance(rng)
        maps = [schur_complement(g, S).prob_map, identify_prob_map(g, S), walk_prob_map(g, S)]
        for other in maps[1:]:
            worst_gap = max(worst_gap, float(np.abs(maps[0] - other).max()))
        worst_sum = max(worst_sum, float(np.abs(maps[0].sum(axis=0) - 1.0).max()))
    ok = worst_gap <= 1e-8 and worst_sum <= 1e-9
    _report(
        3,
        "probability method agreement",
        ok,
        f"max method gap = {worst_gap:.2e}, max distribution defect = {worst_sum:.2e}",
    )


def test_criterion_4_section2_proposition_sweeps():
    rng = np.random.default_rng(4)
    failures = 0
    instances = 0
    for _ in range(200):
        g, S = _random_instance(rng)
        instances += 1
        system = schur_complement(g, S)
        e = int(rng.integers(g.n_edges))
        if check_sum_potentials(system, e) > 3.0 + 1e-9:
            failures += 1
        v = int(S[rng.integers(S.size)])
        p = float(rng.uniform(0.05, 0.95))
        lhs, rhs = check_norm_energy(system, v, p)
        if lhs > rhs + 1e-9:
            failures += 1
        lhs, rhs = check_schur_conductance(system, v)
        if abs(lhs - rhs) > 1e-8 * max(rhs, 1e-12):
            failures += 1
    _report(
        4,
        "section-2 proposition sweeps",
        failures == 0 and instances >= 200,
        f"{instances} instances, {failures} failures",
    )


def test_criterion_5_local_energy_explicit_constant():
    rng = np.random.default_rng(5)
    failures = 0
    instances = 0
    for trial in range(100):
        g, S = _random_instance(rng)
        w = np.ones(g.n_edges) if trial % 2 == 0 else rng.uniform(0.0, 3.0, size=g.n_edges)
        prof = degree_profile(g, S, w)
        instances += 1
        if prof.total > prof.bound + 1e-9:
            failures += 1
    _report(
        5,
        "local-energy explicit constant",
        failures == 0 and instances >= 100,
        f"{instances} instances, {failures} failures",
    )


def test_criterion_6_elimination_trace_soundness():
    start = time.perf_counter()
    graphs = [
        ("path8", path(8)),
        ("torus4", torus(4)),
        ("expander32", random_regular_expander(32, 4, seed=0)),
        ("complete8", complete(8)),
    ]
    worst_slack = -np.inf
    worst_rank_one = 0.0
    worst_terminal = -np.inf
    worst_v0 = 0.0
    for name, g in graphs:
        w = np.ones(g.n_edges)
        trace = run_elimination(g, w)
        worst_slack = max(worst_slack, max(s.slack for s in trace.steps))
        worst_rank_one = max(
            worst_rank_one, max(abs(s.rank_one_value - s.degree_value) for s in trace.steps)
        )
        worst_terminal = max(worst_terminal, trace.v_terminal - trace.w_norm_sq)
        direct = quadratic_form_abs(g, w)
        worst_v0 = max(worst_v0, abs(trace.v_initial - direct) / direct)
    elapsed = time.perf_counter() - start
    ok = (
        worst_slack <= 1e-8
        and worst_rank_one <= 1e-8
        and worst_terminal <= 1e-8
        and worst_v0 <= 1e-6
        and elapsed < 60.0
    )
    _report(
        6,
        "elimination trace soundness",
        ok,
        f"max slack = {worst_slack:.2e}, max rank-one gap = {worst_rank_one:.2e}, "
        f"max V_T - |w|^2 = {worst_terminal:.2e}, max V_0 rel gap = {worst_v0:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_scaling_bounded_growth():
    start = time.perf_counter()
    sequences = {}
    for label, graphs in (
        ("torus", [torus(side) for side in (4, 8, 16, 32)]),
        ("expander", [random_regular_expander(n, 4, seed=0) for n in (32, 128, 512)]),
    ):
        stretch_ratios = []
        norm_ratios = []
        for g in graphs:
            n, m = g.n_vertices, g.n_edges
            tp = TransferImpedance(g, mode="streaming")
            log_sq = np.log(n) ** 2
            stretch_ratios.append(float(tp.per_edge_stats()[0].sum()) / (m * log_sq))
            norm_ratios.append(tp.abs_spectral_norm().value / log_sq)
        sequences[f"{label} stretch"] = stretch_ratios
        sequences[f"{label} norm"] = norm_ratios
    elapsed = time.perf_counter() - start
    ok = elapsed < 600.0
    details = []
    for label, seq in sequences.items():
        bounded = max(seq) <= 8.0
        stable = seq[-1] <= 2.0 * seq[0]
        ok = ok and bounded and stable
        details.append(f"{label}: " + "/".join(f"{r:.3f}" for r in seq))
    _report(7, "bounded-growth scaling", ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_8_routing():
    report = route_demands(complete(3), [Demand(0, 1, 1.0)])
    triangle_ok = abs(report.max_congestion - 2 / 3) <= 1e-9

    worst_bound_gap = 0.0
    for name, g in _named_zoo():
        expected = max(delta_edge(g, e) for e in range(g.n_edges))
        bound = route_demands(g, [Demand(0, 1, 1.0)]).competitive_ratio_bound
        worst_bound_gap = max(worst_bound_gap, abs(bound - expected))

    rng = np.random.default_rng(8)
    g = torus(3)
    worst_super = 0.0
    for _ in range(5):
        pairs = rng.choice(9, size=(3, 2), replace=False)
        d1 = [Demand(int(pairs[0][0]), int(pairs[0][1]), 1.5)]
        d2 = [Demand(int(p[0]), int(p[1]), float(a)) for p, a in zip(pairs[1:], (0.5, 2.0))]
        f1 = route_demands(g, d1).flow
        f2 = route_demands(g, d2).flow
        f12 = route_demands(g, d1 + d2).flow
        worst_super = max(worst_super, float(np.abs(f12 - (f1 + f2)).max()))

    ok = triangle_ok and worst_bound_gap <= 1e-9 and worst_super <= 1e-10
    _report(
        8,
        "routing",
        ok,
        f"triangle congestion = {report.max_congestion:.12f}, "
        f"max bound gap = {worst_bound_gap:.2e}, max superposition defect = {worst_super:.2e}",
    )


def test_criterion_9_grid_potential_decay():
    side = 32
    g = torus(side)
    system = LaplacianSystem(g)
    b = np.zeros(g.n_vertices)
    b[0] = 1.0  # u = (0, 0)
    b[1] = -1.0  # v = (0, 1), a horizontal edge
    phi = system.solve(b)
    vals = {k: abs(float(phi[k * side])) for k in (2, 4, 8)}  # w at vertical distance k
    decreasing = vals[2] > vals[4] > vals[8]
    C = vals[2] * 4  # calibrate C at k=2
    bounded = vals[4] <= C / 16 + 1e-12 and vals[8] <= C / 64 + 1e-12
    _report(
        9,
        "grid potential decay",
        decreasing and bounded,
        f"|phi| at k=2,4,8: {vals[2]:.3e}, {vals[4]:.3e}, {vals[8]:.3e}, C = {C:.3e}",
    )
