"""Output checks for every CLI invocation the benchmark runs.

Each check takes the exit code and the captured stdout and returns a list of
problems; an empty list means the output is correct.  Comparisons use
tolerances, never byte equality, because roundoff and tied pivots change with
the BLAS build.
"""

from __future__ import annotations

import json

import numpy as np


def _parse_json(stdout: str) -> tuple[object, list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_analyze(rc, stdout: str, *, n: int, conductances: np.ndarray, reference: dict | None) -> list[str]:
    """Projection invariants of ``analyze --format json``.

    trace Pi = n-1; the leverages reff*c lie in [0, 1] and sum to n-1
    (Foster); max diagonal <= spectral norm of |Pi| <= max column sum.  With a
    ``reference`` (a dense run of the same input) every reported number must
    also match it within rtol 1e-8.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    doc, errors = _parse_json(stdout)
    if errors:
        return errors
    m = conductances.size
    if doc["n"] != n or doc["m"] != m:
        return [f"n, m = {doc['n']}, {doc['m']}; expected {n}, {m}"]
    per_edge = doc["per_edge"]
    if len(per_edge) != m:
        return [f"{len(per_edge)} per-edge records for m={m}"]
    if abs(doc["trace_pi"] - (n - 1)) > 1e-8 * n:
        errors.append(f"trace_pi {doc['trace_pi']!r} != n-1 = {n - 1}")
    leverage = np.array([e["reff"] for e in per_edge]) * conductances
    if abs(leverage.sum() - (n - 1)) > 1e-8 * n:
        errors.append(f"Foster: sum reff*c = {leverage.sum()!r} != n-1 = {n - 1}")
    if leverage.min() < -1e-9 or leverage.max() > 1 + 1e-9:
        errors.append(f"reff*c outside [0, 1]: [{leverage.min()!r}, {leverage.max()!r}]")
    spectral = doc["spectral_norm_abs_pi"]
    colsum = doc["max_colsum_abs_pi"]
    if not leverage.max() <= spectral * (1 + 1e-9) or not spectral <= colsum * (1 + 1e-9):
        errors.append(f"max diag {leverage.max()!r} <= spectral {spectral!r} <= max colsum {colsum!r} fails")
    if reference is not None:
        for key in ("trace_pi", "spectral_norm_abs_pi", "max_colsum_abs_pi"):
            if not _rel_close(doc[key], reference[key], 1e-8):
                errors.append(f"{key} {doc[key]!r} differs from dense reference {reference[key]!r}")
        for key in ("l1", "reff", "delta"):
            got = [e[key] for e in per_edge]
            want = [e[key] for e in reference["per_edge"]]
            if (None in got) != (None in want):
                errors.append(f"per-edge {key} nullness differs from dense reference")
            elif None not in got and not np.allclose(got, want, rtol=1e-8, atol=0.0):
                errors.append(f"per-edge {key} differs from dense reference beyond rtol 1e-8")
    return errors


def check_eliminate(rc, stdout: str, *, n: int, v0_ref: float | None) -> list[str]:
    """Elimination trace: n-2 steps, pivots plus the terminal pair are exactly
    the vertex set, and, when V_i is tracked, every slack <= 1e-8 and V_0
    matches ``quadratic_form_abs`` within 1e-6 relative."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError as exc:
        return [f"stdout is not JSON lines: {exc}"]
    if not records:
        return ["no output"]
    *steps, summary = records
    errors = []
    if len(steps) != n - 2 or summary.get("steps") != n - 2:
        errors.append(f"{len(steps)} step records, summary steps {summary.get('steps')}; expected {n - 2}")
    vertices = [s["pivot"] for s in steps] + list(summary.get("terminal", []))
    if len(vertices) != n or set(vertices) != set(range(n)):
        errors.append("pivots plus terminal pair are not exactly the vertex set")
    if v0_ref is None:
        if any(s["v_i"] is not None or s["slack"] is not None for s in steps):
            errors.append("--skip-vi output carries V_i values")
        return errors
    slacks = [s["slack"] for s in steps]
    if None in slacks:
        errors.append("a tracked step has no slack")
    elif slacks and max(slacks) > 1e-8:
        errors.append(f"step slack {max(slacks)!r} above 1e-8")
    v0 = summary.get("v0")
    if v0 is None or not _rel_close(v0, v0_ref, 1e-6):
        errors.append(f"v0 {v0!r} differs from quadratic_form_abs {v0_ref!r}")
    return errors


_VERIFY_PROPS = ("sum_potentials", "norm_energy", "schur_conductance")


def _verify_contract(record: dict) -> bool:
    lhs, rhs = record["lhs"], record["rhs"]
    if record["prop"] == "schur_conductance":
        return abs(lhs - rhs) <= 1e-8 * max(rhs, 1e-12)
    return lhs <= rhs + 1e-9


def check_verify(rc, stdout: str, *, trials: int) -> list[str]:
    """Exit code 0, 3 records per trial, every record ok and its contract
    re-checked from the reported lhs and rhs."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError as exc:
        return [f"stdout is not JSON lines: {exc}"]
    errors = []
    if len(records) != 3 * trials:
        errors.append(f"{len(records)} records; expected {3 * trials}")
    for r in records:
        if r.get("prop") not in _VERIFY_PROPS or r.get("ok") is not True or not _verify_contract(r):
            errors.append(f"record fails: {json.dumps(r)[:200]}")
            break
    return errors


def check_route(rc, stdout: str, *, n: int, demands: list[tuple[int, int, float]], bound_ref: float) -> list[str]:
    """Flow conservation B^T flow = net demand within 1e-9 relative, congestion
    = |flow| on unit conductances, and the competitive-ratio bound equal to the
    max column sum of a dense ``analyze`` reference."""
    if rc != 0:
        return [f"exit code {rc}"]
    doc, errors = _parse_json(stdout)
    if errors:
        return errors
    per_edge = doc["per_edge"]
    tails = np.array([e["tail"] for e in per_edge], dtype=np.int64)
    heads = np.array([e["head"] for e in per_edge], dtype=np.int64)
    flow = np.array([e["flow"] for e in per_edge])
    net = np.bincount(tails, flow, minlength=n) - np.bincount(heads, flow, minlength=n)
    want = np.zeros(n)
    for s, t, amount in demands:
        want[s] += amount
        want[t] -= amount
    if np.abs(net - want).max() > 1e-9 * np.abs(want).max():
        errors.append(f"B^T flow differs from net demand by {np.abs(net - want).max():.3e}")
    congestion = np.array([e["congestion"] for e in per_edge])
    if not np.allclose(congestion, np.abs(flow), rtol=1e-12, atol=0.0) or not _rel_close(
        doc["max_congestion"], float(congestion.max()), 1e-12
    ):
        errors.append("congestion is not |flow| on unit conductances")
    bound = doc["competitive_ratio_bound"]
    if bound is None or not _rel_close(bound, bound_ref, 1e-9):
        errors.append(f"competitive_ratio_bound {bound!r} != analyze max_colsum {bound_ref!r}")
    return errors
