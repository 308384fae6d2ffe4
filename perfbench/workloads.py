"""Workloads of the ohmgraph benchmark: seeded input files, untimed reference
values, and the list of CLI invocations that one sweep runs.

Input files are generated by this module's own code, never by the library,
so that a change to the library's generators cannot change what the
benchmark feeds it.  Every random draw comes from ``numpy.random`` streams
keyed by the workload seed, so one seed always yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from ohmgraph.electrical import quadratic_form_abs
from ohmgraph.graph import parse_family_spec

import checks

ROOT = Path(__file__).resolve().parents[1]

# The O(n^4) elimination and the Python-bound Schur/routing invocations share
# one workload: on a two-core VM whose speed drifts over minutes, a 0.5 s
# verify+route sweep alone spread more across runs than any bound allows.
WORKLOADS = ("analyze_dense", "analyze_streaming", "eliminate_verify_route")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``FULL`` is the measured load, ``SMOKE``
    the tiny variant the benchmark's own tests run."""

    analyze_torus: int  # side of the analyze torus
    expander_n: int  # vertices of the weighted 4-regular expander file
    elim_vi_torus: int  # side of the torus eliminated while tracking V_i
    elim_expander_n: int  # vertices of the expander eliminated with a --w file
    elim_skip_torus: int  # side of the torus eliminated with --skip-vi
    verify_torus: int
    verify_trials: int
    route_torus: int
    demands: int
    setup_repeats: int  # fresh interpreters timed for setup_s


FULL = Sizes(32, 1024, 12, 128, 20, 16, 10, 32, 256, 7)
SMOKE = Sizes(4, 16, 4, 16, 5, 4, 2, 4, 2, 1)

EXPANDER_DEGREE = 4


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[int | None, str], list[str]]


@dataclass(frozen=True)
class Workload:
    invocations: Callable[[int], list[Invocation]]  # sweep index -> invocation list
    inputs: dict[str, str]  # generated file -> sha256


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


def expander_edges(n: int, d: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Simple connected d-regular graph as a union of d random perfect matchings."""
    while True:
        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int]] = []
        for _ in range(d):
            for _ in range(1000):
                pairs = [tuple(sorted(p)) for p in rng.permutation(n).reshape(-1, 2).tolist()]
                if len(set(pairs)) == len(pairs) and seen.isdisjoint(pairs):
                    seen.update(pairs)
                    edges.extend(pairs)
                    break
            else:
                break
        if len(edges) == n * d // 2 and _connected(n, edges):
            return edges


def write_expander_file(path: Path, n: int, seed: int) -> np.ndarray:
    """Weighted expander edge list, conductances log-uniform in [1e-2, 1e2].
    Returns the conductances in file order."""
    rng = _rng(seed, 1)
    edges = expander_edges(n, EXPANDER_DEGREE, rng)
    conductances = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), len(edges)))
    lines = [f"# weighted {EXPANDER_DEGREE}-regular expander n={n} seed={seed}"]
    lines += [f"{a} {b} {float(c)!r}" for (a, b), c in zip(edges, conductances)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return conductances


def write_weights_file(path: Path, m: int, seed: int) -> np.ndarray:
    """Per-edge elimination weights, uniform in [0.5, 2]."""
    w = _rng(seed, 2).uniform(0.5, 2.0, m)
    path.write_text("\n".join(repr(float(x)) for x in w) + "\n", encoding="utf-8")
    return w


def write_demands_file(path: Path, n: int, count: int, seed: int) -> list[tuple[int, int, float]]:
    """``count`` demands between distinct uniform vertices, amounts uniform in [0.5, 2]."""
    rng = _rng(seed, 3)
    demands = []
    for _ in range(count):
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        demands.append((s, t, float(rng.uniform(0.5, 2.0))))
    lines = [f"# {count} demands on n={n} seed={seed}"]
    lines += [f"{s} {t} {a!r}" for s, t, a in demands]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return demands


def verify_seed(seed: int, sweep: int) -> int:
    """The --seed of the verify invocation in one sweep.  It changes from
    sweep to sweep because the work of a verify run depends strongly on the
    random terminal-set sizes it draws; the median over many sweeps then
    measures the program, not one lucky or unlucky draw."""
    return int(np.random.SeedSequence([seed, 4, sweep]).generate_state(1)[0])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reference_analyze(graph: str, out: Path) -> dict:
    """Dense ``analyze`` in a separate process, so that the reference's m x m
    matrices do not count in this process's peak memory."""
    argv = [sys.executable, "-m", "ohmgraph.cli", "analyze", "--graph", graph,
            "--mode", "dense", "--format", "json", "--out", str(out)]
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"reference analyze of {graph} failed: {proc.stderr.strip()}")
    return json.loads(out.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _analyze(name: str, seed: int, sizes: Sizes, workdir: Path) -> Workload:
    side = sizes.analyze_torus
    torus = f"torus:{side}"
    exp_path = workdir / "expander_weighted.txt"
    conductances = write_expander_file(exp_path, sizes.expander_n, seed)
    streaming = name == "analyze_streaming"
    mode = ["--mode", "streaming"] if streaming else []
    ref_torus = reference_analyze(torus, workdir / "ref_torus.json") if streaming else None
    ref_exp = reference_analyze(str(exp_path), workdir / "ref_expander.json") if streaming else None
    invs = [
        Invocation(
            ("analyze", "--graph", torus, "--format", "json", *mode),
            partial(checks.check_analyze, n=side * side, conductances=np.ones(2 * side * side),
                    reference=ref_torus),
        ),
        Invocation(
            ("analyze", "--graph", str(exp_path), "--format", "json", *mode),
            partial(checks.check_analyze, n=sizes.expander_n, conductances=conductances,
                    reference=ref_exp),
        ),
    ]
    return Workload(lambda sweep: invs, {exp_path.name: _sha256(exp_path)})


def _eliminate_verify_route(name: str, seed: int, sizes: Sizes, workdir: Path) -> Workload:
    vi_torus = f"torus:{sizes.elim_vi_torus}"
    expander = f"expander:{sizes.elim_expander_n}:{EXPANDER_DEGREE}:{seed}"
    skip_torus = f"torus:{sizes.elim_skip_torus}"
    g_torus = parse_family_spec(vi_torus)
    g_exp = parse_family_spec(expander)
    w_path = workdir / "weights.txt"
    w = write_weights_file(w_path, g_exp.n_edges, seed)
    side = sizes.route_torus
    route_torus = f"torus:{side}"
    d_path = workdir / "demands.txt"
    demands = write_demands_file(d_path, side * side, sizes.demands, seed)
    bound_ref = reference_analyze(route_torus, workdir / "ref_route_torus.json")["max_colsum_abs_pi"]
    eliminate = [
        Invocation(
            ("eliminate", "--graph", vi_torus, "--w", "ones"),
            partial(checks.check_eliminate, n=g_torus.n_vertices,
                    v0_ref=quadratic_form_abs(g_torus, np.ones(g_torus.n_edges))),
        ),
        Invocation(
            ("eliminate", "--graph", expander, "--w", str(w_path)),
            partial(checks.check_eliminate, n=g_exp.n_vertices, v0_ref=quadratic_form_abs(g_exp, w)),
        ),
        Invocation(
            ("eliminate", "--graph", skip_torus, "--skip-vi"),
            partial(checks.check_eliminate, n=sizes.elim_skip_torus ** 2, v0_ref=None),
        ),
    ]
    route = Invocation(
        ("route", "--graph", route_torus, "--demands-file", str(d_path)),
        partial(checks.check_route, n=side * side, demands=demands, bound_ref=bound_ref),
    )
    verify_check = partial(checks.check_verify, trials=sizes.verify_trials)

    def invocations(sweep: int) -> list[Invocation]:
        verify = ("verify", "--graph", f"torus:{sizes.verify_torus}", "--trials",
                  str(sizes.verify_trials), "--seed", str(verify_seed(seed, sweep)))
        return eliminate + [Invocation(verify, verify_check), route]

    return Workload(invocations, {p.name: _sha256(p) for p in (w_path, d_path)})


_BUILDERS = {
    "analyze_dense": _analyze,
    "analyze_streaming": _analyze,
    "eliminate_verify_route": _eliminate_verify_route,
}


def build(name: str, seed: int, sizes: Sizes, workdir: Path) -> Workload:
    """Generate the workload's inputs under ``workdir`` and its untimed references."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](name, seed, sizes, workdir)
