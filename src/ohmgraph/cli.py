"""Command-line surface: generate, analyze, eliminate, verify, route.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 at least one
verification record failed its contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .electrical import TransferImpedance
from .graph import Graph, is_connected, parse_family_spec, read_graph
from .localization import run_elimination
from .routing import Demand, parse_demands, route_demands
from .schur import (
    check_norm_energy,
    check_schur_conductance,
    check_sum_potentials,
    schur_complement,
)
from .solver import DisconnectedGraphError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_CONTRACT = 3

_PROPS = ("sum_potentials", "norm_energy", "schur_conductance")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors through exit code 1
        raise UsageError(message)


def load_graph(spec: str) -> Graph:
    """Resolve --graph: an existing file path wins, otherwise a family spec
    (with optional `family:` prefix) such as `torus:8` or `expander:64:4`."""
    if os.path.isfile(spec):
        return read_graph(spec)
    try:
        return parse_family_spec(spec)
    except ValueError as exc:
        raise UsageError(f"--graph {spec!r}: not an existing file and not a family spec ({exc})")


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rows(columns: dict, field: str, sep: str, null: str = "", prefix: str = "", suffix: str = "") -> list[str]:
    """One text row per entry of the equal-length 1-D arrays in ``columns``.

    Each column gives one ``field``, formatted with the column's JSON name
    and the text of the row's entry, or with ``null`` for a ``None`` column.
    A row is ``prefix``, the fields joined by ``sep``, and ``suffix``, so
    braces in those two are doubled.  Entry texts come from one call of
    json's C encoder per column: a float prints as its ``repr``, the
    shortest text that reads back to the same double.
    """
    fields, texts = [], []
    for name, values in columns.items():
        fields.append(field.format(json.dumps(name), null if values is None else "{}"))
        if values is not None:  # json.dumps([])[1:-1] would split into one empty row
            texts.append(json.dumps(values.tolist())[1:-1].split(", ") if len(values) else [])
    return list(map((prefix + sep.join(fields) + suffix).format, *texts))


def _dumps_table(head: dict, key: str, columns: dict) -> str:
    """``json.dumps({**head, key: records}, indent=2)``, byte for byte.

    Record i maps each name of ``columns`` to entry i of its 1-D array, or to
    null for a ``None`` column; there is at least one record.  With
    ``indent`` set, json runs its pure-Python encoder; here every record is
    one fill of a fixed template by :func:`_rows`.
    """
    rows = ",\n".join(_rows(columns, "      {}: {}", ",\n", "null", "    {{\n", "\n    }}"))
    return f"{json.dumps(head, indent=2)[:-2]},\n  {json.dumps(key)}: [\n{rows}\n  ]\n}}"


def _cmd_generate(args) -> int:
    g = load_graph(args.graph)
    columns = {"tail": g.tails, "head": g.heads, "conductance": g.conductances}
    _emit("\n".join(_rows(columns, "{1}", " ")), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    g = load_graph(args.graph)
    tp = TransferImpedance(g, mode=args.mode)
    colsums, l1, diag = tp.per_edge_stats()
    reff = diag / g.conductances
    unweighted = g.is_unweighted
    delta = colsums if unweighted else None
    columns = {"tail": g.tails, "head": g.heads, "delta": delta, "l1": l1, "reff": reff}
    if args.format == "csv":
        _emit("\n".join([",".join(columns), *_rows(columns, "{1}", ",")]), args.out)
        return EXIT_OK
    spectral = tp.abs_spectral_norm()
    head = {
        "n": g.n_vertices,
        "m": g.n_edges,
        "trace_pi": float(diag.sum()),
        "spectral_norm_abs_pi": spectral.value,
        "max_colsum_abs_pi": float(colsums.max()),
        "sum_delta": float(delta.sum()) if unweighted else None,
        "mean_delta": float(delta.mean()) if unweighted else None,
        "max_delta": float(delta.max()) if unweighted else None,
    }
    _emit(_dumps_table(head, "per_edge", columns), args.out)
    return EXIT_OK


def _load_weights(spec: str, m: int) -> np.ndarray:
    if spec == "ones":
        return np.ones(m)
    if not os.path.isfile(spec):
        raise UsageError(f"--w {spec!r}: expected 'ones' or a readable file of edge weights")
    with open(spec, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        w = np.array([float(t) for t in tokens])
    except ValueError:
        raise UsageError(f"--w {spec!r}: file must contain whitespace-separated reals")
    if w.shape != (m,):
        raise UsageError(f"--w {spec!r}: expected {m} weights, found {w.size}")
    return w


def _cmd_eliminate(args) -> int:
    g = load_graph(args.graph)
    w = _load_weights(args.w, g.n_edges)
    trace = run_elimination(g, w, compute_vi=not args.skip_vi)
    steps = trace.steps
    columns = {
        "i": np.arange(len(steps)),
        "pivot": np.array([s.pivot for s in steps]),
        "degree_value": np.array([s.degree_value for s in steps]),
        "v_i": None if args.skip_vi else np.array([s.v_i for s in steps]),
        "slack": None if args.skip_vi else np.array([s.slack for s in steps]),
    }
    lines = _rows(columns, "{}: {}", ", ", "null", "{{", "}}")
    summary = {
        "terminal": list(trace.terminal_pair),
        "v_terminal": trace.v_terminal,
        "v0": trace.v_initial,
        "w_norm_sq": trace.w_norm_sq,
        "steps": len(trace.steps),
    }
    lines.append(json.dumps(summary))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = load_graph(args.graph)
    props = _PROPS if args.prop == "all" else (args.prop,)
    rng = np.random.default_rng(args.seed)
    n = g.n_vertices
    if args.trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {args.trials}")
    if n < 2:
        raise UsageError("verification requires a graph with at least 2 vertices")
    if not is_connected(g):  # before any draw of up to n terminal ids
        raise DisconnectedGraphError("verification requires a connected graph")
    records = []
    for _ in range(args.trials):
        size = int(rng.integers(2, n + 1))
        S = np.sort(rng.choice(n, size=size, replace=False))
        terminals = [int(v) for v in S]
        system = schur_complement(g, S)
        for prop in props:
            if prop == "sum_potentials":
                params = {"edge": int(rng.integers(g.n_edges))}
                lhs, rhs = check_sum_potentials(system, params["edge"]), 3.0
                ok = lhs <= rhs + 1e-9
            elif prop == "norm_energy":
                params = {"v": int(S[rng.integers(size)]), "p": float(rng.uniform(0.05, 0.95))}
                lhs, rhs = check_norm_energy(system, params["v"], params["p"])
                ok = lhs <= rhs * (1 + 1e-9)
            else:
                params = {"v": int(S[rng.integers(size)])}
                lhs, rhs = check_schur_conductance(system, params["v"])
                ok = abs(lhs - rhs) <= 1e-8 * rhs
            records.append(
                {
                    "prop": prop,
                    "graph": args.graph,
                    "params": {"S": terminals, **params},
                    "lhs": lhs,
                    "rhs": rhs,
                    "ok": bool(ok),
                }
            )
    _emit("\n".join(json.dumps(r) for r in records), args.out)
    failed = sum(not r["ok"] for r in records)
    if failed:
        print(f"contract failure: {failed} of {len(records)} records failed", file=sys.stderr)
        return EXIT_CONTRACT
    return EXIT_OK


def _cmd_route(args) -> int:
    g = load_graph(args.graph)
    demands: list[Demand] = []
    for chunk in args.demands or []:
        demands.extend(parse_demands(chunk.replace(";", "\n"), source_name="--demands"))
    if args.demands_file:
        with open(args.demands_file, "r", encoding="utf-8") as fh:
            demands.extend(parse_demands(fh.read(), source_name=args.demands_file))
    if not demands:
        raise UsageError("route requires at least one demand (--demands or --demands-file)")
    report = route_demands(g, demands)
    head = {
        "max_congestion": report.max_congestion,
        "competitive_ratio_bound": report.competitive_ratio_bound,
    }
    columns = {"tail": g.tails, "head": g.heads, "flow": report.flow, "congestion": report.congestion}
    _emit(_dumps_table(head, "per_edge", columns), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ohmgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="edge-list file or family spec (e.g. family:torus:8)")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("generate", help="emit a graph in edge-list format")
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="impedance statistics and per-edge flow stretch")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--mode", choices=("auto", "dense", "streaming"), default="auto")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("eliminate", help="greedy elimination trace as JSON lines")
    common(p)
    p.add_argument("--w", default="ones", help="'ones' or a file of per-edge weights")
    p.add_argument("--skip-vi", action="store_true", help="record only pivots and degrees")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("verify", help="random sweeps of the probability/energy identities")
    common(p)
    p.add_argument("--prop", choices=_PROPS + ("all",), default="all")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("route", help="electrical-flow routing of a demand set")
    common(p)
    p.add_argument("--demands", action="append", help="inline 'source sink amount' triples; ';' separates")
    p.add_argument("--demands-file", default=None)
    p.set_defaults(func=_cmd_route)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves
# every cli_main call in a process.
_PARSER = build_parser()


def cli_main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        # overflow, 0/0 and x/0 exit 2, never NaN or Infinity beside a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught before the
    # ValueError clause below, which covers UsageError and GraphFormatError.
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("numerical error: out of memory; the input is too large for the memory available", file=sys.stderr)
        return EXIT_NUMERIC
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
