"""Golden stdout corpus for the ``ohmgraph`` subcommands and its comparer.

Each case runs the CLI in-process and compares its stdout with the file
committed under ``tests/golden/``.  The output is read as records: the whole
text when it is one JSON document (``analyze``, ``route``), otherwise one
record per line, a JSON value where the line is one (``eliminate``,
``verify``) and else its comma- or space-separated fields (``analyze
--format csv``, ``generate``), each an int, a float or a string.  Keys,
structure, strings, ints, bools and nulls must match exactly, so pivots, the
terminal pair, step counts, vertex ids and verdicts do; every other number
within ``RTOL`` relative, except ``slack``, which is a difference of V
values and is held within ``RTOL * v0`` absolute.

Regenerate the files after a change that is meant to move roundoff (and
say so in CHANGES.md), or write the file of a new case, with::

    PYTHONPATH=src python tests/golden.py --write [CASE ...]

Named cases are the only ones written (or, without ``--write``, compared);
with no names every case is.  Naming only the new or changed cases keeps the
other files' last digits as committed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

from ohmgraph.cli import cli_main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

RTOL = 1e-12

# name -> argv; file arguments are relative to GOLDEN_DIR
CASES = {
    "eliminate_torus6": ("eliminate", "--graph", "torus:6"),
    "eliminate_expander64_ones": ("eliminate", "--graph", "expander:64:4:3", "--w", "ones"),
    # degrees tie up to roundoff at step 62, so the tie rule picks the pivot
    "eliminate_torus10_skip_vi": ("eliminate", "--graph", "torus:10", "--skip-vi"),
    "eliminate_weighted_file": ("eliminate", "--graph", "@weighted_expander24.txt", "--w", "@weighted_expander24.w"),
    "analyze_torus6": ("analyze", "--graph", "torus:6"),
    "analyze_weighted_file_csv": ("analyze", "--graph", "@weighted_expander24.txt", "--format", "csv"),
    # unweighted, so the delta column is filled
    "analyze_torus4_csv": ("analyze", "--graph", "torus:4", "--format", "csv"),
    "verify_torus6": ("verify", "--graph", "torus:6", "--trials", "5", "--seed", "3"),
    "verify_torus6_norm_energy": ("verify", "--graph", "torus:6", "--prop", "norm_energy", "--trials", "5", "--seed", "3"),
    "route_torus6": ("route", "--graph", "torus:6", "--demands", "0 20 1;3 14 0.5"),
    "generate_expander64": ("generate", "--graph", "expander:64:4:3"),
    # conductances other than 1.0
    "generate_weighted_file": ("generate", "--graph", "@weighted_expander24.txt"),
}


def _argv(case: str) -> list[str]:
    return [str(GOLDEN_DIR / a[1:]) if a.startswith("@") else a for a in CASES[case]]


def run_case(case: str) -> str:
    """Stdout of one case; raises if the command does not exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(_argv(case))
    if code != 0:
        raise RuntimeError(f"{case}: exit {code}: {err.getvalue()}")
    return out.getvalue()


def golden_path(case: str) -> Path:
    suffix = "jsonl" if CASES[case][0] in ("eliminate", "verify") else "txt"
    return GOLDEN_DIR / f"{case}.{suffix}"


def _field(token: str):
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def _records(text: str) -> list:
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        pass
    records = []
    for line in text.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            records.append([_field(t) for t in (line.split(",") if "," in line else line.split())])
    return records


def compare(got_text: str, want_text: str) -> list[str]:
    """Every difference between two outputs beyond the corpus tolerances,
    one message each; empty when they agree."""
    got, want = _records(got_text), _records(want_text)
    if len(got) != len(want):
        return [f"{len(got)} records, expected {len(want)}"]
    v0 = want[-1].get("v0") if isinstance(want[-1], dict) else None
    slack_atol = RTOL * abs(v0) if v0 is not None else 0.0
    errors: list[str] = []

    def diff(g, w, where: str, atol: float | None = None) -> None:
        # a float is held within atol when given, else RTOL relative
        if type(g) is not type(w):
            errors.append(f"{where} = {g!r}, expected {w!r}")
        elif isinstance(w, dict):
            if list(g) != list(w):
                errors.append(f"{where}: keys {list(g)}, expected {list(w)}")
                return
            for key in w:
                diff(g[key], w[key], f"{where}: {key}", slack_atol if key == "slack" else None)
        elif isinstance(w, list):
            if len(g) != len(w):
                errors.append(f"{where}: {len(g)} entries, expected {len(w)}")
                return
            for i, (gi, wi) in enumerate(zip(g, w)):
                diff(gi, wi, f"{where}[{i}]", atol)
        elif isinstance(w, float):
            if not abs(g - w) <= (RTOL * abs(w) if atol is None else atol):  # NaN and inf fail
                errors.append(f"{where} = {g!r}, expected {w!r}")
        elif g != w:  # strings, ints, bools, nulls
            errors.append(f"{where} = {g!r}, expected {w!r}")

    for i, (g, w) in enumerate(zip(got, want)):
        diff(g, w, f"record {i}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="regenerate the golden files of the selected cases")
    parser.add_argument("cases", nargs="*", metavar="CASE", help=f"cases to select (default: all): {', '.join(CASES)}")
    args = parser.parse_args(argv)
    unknown = [c for c in args.cases if c not in CASES]
    if unknown:
        parser.error(f"unknown case(s): {', '.join(unknown)}")
    failed = 0
    for case in args.cases or CASES:
        text = run_case(case)
        if args.write:
            golden_path(case).write_text(text, encoding="utf-8")
            print(f"wrote {golden_path(case)}")
            continue
        errors = compare(text, golden_path(case).read_text(encoding="utf-8"))
        failed += bool(errors)
        print(f"{case}: {'ok' if not errors else 'FAILED'}")
        for e in errors[:10]:
            print(f"  {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
