"""Golden stdout corpus for ``ohmgraph eliminate`` and its comparer.

Each case runs the CLI in-process and compares its JSON lines with the file
committed under ``tests/golden/``.  Pivots, the terminal pair, the keys of
every record and the step count must match exactly; ``degree_value``,
``v_i``, ``v_terminal``, ``v0`` and ``w_norm_sq`` within ``RTOL``
relative; ``slack`` within ``RTOL * v0`` absolute, since it is a
difference of V values.

Regenerate every file (after a change that is meant to move roundoff, and
say so in CHANGES.md) with::

    PYTHONPATH=src python tests/golden.py --write
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
}

_RELATIVE = ("degree_value", "v_i", "v_terminal", "v0", "w_norm_sq")


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
    return GOLDEN_DIR / f"{case}.jsonl"


def _close(got, want, atol: float) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= atol  # NaN and inf fail


def compare(got_text: str, want_text: str) -> list[str]:
    """Every difference between two ``eliminate`` outputs beyond the corpus
    tolerances, one message each; empty when they agree."""
    got = [json.loads(line) for line in got_text.splitlines()]
    want = [json.loads(line) for line in want_text.splitlines()]
    if len(got) != len(want):
        return [f"{len(got)} records, expected {len(want)}"]
    v0 = want[-1]["v0"]
    slack_atol = RTOL * abs(v0) if v0 is not None else 0.0
    errors = []
    for i, (g, w) in enumerate(zip(got, want)):
        if list(g) != list(w):
            errors.append(f"record {i}: keys {list(g)}, expected {list(w)}")
            continue
        for key, want_val in w.items():
            got_val = g[key]
            if key in _RELATIVE:
                ok = _close(got_val, want_val, RTOL * abs(want_val) if want_val is not None else 0.0)
            elif key == "slack":
                ok = _close(got_val, want_val, slack_atol)
            else:  # pivots, indices, terminal pair, step count
                ok = got_val == want_val
            if not ok:
                errors.append(f"record {i}: {key} = {got_val!r}, expected {want_val!r}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="regenerate every golden file")
    args = parser.parse_args(argv)
    failed = 0
    for case in CASES:
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
