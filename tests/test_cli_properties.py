"""Hostile input end to end: whatever a small graph file, weights file, demand
set or family spec holds, ``cli_main`` exits with a documented code, explains
a nonzero exit in exactly one stderr line, and never prints NaN or Infinity.

Every drawn graph file has at most 8 vertices, and every drawn family spec
either builds a graph of at most 64 vertices or lies far over the family size
cap, so no example allocates more than a few kilobytes of graph.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import event, given, settings
from hypothesis import strategies as st

from ohmgraph.cli import cli_main

VERTEX_IDS = st.integers(0, 7).map(str)
ODD_IDS = st.sampled_from(["-1", "1.0", "2.5", "0x3", "1e3", "x", "9223372036854775807", "9223372036854775808"])
# valid conductances and amounts, some at the ends of double precision
REALS = st.floats(1e-3, 1e3).map(repr) | st.sampled_from(["1e308", "1e200", "5e-324", "1e-308", "1e-200", "1"])
BAD_REALS = st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-1", "0x1", "1,5", "9223372036854775808"])
MALFORMED = st.sampled_from(["", "# comment", "0 1", "0 1 1 1", "a b c", "0 1 1 # note", "\t"])

VALID_SPECS = st.sampled_from(
    ["torus:3", "family:torus:4", "hypercube:3", "path:5", "complete:5", "parallel_paths:3", "expander:8:3:1",
     "erdos_renyi:6:0.5:2", "triangle"]
)
# 10**7 and the larger integers are over the size cap of every family
ODD_SPECS = st.builds(
    lambda prefix, name, args: prefix + ":".join([name, *args]),
    st.sampled_from(["", "family:"]),
    st.sampled_from(["torus", "hypercube", "path", "complete", "parallel_paths", "expander", "erdos_renyi",
                     "triangle", "moebius", ""]),
    st.lists(
        st.integers(-3, 6).map(str)
        | st.sampled_from(["10000000", "99999999999999999999", "-99999999999999999999", "0.5", "nan", "inf",
                           "1e3", "0x10", "", "x"]),
        max_size=3,
    ),
)


def _triple(ids, reals):
    return st.tuples(ids, ids, reals).map(" ".join)


@st.composite
def _graph_file(draw, hostile):
    """A spanning path on up to 8 vertices and up to 6 more edges, shuffled;
    a hostile file may hold any id, value or malformed line."""
    reals = REALS | BAD_REALS if hostile else REALS
    n = draw(st.integers(2, 8))
    lines = [f"{i} {i + 1} {draw(reals)}" for i in range(n - 1)]
    ids = VERTEX_IDS | ODD_IDS if hostile else st.integers(0, n - 1).map(str)
    extra = _triple(ids, reals).filter(lambda line: line.split()[0] != line.split()[1] or hostile)
    lines += draw(st.lists(extra | MALFORMED if hostile else extra, max_size=6))
    return "\n".join(draw(st.permutations(lines))) + draw(st.sampled_from(["", "\n"]))


@st.composite
def invocations(draw):
    """``(argv, files)``: a command line whose file arguments name keys of
    ``files``, the texts to write before the call.  About half the draws
    are hostile: any argument may be malformed or out of range."""
    hostile = draw(st.booleans())
    files = {}
    if draw(st.booleans()):
        graph = draw(VALID_SPECS | ODD_SPECS if hostile else VALID_SPECS)
    else:
        files["graph.txt"] = draw(_graph_file(hostile))
        graph = "graph.txt"
    cmd = draw(st.sampled_from(["analyze", "eliminate", "verify", "route", "generate"]))
    argv = [cmd, "--graph", graph]
    if cmd == "analyze":
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
        argv += ["--mode", draw(st.sampled_from(["auto", "dense", "streaming"]))]
    elif cmd == "eliminate":
        weights = draw(st.sampled_from(["ones", "missing.txt", "w.txt"])) if hostile else "ones"
        if weights == "w.txt":
            files["w.txt"] = " ".join(draw(st.lists(REALS | BAD_REALS, max_size=20)))
        argv += ["--w", weights] + draw(st.sampled_from([[], ["--skip-vi"]]))
    elif cmd == "verify":
        argv += ["--trials", str(draw(st.integers(-1, 3) if hostile else st.integers(1, 3)))]
        argv += ["--seed", str(draw(st.integers(0, 9)))]
        argv += ["--prop", draw(st.sampled_from(["all", "sum_potentials", "norm_energy", "schur_conductance"]))]
    elif cmd == "route":
        line = _triple(VERTEX_IDS | ODD_IDS, REALS | BAD_REALS) | MALFORMED if hostile else _triple(
            st.integers(0, 2).map(str), REALS
        ).filter(lambda d: d.split()[0] != d.split()[1])
        demands = draw(st.lists(line, min_size=0 if hostile else 1, max_size=4))
        if draw(st.booleans()):
            argv += ["--demands", ";".join(demands)]
        else:
            files["d.txt"] = "\n".join(demands)
            argv += ["--demands-file", "d.txt"]
    return argv, files


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invocation=invocations())
def test_hostile_input_exits_cleanly(invocation):
    argv, files = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        # a warning raised as an error escapes cli_main and fails the example
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    stderr = err.getvalue()
    if code:
        assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
    else:
        assert stderr == ""
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
