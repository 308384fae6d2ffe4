import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ohmgraph.cli as cli
from ohmgraph import Demand, TransferImpedance, parse_family_spec, read_graph, route_demands


# Runs every subcommand that needs a connected graph on the file named by
# argv[1], in a process whose address space is capped at 1 GiB, and prints
# [subcommand, exit code, stderr] per run as JSON.
_CAPPED_CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from ohmgraph.cli import cli_main
runs = []
for cmd, *extra in (["analyze"], ["eliminate"], ["verify"], ["route", "--demands", "0 1 1"]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main([cmd, "--graph", sys.argv[1], *extra])
    runs.append([cmd, code, err.getvalue()])
print(json.dumps(runs))
"""


def run(capsys, *argv):
    code = cli.cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_warned(capsys, *argv):
    """``run`` plus the RuntimeWarnings the command raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    return (*result, [w for w in caught if issubclass(w.category, RuntimeWarning)])


def write_scaled(path, spec, factor):
    g = parse_family_spec(spec)
    path.write_text("".join(f"{t} {h} {c * factor!r}\n" for t, h, c in g.edge_list()))
    return str(path)


class TestGenerate:
    def test_family_to_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "--graph", "family:torus:3")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 18

    def test_edgeless_graph_prints_one_newline(self, capsys):
        code, out, _ = run(capsys, "generate", "--graph", "erdos_renyi:5:0.01")
        assert (code, out) == (0, "\n")

    def test_out_file_round_trips(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        code, _, _ = run(capsys, "generate", "--graph", "torus:3", "--out", str(target))
        assert code == 0
        g = read_graph(str(target))
        assert (g.n_vertices, g.n_edges) == (9, 18)

    def test_file_input_copies(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("# c\n0 1 2.5\n")
        code, out, _ = run(capsys, "generate", "--graph", str(src))
        assert code == 0
        assert out.strip() == "0 1 2.5"


class TestAnalyze:
    def test_torus4_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", "family:torus:4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 16 and doc["m"] == 32
        assert abs(doc["trace_pi"] - 15.0) <= 1e-8
        assert set(doc) == {
            "n", "m", "trace_pi", "spectral_norm_abs_pi", "max_colsum_abs_pi",
            "sum_delta", "mean_delta", "max_delta", "per_edge",
        }
        assert len(doc["per_edge"]) == 32
        row = doc["per_edge"][0]
        assert set(row) == {"tail", "head", "delta", "l1", "reff"}
        assert row["delta"] == pytest.approx(row["l1"])

    def test_csv_header_fixed(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", "triangle", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tail,head,delta,l1,reff"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(4 / 3, abs=1e-9)
        assert float(first[4]) == pytest.approx(2 / 3, abs=1e-9)

    def test_weighted_graph_nulls_delta(self, capsys, tmp_path):
        src = tmp_path / "w.txt"
        src.write_text("0 1 2.0\n1 2 1.0\n2 0 1.0\n")
        code, out, _ = run(capsys, "analyze", "--graph", str(src))
        assert code == 0
        doc = json.loads(out)
        assert doc["sum_delta"] is None
        assert doc["per_edge"][0]["delta"] is None
        assert doc["per_edge"][0]["l1"] > 0

    def test_streaming_mode_matches_dense(self, capsys):
        code, dense_out, _ = run(capsys, "analyze", "--graph", "torus:3", "--mode", "dense")
        assert code == 0
        code, stream_out, _ = run(capsys, "analyze", "--graph", "torus:3", "--mode", "streaming")
        assert code == 0
        a, b = json.loads(dense_out), json.loads(stream_out)
        assert a["trace_pi"] == pytest.approx(b["trace_pi"], abs=1e-9)
        assert a["sum_delta"] == pytest.approx(b["sum_delta"], abs=1e-9)


class TestEliminate:
    def test_path4_trace_lines(self, capsys):
        code, out, _ = run(capsys, "eliminate", "--graph", "family:path:4")
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        steps, summary = lines[:-1], lines[-1]
        assert len(steps) == 2
        assert all(s["slack"] <= 1e-8 for s in steps)
        assert summary["steps"] == 2
        assert summary["v_terminal"] <= summary["w_norm_sq"] + 1e-8

    def test_skip_vi(self, capsys):
        code, out, _ = run(capsys, "eliminate", "--graph", "path:4", "--skip-vi")
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert all(s["v_i"] is None and s["slack"] is None for s in lines[:-1])

    def test_weights_file(self, capsys, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("1.0 2.0 0.5\n")
        code, out, _ = run(capsys, "eliminate", "--graph", "path:4", "--w", str(wfile))
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["w_norm_sq"] == pytest.approx(1 + 4 + 0.25)

    def test_large_weights_file(self, capsys, tmp_path):
        # degrees reach 1.3e7; the rank-one check is relative to them
        wfile = tmp_path / "w.txt"
        wfile.write_text("1000.0\n" * 128)
        code, out, err = run(capsys, "eliminate", "--graph", "expander:64:4:3", "--w", str(wfile))
        assert (code, err) == (0, "")
        _, ones, _ = run(capsys, "eliminate", "--graph", "expander:64:4:3", "--skip-vi")
        pivots = [[json.loads(l).get("pivot") for l in text.splitlines()] for text in (out, ones)]
        assert pivots[0] == pivots[1]

    def test_conductance_scale_does_not_move_pivots(self, capsys, tmp_path):
        # degrees, the rank-one check, the terminal-pair check and the
        # tracked V_i (zeroed on entries of Pi) are scale-free, so every
        # scale in range gives the unit-scale pivots and values
        for flags in ([], ["--skip-vi"]):
            _, out, _ = run(capsys, "eliminate", "--graph", "torus:6", *flags)
            want = [json.loads(l) for l in out.splitlines()]
            for factor in (1e-300, 1e-160, 1e-100, 1e-31, 1e11, 1e12, 1e20, 1e160, 1e300):
                src = write_scaled(tmp_path / f"torus6_x{factor:g}.txt", "torus:6", factor)
                code, out, err, caught = run_warned(capsys, "eliminate", "--graph", src, *flags)
                assert (code, err, caught) == (0, "", []), (flags, factor, err)
                got = [json.loads(l) for l in out.splitlines()]
                assert [r.get("pivot") for r in got] == [r.get("pivot") for r in want], (flags, factor)
                assert got[-1]["terminal"] == want[-1]["terminal"]
                for g, w in zip(got[:-1], want[:-1]):
                    assert abs(g["degree_value"] - w["degree_value"]) <= 1e-12 * w["degree_value"], (flags, factor)
                if flags:
                    continue
                v0 = want[-1]["v0"]
                for key in ("v0", "v_terminal"):
                    assert abs(got[-1][key] - want[-1][key]) <= 1e-12 * want[-1][key], (factor, key)
                for g, w in zip(got[:-1], want[:-1]):
                    assert abs(g["v_i"] - w["v_i"]) <= 1e-12 * w["v_i"], (factor, g)
                    assert abs(g["slack"] - w["slack"]) <= 1e-12 * v0, (factor, g)
            # every conductance subnormal: the drop energies have lost their precision
            src = write_scaled(tmp_path / "torus6_subnormal.txt", "torus:6", 5e-324)
            code, out, err, caught = run_warned(capsys, "eliminate", "--graph", src, *flags)
            assert (code, out, caught) == (2, "", []), (flags, err)
            assert err.startswith("numerical error:") and err.count("\n") == 1, (flags, err)

    @pytest.mark.parametrize("flags", [[], ["--skip-vi"]])
    def test_step_lines_are_json_dumps_of_their_records(self, capsys, tmp_path, flags):
        wfile = tmp_path / "w.txt"
        wfile.write_text("\n".join(repr(x) for x in np.random.default_rng(5).uniform(1e-3, 1e3, 32).tolist()))
        code, out, err = run(capsys, "eliminate", "--graph", "torus:4", "--w", str(wfile), *flags)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 15
        for line in lines[:-1]:
            record = json.loads(line)
            assert line == json.dumps(record)
            assert list(record) == ["i", "pivot", "degree_value", "v_i", "slack"]
            assert (record["v_i"] is None) == bool(flags)
        assert json.loads(lines[-1])["steps"] == 14

    @pytest.mark.parametrize("flags", [[], ["--skip-vi"]])
    def test_two_vertices_print_only_the_summary(self, capsys, flags):
        code, out, _ = run(capsys, "eliminate", "--graph", "path:2", *flags)
        assert code == 0
        assert out.count("\n") == 1 and json.loads(out)["steps"] == 0

    def test_bad_weights_count(self, capsys, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("1.0 2.0\n")
        code, _, err = run(capsys, "eliminate", "--graph", "path:4", "--w", str(wfile))
        assert code == 1
        assert "expected 3 weights" in err


class TestVerify:
    def test_path4_sum_potentials_all_ok(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--graph", "family:path:4", "--prop", "sum_potentials", "--trials", "10"
        )
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()]
        assert len(records) == 10
        assert all(r["ok"] for r in records)
        assert all(r["prop"] == "sum_potentials" for r in records)
        assert set(records[0]) == {"prop", "graph", "params", "lhs", "rhs", "ok"}

    def test_all_props_on_torus(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "torus:3", "--trials", "5")
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()]
        assert {r["prop"] for r in records} == {"sum_potentials", "norm_energy", "schur_conductance"}

    def test_seed_reproducible(self, capsys):
        _, out1, _ = run(capsys, "verify", "--graph", "torus:3", "--trials", "3", "--seed", "5")
        _, out2, _ = run(capsys, "verify", "--graph", "torus:3", "--trials", "3", "--seed", "5")
        assert out1 == out2

    def test_scaled_conductances_verify_like_unscaled(self, capsys, tmp_path):
        # the checks are relative to the conductance scale, so scaling every
        # conductance changes no verdict and no drawn parameter
        argv = ("verify", "--trials", "20", "--seed", "2")
        code, out, _ = run(capsys, *argv, "--graph", "torus:6")
        assert code == 0
        reference = [(r["params"], r["ok"]) for r in map(json.loads, out.splitlines())]
        for factor in (1e9, 1e12, 1e-20):
            src = write_scaled(tmp_path / f"torus6_x{factor:g}.txt", "torus:6", factor)
            code, out, err = run(capsys, *argv, "--graph", src)
            assert code == 0, (factor, err)
            assert [(r["params"], r["ok"]) for r in map(json.loads, out.splitlines())] == reference

    def test_overflowing_schur_complement_is_numerical_failure(self, capsys, tmp_path):
        # weighted degrees of 3e308 overflow; no input edge is at fault, and
        # every subcommand assembles the same Laplacian
        src = tmp_path / "huge_conductances.txt"
        src.write_text("0 1 1e308\n1 2 1e308\n2 3 1e308\n3 0 1e308\n0 2 1e308\n")
        for argv in (["verify", "--trials", "3"], ["analyze"], ["route", "--demands", "0 2 1"], ["eliminate"]):
            code, out, err, caught = run_warned(capsys, *argv, "--graph", str(src))
            assert (code, out) == (2, ""), (argv, out, err)
            assert err.startswith("numerical error:") and err.count("\n") == 1, (argv, err)
            assert "not finite" in err, (argv, err)
            assert not caught, (argv, caught)

    @pytest.mark.parametrize(
        "prop, check, pair",
        [
            ("norm_energy", "check_norm_energy", (1e-17, 1e-20)),
            ("schur_conductance", "check_schur_conductance", (2e-20, 1e-20)),
        ],
    )
    def test_contract_failure_at_tiny_scale_exits_3(self, capsys, monkeypatch, prop, check, pair):
        # lhs is 1000x and 2x its rhs: the tolerances are relative, so no
        # conductance scale is small enough to pass it
        monkeypatch.setattr(cli, check, lambda *args: pair)
        code, out, _ = run(capsys, "verify", "--graph", "path:4", "--prop", prop, "--trials", "2")
        assert code == 3
        assert not any(json.loads(l)["ok"] for l in out.splitlines())

    def test_contract_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_sum_potentials", lambda sys_, e: 5.0)
        code, out, err = run(
            capsys, "verify", "--graph", "path:4", "--prop", "sum_potentials", "--trials", "2"
        )
        assert code == 3
        records = [json.loads(l) for l in out.splitlines()]
        assert any(not r["ok"] for r in records)
        assert err == "contract failure: 2 of 2 records failed\n"


class TestRoute:
    def test_triangle_demand(self, capsys):
        code, out, _ = run(capsys, "route", "--graph", "family:triangle", "--demands", "0 1 1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_congestion"] == pytest.approx(2 / 3, abs=1e-9)
        assert doc["competitive_ratio_bound"] == pytest.approx(4 / 3, abs=1e-9)
        assert len(doc["per_edge"]) == 3
        assert set(doc["per_edge"][0]) == {"tail", "head", "flow", "congestion"}

    def test_demands_file_and_semicolons(self, capsys, tmp_path):
        dfile = tmp_path / "d.txt"
        dfile.write_text("# pairs\n0 1 0.5\n")
        code, out, _ = run(
            capsys, "route", "--graph", "torus:3",
            "--demands", "0 4 1.0; 2 6 0.25",
            "--demands-file", str(dfile),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_congestion"] > 0

    def test_missing_demands(self, capsys):
        code, _, err = run(capsys, "route", "--graph", "triangle")
        assert code == 1
        assert "demand" in err


def _analyze_doc(g):
    """The analyze document as ``json.dumps(doc, indent=2)`` would print it."""
    tp = TransferImpedance(g)
    colsums, l1, diag = tp.per_edge_stats()
    reff = diag / g.conductances
    unweighted = g.is_unweighted
    return {
        "n": g.n_vertices,
        "m": g.n_edges,
        "trace_pi": float(diag.sum()),
        "spectral_norm_abs_pi": tp.abs_spectral_norm().value,
        "max_colsum_abs_pi": float(colsums.max()),
        "sum_delta": float(colsums.sum()) if unweighted else None,
        "mean_delta": float(colsums.mean()) if unweighted else None,
        "max_delta": float(colsums.max()) if unweighted else None,
        "per_edge": [
            {
                "tail": int(g.tails[e]),
                "head": int(g.heads[e]),
                "delta": float(colsums[e]) if unweighted else None,
                "l1": float(l1[e]),
                "reff": float(reff[e]),
            }
            for e in range(g.n_edges)
        ],
    }


def _route_doc(g, demands):
    report = route_demands(g, demands)
    return {
        "max_congestion": report.max_congestion,
        "competitive_ratio_bound": report.competitive_ratio_bound,
        "per_edge": [
            {"tail": int(t), "head": int(h), "flow": float(f), "congestion": float(c)}
            for t, h, f, c in zip(g.tails, g.heads, report.flow, report.congestion)
        ],
    }


class TestTableWriter:
    """The per-edge tables are byte-identical to ``json.dumps(doc, indent=2)``."""

    @pytest.fixture
    def wide_file(self, tmp_path):
        # conductances 1e-7 and 3e5 give numbers whose repr has an exponent
        edges = [(i, (i + 1) % 12, 1e-7 if i % 3 else 3e5) for i in range(12)]
        edges += [(i, (i + 5) % 12, 2.5) for i in range(0, 12, 2)]
        path = tmp_path / "wide.txt"
        path.write_text("".join(f"{t} {h} {c!r}\n" for t, h, c in edges))
        return path

    def test_analyze_unweighted(self, capsys):
        code, out, _ = run(capsys, "analyze", "--graph", "torus:5")
        assert code == 0
        expected = json.dumps(_analyze_doc(parse_family_spec("torus:5")), indent=2) + "\n"
        assert '"delta": null' not in out
        assert out == expected

    def test_analyze_weighted_with_exponents(self, capsys, wide_file):
        code, out, _ = run(capsys, "analyze", "--graph", str(wide_file))
        assert code == 0
        assert '"delta": null' in out and "e-06" in out
        assert out == json.dumps(_analyze_doc(read_graph(str(wide_file))), indent=2) + "\n"

    def test_route_weighted_and_unweighted(self, capsys, wide_file):
        demands = [Demand(0, 6, 1.5), Demand(7, 3, 2.0), Demand(6, 0, 0.25)]
        argv = ["--demands", "0 6 1.5; 7 3 2.0; 6 0 0.25"]
        for spec, g in ((str(wide_file), read_graph(str(wide_file))), ("torus:4", parse_family_spec("torus:4"))):
            code, out, _ = run(capsys, "route", "--graph", spec, *argv)
            assert code == 0
            doc = _route_doc(g, demands)
            assert (doc["competitive_ratio_bound"] is None) == (spec != "torus:4")
            assert out == json.dumps(doc, indent=2) + "\n"

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "analyze.json"
        code, out, _ = run(capsys, "analyze", "--graph", "hypercube:3", "--out", str(dest))
        assert (code, out) == (0, "")
        expected = json.dumps(_analyze_doc(parse_family_spec("hypercube:3")), indent=2) + "\n"
        assert dest.read_text(encoding="utf-8") == expected

    def test_helper_matches_json_on_edge_cases(self):
        head = {"a": 1, "b": None, "c": float("inf")}
        columns = {"x": np.array([-0.0, 1e300, float("nan")]), "y": None, "z": np.array([3, -4, 5])}
        records = [
            {"x": x, "y": None, "z": z} for x, z in zip(columns["x"].tolist(), columns["z"].tolist())
        ]
        assert cli._dumps_table(head, "rows", columns) == json.dumps({**head, "rows": records}, indent=2)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "prove")
        assert code == 1

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # the parser is built once at import; a usage error or --help must
        # leave nothing behind for the next call in the same process
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        argvs = [["prove"], ["eliminate", "--graph", "path:3"], ["--help"], ["analyze"],
                 ["eliminate", "--graph", "path:3", "--skip-vi"], ["eliminate", "--help"]]
        assert [run(capsys, *argv)[0] for argv in argvs] == [1, 0, 0, 1, 0, 0]

    def test_missing_graph_flag(self, capsys):
        code, _, _ = run(capsys, "analyze")
        assert code == 1
        code, out, err = run(capsys, "verify", "--graph", "torus:3", "--trials", "-1")
        assert (code, out) == (1, "")
        assert "--trials" in err

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "analyze", "--graph", "family:moebius:3")
        assert code == 1
        assert "family" in err
        code, _, err = run(capsys, "analyze", "--graph", "expander:64:4:7:1")
        assert code == 1
        assert "family 'expander' expects parameters: n d [seed]" in err

    def test_nonexistent_path(self, capsys):
        code, _, _ = run(capsys, "analyze", "--graph", "/nonexistent/graph.txt")
        assert code == 1

    def test_parse_error_line_number(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("0 1 1.0\n0 zero 1\n")
        code, _, err = run(capsys, "analyze", "--graph", str(src))
        assert code == 1
        assert ":2:" in err

    def test_disconnected_graph_is_numerical_failure(self, capsys, tmp_path):
        src = tmp_path / "disc.txt"
        src.write_text("0 1 1.0\n2 3 1.0\n")
        code, _, err = run(capsys, "analyze", "--graph", str(src))
        assert code == 2
        assert "disconnected" in err

    def test_huge_vertex_id_fails_fast_on_connectivity(self, tmp_path):
        # one edge naming vertex 10^9: nothing of size n may be allocated
        src = tmp_path / "huge.txt"
        src.write_text("0 1000000000 1\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_CHILD, str(src)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        assert [cmd for cmd, _, _ in runs] == ["analyze", "eliminate", "verify", "route"]
        for cmd, code, err in runs:
            assert code == 2, (cmd, err)
            assert "connected" in err and "out of memory" not in err, (cmd, err)

    @pytest.mark.parametrize(
        "argv, files, want",
        [
            (["route", "--graph", "triangle", "--demands", "0 1 inf"], {}, 1),
            (["route", "--graph", "triangle", "--demands", "0 1 1e308;0 1 1e308"], {}, 2),
            (["route", "--graph", "path:4", "--demands", "0 3 1e308"], {}, 2),
            (
                ["route", "--graph", "{tiny.txt}", "--demands", "0 1 1e10"],
                {"tiny.txt": "0 1 1e-300\n1 2 1e-300\n2 0 1e-300\n"},
                2,
            ),
            (["eliminate", "--graph", "triangle", "--w", "{w.txt}"], {"w.txt": "1e200 1 1\n"}, 2),
            (
                ["verify", "--graph", "{subnormal.txt}", "--trials", "3"],
                {"subnormal.txt": "0 1 5e-324\n1 2 5e-324\n2 0 5e-324\n"},
                2,
            ),
        ],
        ids=["inf_amount", "summed_overflow", "potential_overflow", "tiny_conductance", "huge_weight", "subnormal_verify"],
    )
    def test_hostile_numbers_fail_cleanly(self, capsys, tmp_path, argv, files, want):
        # a bad amount is a usage error; an overflow, or a drop energy with no
        # significant digit left, is a numerical failure, never NaN or
        # Infinity (or a verdict on nothing) on stdout beside a numpy warning
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a[1:-1]) if a[1:-1] in files else a for a in argv]
        code, out, err, caught = run_warned(capsys, *argv)
        assert (code, out, caught) == (want, "", []), err
        assert err.startswith("numerical error:" if want == 2 else "error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["eliminate"], ["route", "--demands", "0 4 1"], ["verify", "--trials", "40", "--seed", "3"]],
        ids=lambda a: a[0],
    )
    def test_unresolvable_conductance_spread_names_the_conductances(self, capsys, tmp_path, argv):
        # 1e200 + 1e-200 rounds to 1e200, so the connected path's Laplacian
        # blocks are singular in double precision; analyze, eliminate and
        # route fail on the grounded block, verify on a Schur interior block
        f = tmp_path / "spread.txt"
        f.write_text("0 1 1e-200\n1 2 1e200\n2 3 1e-200\n3 4 1\n")
        code, out, err = run(capsys, argv[0], "--graph", str(f), *argv[1:])
        assert (code, out) == (2, ""), err
        assert err.startswith("numerical error:") and err.count("\n") == 1, err
        assert "conductances span 1e-200 to 1e+200" in err and "leading minor" not in err

    def test_memory_error_is_numerical_failure(self, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "load_graph", exhausted)
        code, _, err = run(capsys, "analyze", "--graph", "torus:4")
        assert code == 2
        assert err.startswith("numerical error:") and "out of memory" in err
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "generate" in out
