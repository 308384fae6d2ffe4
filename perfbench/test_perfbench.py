"""Smoke tests of the benchmark on tiny inputs: every named metric is
reported, every output check passes on real output and fails on corrupted
output, and the generated inputs depend on the seed alone."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture
def out_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path / "out")
    return tmp_path


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_has_ten_samples_beyond_it():
    t = harness.tail([float(i) for i in range(30)])
    assert (t["value"], t["beyond"], t["samples"]) == (19.0, 10, 30)
    assert t["percentile"] == pytest.approx(100 * 20 / 30)
    small = harness.tail([float(i) for i in range(20)])
    assert (small["value"], small["beyond"], small["percentile"]) == (19.0, 0, 100.0)


def test_inputs_are_byte_identical_per_seed(tmp_path):
    def generate(d: Path, seed: int) -> list[bytes]:
        d.mkdir()
        workloads.write_expander_file(d / "e.txt", 16, seed)
        workloads.write_weights_file(d / "w.txt", 32, seed)
        workloads.write_demands_file(d / "d.txt", 16, 4, seed)
        return [(d / f).read_bytes() for f in ("e.txt", "w.txt", "d.txt")]

    first = generate(tmp_path / "a", 7)
    assert generate(tmp_path / "b", 7) == first
    assert all(x != y for x, y in zip(generate(tmp_path / "c", 8), first))


# Layer counters each workload must move, as evidence the trace sees the layer.
_EXERCISED = {
    "analyze_dense": ("electrical.TransferImpedance.s", "electrical.passes_over_pi", "graph.read_graph.s"),
    "analyze_streaming": ("solver.power_iterations", "electrical.abs_matvec.calls", "kernel.cho_solve.calls"),
    "eliminate_verify_route": ("localization.steps", "localization.s_per_step", "schur.schur_complement.calls",
                               "routing.demands", "graph.build_graph.calls"),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(out_dirs, name, trace):
    record = harness.run_workload(name, seed=1, seconds=0.0, trace=trace, sizes=workloads.SMOKE)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 2, record["failures"]
    names = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(names) <= set(record["metrics"])
    assert all(math.isfinite(record["metrics"][n]) for n in names)
    if trace:
        assert all(record["metrics"][n] > 0 for n in _EXERCISED[name])
        assert (out_dirs / "out" / f"{name}-seed1-trace1-spans.jsonl").is_file()
    else:
        assert all(record["metrics"][n] > 0 for n in names)


def _corrupt_json(stdout: str, mutate) -> str:
    doc = json.loads(stdout)
    mutate(doc)
    return json.dumps(doc)


def _corrupt_lines(stdout: str, mutate) -> str:
    records = [json.loads(line) for line in stdout.splitlines()]
    mutate(records)
    return "\n".join(json.dumps(r) for r in records)


_CORRUPTIONS = {
    "analyze": [
        lambda s: _corrupt_json(s, lambda d: d.update(trace_pi=d["trace_pi"] + 1e-3)),
        lambda s: _corrupt_json(s, lambda d: d["per_edge"][0].update(reff=d["per_edge"][0]["reff"] * 1.01)),
        lambda s: _corrupt_json(s, lambda d: d.update(spectral_norm_abs_pi=d["max_colsum_abs_pi"] * 1.01)),
    ],
    "eliminate": [
        lambda s: _corrupt_lines(s, lambda r: r.pop(0)),
        lambda s: _corrupt_lines(s, lambda r: r[-1].update(terminal=[0, 0])),
    ],
    "verify": [
        lambda s: _corrupt_lines(s, lambda r: r[0].update(ok=False)),
        lambda s: _corrupt_lines(s, lambda r: r.pop()),
    ],
    "route": [
        lambda s: _corrupt_json(s, lambda d: d["per_edge"][0].update(flow=d["per_edge"][0]["flow"] + 1e-3)),
        lambda s: _corrupt_json(s, lambda d: d.update(competitive_ratio_bound=d["competitive_ratio_bound"] * 1.01)),
    ],
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_fail_on_corrupted_output(tmp_path, name):
    workload = workloads.build(name, 1, workloads.SMOKE, tmp_path)
    invocations = workload.invocations(1)
    _, outputs = harness.run_sweep(invocations)
    for inv, (rc, stdout, _) in zip(invocations, outputs):
        assert inv.check(rc, stdout) == []
        assert inv.check(2, stdout)
        assert inv.check(0, stdout[: len(stdout) // 2])
        for corrupt in _CORRUPTIONS[inv.argv[0]]:
            assert inv.check(rc, corrupt(stdout)), f"{inv.argv} accepted a corrupted output"


def test_tracked_elimination_rejects_positive_slack(tmp_path):
    workload = workloads.build("eliminate_verify_route", 1, workloads.SMOKE, tmp_path)
    inv = workload.invocations(1)[0]
    assert "--skip-vi" not in inv.argv
    (_, outputs) = harness.run_sweep([inv])
    rc, stdout, _ = outputs[0]
    assert inv.check(rc, _corrupt_lines(stdout, lambda r: r[0].update(slack=1e-3))) != []
    assert inv.check(rc, _corrupt_lines(stdout, lambda r: r[-1].update(v0=r[-1]["v0"] * 1.01))) != []


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    argv = [sys.executable, "perfbench/run.py", "--workload", "analyze_dense", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
