"""The ohmgraph benchmark: a closed loop, one client in one process, running
``ohmgraph.cli.cli_main`` in-process.

One sample is a *sweep*: the workload's invocation list run once, in order,
with stdout captured.  Every invocation's output is checked.  A run with
``--trace 0`` does an untimed warm-up sweep, then times sweeps for
``--seconds`` and reports the end-to-end metrics.  A run with ``--trace 1``
does the warm-up, then alternates untraced and traced sweeps for
``--seconds`` and reports the per-layer metrics of the traced ones.
``--workload all`` runs both for every workload, each in its own process,
and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads
from ohmgraph import cli
from tracing import LAYERS, Tracer

ROOT = workloads.ROOT
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "sweep_s_p50": "s",
    "sweep_s_tail": "s",
    "invocations_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "graph.read_graph.s": "s",
    "graph.parse_family_spec.s": "s",
    "graph.build_graph.calls": "count",
    "graph.build_graph.s": "s",
    "graph.is_connected.calls": "count",
    "graph.is_connected.s": "s",
    "graph.laplacian_matrix.calls": "count",
    "graph.laplacian_matrix.s": "s",
    "kernel.cho_factor.calls": "count",
    "kernel.cho_factor.s": "s",
    "kernel.cho_solve.calls": "count",
    "kernel.cho_solve.s": "s",
    "kernel.flops_computed": "flop",
    "solver.LaplacianSystem.calls": "count",
    "solver.solve_columns.calls": "count",
    "solver.solve_columns.s": "s",
    "solver.columns_solved": "count",
    "solver.power_iterations": "count",
    "solver.spectral_norm_nonneg.s": "s",
    "electrical.TransferImpedance.s": "s",
    "electrical.per_edge_stats.s": "s",
    "electrical.trace.s": "s",
    "electrical.abs_matvec.calls": "count",
    "electrical.abs_matvec.s": "s",
    "electrical.passes_over_pi": "count",
    "schur.schur_complement.calls": "count",
    "schur.schur_complement.s": "s",
    "schur.check_sum_potentials.s": "s",
    "schur.check_norm_energy.s": "s",
    "schur.check_schur_conductance.s": "s",
    "localization.run_elimination.s": "s",
    "localization.steps": "count",
    "localization.s_per_step": "s",
    "routing.route_demands.s": "s",
    "routing.competitive_ratio_bound.s": "s",
    "routing.demands": "count",
    "cli.cli_main.s": "s",
    "cli.bytes_out": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


# -- one sweep --------------------------------------------------------------


def run_sweep(invocations) -> tuple[float, list[tuple[int | None, str, str]]]:
    """Run the invocation list once; return its wall time and (exit code,
    stdout, stderr) per invocation."""
    outputs = []
    start = time.perf_counter()
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.cli_main(list(inv.argv))
            except Exception as exc:  # a crash is a failed invocation, not a failed benchmark
                rc = None
                err.write(f"uncaught {exc!r}")
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outputs


class Tally:
    """Attempted and failed invocations, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, invocations, outputs) -> None:
        for inv, (rc, stdout, stderr) in zip(invocations, outputs):
            try:
                errors = inv.check(rc, stdout)
            except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
                errors = [f"malformed output: {exc!r}"]
            self.attempted += 1
            if errors:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{' '.join(inv.argv)}: {'; '.join(errors)} {stderr.strip()[:200]}")


# -- statistics ---------------------------------------------------------------


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it (nearest
    rank).  Below 21 samples that percentile is not above the median, so it
    is no tail; the maximum is reported instead, with the number of samples
    actually beyond it (0)."""
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) > 20 else len(ordered)
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / len(ordered),
        "samples": len(ordered),
        "beyond": len(ordered) - rank,
    }


def time_import() -> float:
    """Wall time of a fresh interpreter running ``import ohmgraph.cli``.
    No timeout: with one, ``subprocess`` polls the child every 50 ms and the
    times come out in 50 ms steps."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ohmgraph.cli"], env=workloads.child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


# -- environment record -------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout read from ``.git`` directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def environment(seed: int) -> dict:
    return {
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "numpy": np.__version__,
        "numpy_blas": _blas(np.__config__.CONFIG),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy.__config__.CONFIG),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: workloads.Sizes) -> dict:
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    try:
        workload = workloads.build(name, seed, sizes, workdir)
        tally = Tally()
        warm = workload.invocations(0)
        tally.check(warm, run_sweep(warm)[1])
        if trace:
            metrics, samples, tracer = _traced_run(workload, seconds, tally)
        else:
            metrics, samples = _timed_run(workload, seconds, tally, sizes.setup_repeats)
            tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name,
        "trace": int(trace),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": metrics,
        "samples": samples,
        "inputs": workload.inputs,
        "env": environment(seed),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    return record


def _timed_run(workload, seconds: float, tally: Tally, setup_repeats: int) -> tuple[dict, dict]:
    durations, setup = [], []
    invocations_run = 0
    time_import()  # untimed, so that bytecode caches exist, as they do for users
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        # Set-up samples are spread over the run: the machine's speed drifts
        # over tens of seconds, and samples taken back to back see one speed.
        while len(setup) < setup_repeats and time.perf_counter() - start >= len(setup) * seconds / setup_repeats:
            setup.append(time_import())
        invocations = workload.invocations(len(durations) + 1)
        dt, outputs = run_sweep(invocations)
        durations.append(dt)
        invocations_run += len(invocations)
        tally.check(invocations, outputs)
    setup += [time_import() for _ in range(setup_repeats - len(setup))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t = tail(durations)
    metrics = {
        "sweep_s_p50": statistics.median(durations),
        "sweep_s_tail": t["value"],
        "invocations_per_s": invocations_run / sum(durations),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    samples = {
        "sweeps": len(durations),
        "sweep_s_tail": {k: t[k] for k in ("percentile", "samples", "beyond")},
        "setup_s": len(setup),
        "sweep_durations": durations,
        "setup_durations": setup,
    }
    return metrics, samples


def _traced_run(workload, seconds: float, tally: Tally) -> tuple[dict, dict, Tracer]:
    """Pairs of one untraced and one traced sweep over the same invocations;
    per-layer metrics are medians over the traced sweeps."""
    tracer = Tracer()
    untraced, traced, per_sweep = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        invocations = workload.invocations(len(traced) + 1)
        dt, outputs = run_sweep(invocations)
        untraced.append(dt)
        tally.check(invocations, outputs)
        first = len(tracer.spans)
        tracer.install()
        try:
            dt, outputs = run_sweep(invocations)
        finally:
            tracer.uninstall()
        traced.append(dt)
        tally.check(invocations, outputs)
        layer = tracer.summarize(first)
        layer["cli.bytes_out"] = sum(len(out.encode()) for _, out, _ in outputs)
        steps = layer.get("localization.steps", 0)
        layer["localization.s_per_step"] = layer.get("localization.run_elimination.s", 0.0) / steps if steps else 0.0
        per_sweep.append(layer)
    metrics = {
        name: statistics.median(sweep_layers.get(name, 0.0) for sweep_layers in per_sweep)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    samples = {"sweeps": len(traced), "traced_durations": traced, "untraced_durations": untraced}
    return metrics, samples, tracer


# -- output -------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_record(record: dict) -> None:
    units = PER_LAYER if record["trace"] else END_TO_END
    print(f"# {record['workload']} trace={record['trace']} correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']} sweeps={record['samples']['sweeps']}")
    if "sweep_s_tail" in record["samples"]:
        print(f"# sweep_s_tail is the nearest-rank {json.dumps(record['samples']['sweep_s_tail'])}")
    for name, unit in units.items():
        print(f"  {name} = {_fmt(record['metrics'][name])} {unit}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"# env {json.dumps(record['env'])}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload: an end-to-end run then a traced run, each in a fresh
    process so that peak memory is the workload's own."""
    ok = True
    summary = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"# {name} trace={trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            summary[f"{name}.trace{trace}"] = result["correct"]
    print(json.dumps({"all_correct": ok, "runs": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.workload == "all":
        return run_all(args)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    print_record(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes))
    return 0
