"""Benchmark of the spectral-distill CLI: one workload, one run.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed. The run writes one config file per op from
`--seed` (workloads.py), measures set-up as the median of several fresh
workload processes (import + warm-up), then lets one process run ops in a
closed loop for `--seconds`, checks every output and prints one JSON
object as its last line:

- `--trace 0`: the end-to-end metrics (E2E_UNITS);
- `--trace 1`: the per-layer metrics (per_layer_units()), from a traced
  run plus `python -X importtime`.

Human-readable lines starting with `#` come first: the environment, the
failure count, and for traced runs the dominant spans and the tracing
overhead. `--workload all` runs every workload untraced and then traced,
printing one JSON line per run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import envinfo
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 5  # processes that only set up, plus the measured one
IMPORTTIME_SAMPLES = 3
PROCESS_TIMEOUT_S = 120.0  # beyond --seconds

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls_per_op"] = "calls/op"
        units[f"{name}.self_ms_per_op"] = "ms/op"
    units.update({
        "spectra.grid_hit_ratio": "ratio",
        "optimal.round_trip_max": "abs_err",
        "optimal.fixed_point_max": "abs_err",
        "import.numpy_ms": "ms",
        "import.scipy_ms": "ms",
        "import.self_ms": "ms",
        "import.total_ms": "ms",
        "montecarlo.design_bytes_per_op": "B/op",
        "montecarlo.decompose_gflop_per_op": "GFLOP/op",
        "montecarlo.sd_gap_p50": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


def child_env() -> dict:
    """Environment of a workload process: BLAS on nproc threads, src/ importable.

    The thread count is fixed rather than inherited, so that a caller's
    OMP_NUM_THREADS does not change the configuration being measured.
    """
    threads = str(envinfo.nproc())
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def prepare(workload: str, seed: int, work: str) -> tuple[list, int]:
    """Write the warm-up and pool configs plus a manifest; (ops, rejected)."""
    warm, ops, rejected = workloads.make_ops(workload, seed)
    cfg_dir = os.path.join(work, "configs")
    os.makedirs(cfg_dir)
    workloads.write_config(os.path.join(cfg_dir, "warmup.json"), warm)
    for i, op in enumerate(ops):
        workloads.write_config(os.path.join(cfg_dir, f"{i}.json"), op)
    manifest = {
        "workload": workload,
        "warmup": {"command": warm.command, "meta": warm.meta},
        "ops": [{"command": op.command, "meta": op.meta} for op in ops],
    }
    with open(os.path.join(work, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return ops, rejected


def launch(work: str, args: list, timeout: float) -> float:
    """Run one worker process to completion; its set-up time in s.

    Set-up is the wall time from launching the process until it prints
    `ready` (CLI imported, warm-up op done).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "--work", work, *args],
                            cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"workload process failed (exit {code}): {line}{rest}")
    return setup


def _mc_cost(meta: dict) -> tuple[float, float]:
    """Computed design bytes and nominal decompose GFLOP of one simulate op.

    Per replicate: the n x p float64 design; Gram X X' (2 m^2 M flops with
    m = min(n, p), M = max(n, p)), the lift X' U when p > n (2 n^2 p) and
    a symmetric eigendecomposition with vectors (8/3 m^3, nominal).
    """
    n, p, reps = meta["n"], meta["p"], meta["replicates"]
    m, big = min(n, p), max(n, p)
    flops = 2 * m * m * big + (2 * n * n * p if p > n else 0) + 8 / 3 * m**3
    return reps * n * p * 8.0, reps * flops / 1e9


def e2e_metrics(res: dict, setups: list) -> dict:
    lat_ms = np.array(res["latencies_s"]) * 1e3
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat_ms) / res["elapsed_s"],
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def layer_metrics(res: dict, ops: list, imports: list) -> dict:
    out = {}
    for name, (calls, self_ms) in res["per_op"].items():
        out[f"{name}.calls_per_op"] = calls
        out[f"{name}.self_ms_per_op"] = self_ms
    builds = (out[f"{spans.GRID_PLAIN}.calls_per_op"]
              + out[f"{spans.GRID_PANEL}.calls_per_op"])
    lookups = out["spectra.get_grid.calls_per_op"]
    out["spectra.grid_hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0

    diags = [d for d in res["diags"] if d]
    round_trips = [d["round_trip"] for d in diags if d.get("round_trip") is not None]
    fixed_points = [d["fixed_point"] for d in diags if d.get("fixed_point") is not None]
    gaps = [d["sd_gap"] for d in diags if "sd_gap" in d]
    out["optimal.round_trip_max"] = max(round_trips, default=0.0)
    out["optimal.fixed_point_max"] = max(fixed_points, default=0.0)
    for key in ("numpy_ms", "scipy_ms", "self_ms", "total_ms"):
        out[f"import.{key}"] = statistics.median(b[key] for b in imports)

    n_traced = len(res["traced_latencies_s"])
    costs = [_mc_cost(ops[k % len(ops)].meta) for k in range(n_traced)
             if ops[k % len(ops)].command == "simulate"]
    out["montecarlo.design_bytes_per_op"] = sum(c[0] for c in costs) / n_traced
    out["montecarlo.decompose_gflop_per_op"] = sum(c[1] for c in costs) / n_traced
    out["montecarlo.sd_gap_p50"] = statistics.median(gaps) if gaps else 0.0
    out["trace.overhead_ratio"] = statistics.median(res["block_ratios"]) - 1.0
    return out


def trace_summary(res: dict, metrics: dict) -> list[str]:
    traced_ms = 1e3 * statistics.fmean(res["traced_latencies_s"])
    ranked = sorted(res["per_op"].items(), key=lambda kv: -kv[1][1])
    lines = [f"# dominant span: {ranked[0][0]} "
             f"({ranked[0][1][1]:.3f} ms/op self, "
             f"{100 * ranked[0][1][1] / traced_ms:.1f}% of the mean traced op)"]
    for name, (calls, self_ms) in ranked[:8]:
        lines.append(f"#   {name:40s} {calls:10.2f} calls/op "
                     f"{self_ms:10.4f} ms/op self")
    lines.append(f"# trace overhead: {100 * metrics['trace.overhead_ratio']:+.2f}% "
                 f"(median over {len(res['block_ratios'])} blocks of the traced "
                 f"over the untraced time of the same ops)")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ops, rejected = prepare(workload, seed, work)
        timeout = seconds + PROCESS_TIMEOUT_S
        setups, imports = [], []
        if trace:
            imports = [envinfo.import_breakdown(ROOT, child_env())
                       for _ in range(IMPORTTIME_SAMPLES)]
        else:
            setups = [launch(work, ["--setup-only"], timeout)
                      for _ in range(SETUP_SAMPLES - 1)]
        setups.append(launch(work, ["--seconds", str(seconds),
                                    "--trace", str(trace)], timeout))
        with open(os.path.join(work, "result.json")) as fh:
            res = json.load(fh)
        lines = [f"# env {json.dumps(envinfo.environment())}",
                 f"# workload={workload} seed={seed} ops={res['attempted']} "
                 f"failed={res['failed']} "
                 f"fail_ratio={res['failed'] / res['attempted']} "
                 f"rejected_draws={rejected}"]
        if trace:
            metrics = layer_metrics(res, ops, imports)
            units = per_layer_units()
            lines += trace_summary(res, metrics)
            os.makedirs(OUT_DIR, exist_ok=True)
            shutil.copy(os.path.join(work, "spans.jsonl"),
                        os.path.join(OUT_DIR, f"spans-{workload}.jsonl"))
        else:
            metrics = e2e_metrics(res, setups)
            units = E2E_UNITS
            lines.append(f"# setup samples (s): {setups}")
        for reason in res["reasons"]:
            print(f"failed: {reason}", file=sys.stderr)
        for line in lines:
            print(line)
        return {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spectral_distill", "cli.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}; run from "
              "the root of a spectral-distill checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    try:
        for name, trace in runs:
            print(json.dumps(run_one(name, args.seed, args.seconds, trace)),
                  flush=True)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
