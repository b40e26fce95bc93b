"""One workload process: import the CLI, warm up, then run ops in a closed loop.

Started by run.py as a fresh interpreter. It prints `ready` once
`spectral_distill.cli` is imported and the warm-up op has finished (the
parent times set-up up to that line); with `--setup-only` it exits there.
A measured run runs one op after another for `--seconds` seconds, each a
full `spectral_distill.cli.main([...])` call that parses its config file,
computes and writes its output atomically, and reads the process's peak
RSS once `workloads.RSS_OPS` ops are done.
Outputs are checked after the timed loop; one op is re-run at the end to
check that its output bytes repeat. The raw results go to `result.json`
in the run directory.

With `--trace 1` the ops run in blocks of `workloads.TRACE_BLOCK` ops:
each block runs once untraced and once traced, in alternating order, with
the grid cache cleared before each pass. The traced pass gives the spans;
the pair gives the tracing overhead on the same ops, so drift in the
host's speed cancels. The traced output must repeat the untraced one byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _op_argv(op, config_path, out_path):
    argv = [op["command"], "--config", config_path, "--out", out_path]
    if op["command"] == "simulate":
        argv += ["--threads", "1"]
    return argv


def _run(main, argv):
    try:
        return main(argv)
    except Exception as exc:  # an op that raises counts as failed, not fatal
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(main, ops, cfg_dir, out_path, k):
    """Run op number `k`; (latency in s, exit code or error)."""
    i = k % len(ops)
    argv = _op_argv(ops[i], os.path.join(cfg_dir, f"{i}.json"), out_path)
    t0 = time.perf_counter()
    rc = _run(main, argv)
    return time.perf_counter() - t0, rc


def _loop(main, ops, cfg_dir, out_dir, seconds, rss_ops):
    """Closed loop for `seconds`; (latencies, codes, peak RSS after rss_ops ops)."""
    lat, codes, rss = [], [], None
    deadline = time.perf_counter() + seconds
    while not lat or time.perf_counter() < deadline:
        k = len(lat)
        t, rc = _timed(main, ops, cfg_dir, os.path.join(out_dir, f"{k}.out"), k)
        lat.append(t)
        codes.append(rc)
        if k + 1 == rss_ops:
            rss = _peak_rss_mb()
    return lat, codes, _peak_rss_mb() if rss is None else rss


def _clear_grid_cache():
    from spectral_distill import spectra

    # Tolerant of the cache's absence: a program without it has nothing
    # to clear, and its traced runs must still work.
    cached = getattr(spectra, "_grid_cached", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def _paired_loop(cli, ops, cfg_dir, out_dir, seconds, block, tracer):
    """Blocks of ops run untraced and traced for `seconds`.

    `cli.main` is looked up for every op, so that the traced pass calls
    the wrapper the tracer installs there.

    Returns (untraced latencies, traced latencies, untraced codes, traced
    codes, traced/untraced time of each block). Block b covers ops
    b*block .. b*block + block - 1; even blocks run untraced first, odd
    blocks traced first.
    """
    lat = {False: [], True: []}
    codes = {False: [], True: []}
    ratios = []
    deadline = time.perf_counter() + seconds
    b = 0
    while not ratios or time.perf_counter() < deadline:
        ks = range(b * block, (b + 1) * block)
        spent = {}
        for traced in ((False, True) if b % 2 == 0 else (True, False)):
            _clear_grid_cache()
            if traced:
                tracer.install()
            spent[traced] = 0.0
            for k in ks:
                tracer.op = k
                name = f"{k}.traced.out" if traced else f"{k}.out"
                t, rc = _timed(cli.main, ops, cfg_dir, os.path.join(out_dir, name), k)
                lat[traced].append(t)
                codes[traced].append(rc)
                spent[traced] += t
            if traced:
                tracer.uninstall()
        ratios.append(spent[True] / spent[False])
        b += 1
    return lat[False], lat[True], codes[False], codes[True], ratios


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _check(ops, cfg_dir, k, out_path, rc):
    """(diagnostics, None) for a good op, (diagnostics or None, reason) for a
    failed one: a failed self check still reports the error it read."""
    if rc != 0:
        return None, f"op {k}: exit {rc}"
    i = k % len(ops)
    with open(os.path.join(cfg_dir, f"{i}.json")) as fh:
        op = workloads.Op(ops[i]["command"], json.load(fh), ops[i]["meta"])
    try:
        with open(out_path) as fh:
            return workloads.check_output(op, fh.read()), None
    except workloads.CheckError as exc:
        return exc.diag, f"op {k}: {exc}"
    except (OSError, ValueError) as exc:
        return None, f"op {k}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--work", required=True, help="run directory from run.py")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit once set up")
    args = ap.parse_args(argv)

    with open(os.path.join(args.work, "manifest.json")) as fh:
        manifest = json.load(fh)
    cfg_dir = os.path.join(args.work, "configs")
    out_dir = os.path.join(args.work, "out", str(os.getpid()))
    os.makedirs(out_dir)

    from spectral_distill import cli

    warm = manifest["warmup"]
    warm_out = os.path.join(out_dir, "warmup.out")
    rc = _run(cli.main, _op_argv(warm, os.path.join(cfg_dir, "warmup.json"),
                                 warm_out))
    if rc != 0:  # not fatal: the timed ops then record the failures
        print(f"warm-up op failed: {rc}", file=sys.stderr)
    print("ready", flush=True)

    if args.setup_only:
        return 0

    ops, workload = manifest["ops"], manifest["workload"]
    result = {}
    if args.trace:
        tracer = Tracer()
        lat, lat_traced, codes, codes_traced, ratios = _paired_loop(
            cli, ops, cfg_dir, out_dir, args.seconds, workloads.TRACE_BLOCK[workload], tracer)
        result.update(traced_latencies_s=lat_traced, block_ratios=ratios,
                      per_op=tracer.per_op(len(lat_traced)))
        tracer.dump(os.path.join(args.work, "spans.jsonl"))
    else:
        t0 = time.perf_counter()
        lat, codes, rss = _loop(cli.main, ops, cfg_dir, out_dir, args.seconds,
                                workloads.RSS_OPS[workload])
        result.update(elapsed_s=time.perf_counter() - t0, peak_rss_mb=rss)
        codes_traced = []

    diags, reasons = [], []
    for k, rc in enumerate(codes):
        diag, reason = _check(ops, cfg_dir, k, os.path.join(out_dir, f"{k}.out"), rc)
        diags.append(diag)
        if reason:
            reasons.append(reason)
    for k, rc in enumerate(codes_traced):
        path = os.path.join(out_dir, f"{k}.traced.out")
        _, reason = _check(ops, cfg_dir, k, path, rc)
        if reason is None and _read(path) != _read(os.path.join(out_dir, f"{k}.out")):
            reason = f"op {k}: traced output bytes differ from the untraced run"
        if reason:
            reasons.append(f"traced {reason}")

    # determinism: the first op again, byte for byte
    again = os.path.join(out_dir, "again.out")
    rc = _run(cli.main, _op_argv(ops[0], os.path.join(cfg_dir, "0.json"), again))
    first = _read(os.path.join(out_dir, "0.out"))
    if rc != 0 or first is None or _read(again) != first:
        reasons.append("op 0 re-run: output bytes differ")

    result.update(latencies_s=lat, attempted=len(codes) + len(codes_traced) + 1,
                  failed=len(reasons), reasons=reasons[:10], diags=diags)
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
