"""Steadiness report: repeat benchmark runs and summarise each metric.

    python3 perfbench/steadiness.py --workload montecarlo --runs 10
    python3 perfbench/steadiness.py --compare a.json b.json

Each run is `run.py` in its own process with seed `--seed0 + i`; the
workloads and the run length default to those of BENCHMARK.json. For every
metric the report prints the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(q3 - q1) / median. Where BENCHMARK.json gives the metric a bound, it also
shows whether the spread stays below a third of that bound. `--save`
writes the raw values as JSON; `--compare` reads two such files and checks
that the second median is not worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bounds() -> dict:
    """{metric: (bound, better)} of the end-to-end metrics in BENCHMARK.json."""
    return {m["name"]: (m["bound"], m["better"]) for m in spec()["end_to_end"]}


def collect(workload: str, runs: int, seconds: float, seed0: int, trace: int) -> dict:
    values: dict[str, list] = {}
    for i in range(runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed0 + i), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed0 + i}: {result['failed']} of "
                  f"{result['attempted']} ops failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"  run {i + 1}/{runs} seed {seed0 + i} done", file=sys.stderr)
    return values


def summarise(values: list) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(workload: str, values: dict):
    limits = bounds()
    print(f"{workload}: {len(next(iter(values.values())))} runs")
    print(f"  {'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}  bound/3")
    for name, vals in values.items():
        med, q1, q3, spread = summarise(vals)
        verdict = ""
        if name in limits:
            third = limits[name][0] / 3
            verdict = f"{third:.4f} {'ok' if spread < third else 'WIDE'}"
        print(f"  {name:46s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f}  {verdict}")


def compare(first: dict, second: dict) -> bool:
    """True when no second median is worse than the first by more than its bound."""
    ok = True
    for workload in first:
        for name, (bound, better) in bounds().items():
            a = statistics.median(first[workload][name])
            b = statistics.median(second[workload][name])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "ok" if worse <= bound else "WORSE"
            ok &= worse <= bound
            print(f"{workload:12s} {name:14s} {a:12.6g} -> {b:12.6g} "
                  f"{100 * worse:+7.2f}% worse (bound {100 * bound:.0f}%) {flag}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    declared = spec()
    ap.add_argument("--workload", nargs="+",
                    default=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar="JSON")
    args = ap.parse_args(argv)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as fh:
                loaded.append(json.load(fh))
        return 0 if compare(*loaded) else 1
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    everything = {}
    for workload in args.workload:
        everything[workload] = collect(workload, args.runs, args.seconds,
                                       args.seed0, args.trace)
        report(workload, everything[workload])
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(everything, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
