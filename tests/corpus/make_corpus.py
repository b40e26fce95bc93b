"""Write the CLI regression corpus: config files and their expected outputs.

    python tests/corpus/make_corpus.py

Each case is `<command>__<label>.json` (a config for that subcommand) next
to `<command>__<label>.out` (what `spectral-distill <command>` printed for
it). Closed-form and risk models are drawn with the seeded generator of
`perfbench/workloads.py`, including the close-outlier models of seeds 4,
9 and 2003 whose chain round trip once missed its tolerance; the rest are
the README examples, isotropic (s = 0) models under every command that
builds an optimal rule, edge-regime models (c next to or at 1, a spike
just above the detachment point) under `optimal` and `risk`, Monte Carlo
`simulate` runs (spiked p > n with every estimator kind, p <= n,
rademacher and student-t entries, and a small p <= n rademacher design
that is often rank-deficient, whose `pcr:min(n,p)` row must equal its
`minnorm` row), a spiked `sweep` with a `sim` block, many-spike models
(s = 14, 16 and 20) under every closed-form command, and a few
measure/sweep configs.

    python tests/corpus/make_corpus.py 'optimal__many-*' ...

rewrites only the cases whose names match one of the shell patterns.
Rerunning the script rewrites every expected output with the current
program's, so run it only when an output is meant to change, and review
the diff.

    python tests/corpus/make_corpus.py --out-dir DIR [pattern ...]

writes each case's config and CLI output into DIR instead and leaves the
recorded files alone. The recorded outputs match to 1e-13, not to the
byte, across machines, so to check that a change keeps outputs
byte-identical, run this script from both checkouts (the parent's copy of
the script may be replaced by this one) on the same machine and compare
the two directories with `diff -r`; `python tests/corpus/moves.py OLD_DIR
NEW_DIR` then lists the largest move of each printed field.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(HERE))

import conftest  # noqa: E402
import workloads  # noqa: E402
from spectral_distill.cli import main  # noqa: E402

# (seed, op index) of closed_form pool models whose outliers sit within
# about 0.5% of each other.
CLOSE_OUTLIERS = ((4, 1595), (9, 553), (9, 1033), (2003, 1219), (2003, 1418))
# (s, draw index) of many-spike models: draw i of many_spike_models(s).
# At s = 16 and 20 these are the first draws whose fixed-point residual
# exceeded 1e-10 when the Newton slope of P came from monomial
# coefficients.
MANY_SPIKES = ((14, 0), (16, 2), (20, 1))
PCR_TAUS = [0.05, 0.2]
SD_RULE = {"kind": "sd", "lambdas": [1.0, 2.0], "xis": [0.5]}

README_MODEL = {"sigma0_sq": 1.0, "c": 2.0, "r": 2.0, "sigma_eps_sq": 4.0,
                "spikes": [{"delta": 7.0, "alpha": 1.7}]}
FIG1_MODEL = {"sigma0_sq": 1.0, "c": 3.0, "r": 5.0, "sigma_eps_sq": 4.0,
              "spikes": [{"delta": 2.0, "alpha": 3.0}, {"delta": 3.0, "alpha": 2.5}]}
ISO_MODELS = {
    "iso": {"sigma0_sq": 1.5, "c": 2.0, "r": 2.0, "sigma_eps_sq": 3.0,
            "spikes": []},
    "iso-c05": {"sigma0_sq": 1.0, "c": 0.5, "r": 1.5, "sigma_eps_sq": 0.7,
                "spikes": []},
}
def _edge_model(c: float, spikes) -> dict:
    return {"sigma0_sq": 1.0, "c": c, "r": 2.0, "sigma_eps_sq": 1.0,
            "spikes": [{"delta": d, "alpha": a} for d, a in spikes]}


# c next to 1 puts the lower bulk edge next to zero; a spike just above
# sigma0^2 sqrt(c) puts its outlier just above the upper edge.
EDGE_MODELS = {
    "edge-c0999": _edge_model(1.0 - 1e-3, [(3.0, 0.6)]),
    "edge-c1001": _edge_model(1.0 + 1e-3, [(3.0, 0.6)]),
    "edge-c1p1e-6": _edge_model(1.0 + 1e-6, [(3.0, 0.6)]),
    "edge-c1": _edge_model(1.0, [(3.0, 0.6)]),
    "edge-det1001": _edge_model(2.0, [(1.001 * math.sqrt(2.0), 0.6), (4.0, 0.5)]),
    "edge-det100001": _edge_model(
        2.0, [(1.00001 * math.sqrt(2.0), 0.6), (4.0, 0.5)]),
}
EDGE_RULES = [
    {"kind": "ridge", "lambdas": [0.01, 0.5]},
    {"kind": "gd", "etas": [0.1, 0.01], "steps": [10, 1000]},
    {"kind": "optimal_pred"}, {"kind": "optimal_est"},
]
MC_ESTIMATORS = ["ridge_tuned", "sd_optimal", "pcr:1", "pcr:30", "minnorm",
                 "gd:0.05:100"]
SIMULATE_CASES = {
    "readme-sim": (README_MODEL, {"n": 80, "p": 160}, MC_ESTIMATORS),
    "c05-sim": (_edge_model(0.5, [(3.0, 0.6)]), {"n": 120, "p": 60},
                ["ridge_tuned", "sd_optimal", "pcr:1", "minnorm", "gd:0.05:100"]),
    "rademacher-sim": (README_MODEL, {"n": 80, "p": 160,
                                      "entry_dist": "rademacher"},
                       ["ridge_tuned", "ridge:0.5", "minnorm"]),
    "student-sim": (README_MODEL, {"n": 80, "p": 160, "entry_dist": "student_t",
                                   "student_df": 12.0},
                    ["ridge_tuned", "ridge:0.5", "gd:0.05:100"]),
    # a p <= n rademacher design that is often rank-deficient: PCR keeping
    # every component must equal the min-norm fit
    "rankdef-rademacher": (_edge_model(0.5, [(3.0, 1.0)]),
                           {"n": 8, "p": 4, "entry_dist": "rademacher",
                            "n_replicates": 200},
                           ["pcr:4", "minnorm"]),
}
def many_spike_models(s: int, count: int) -> list[dict]:
    """The first `count` draws of conftest.many_spike_model at seed 0."""
    rng = np.random.default_rng(0)
    models = [conftest.many_spike_model(rng, s) for _ in range(count)]
    return [{"sigma0_sq": m.sigma0_sq, "c": m.c, "r": m.r,
             "sigma_eps_sq": m.sigma_eps_sq,
             "spikes": [{"delta": d, "alpha": a} for d, a in m.spikes]}
            for m in models]


FIG3_MODEL = {"sigma0_sq": 1.0, "c": 3.0, "r": 8.0, "sigma_eps_sq": 16.0,
              "spikes": [{"delta": 5.0, "alpha": 6.0}]}


def closed_form(model: dict, command: str, K: int = 5) -> tuple[str, dict]:
    block = {"optimal": ("optimal", {}), "sd-params": ("sd_params", {}),
             "federated": ("federated", {"K": K})}[command]
    return command, {"model": model, block[0]: block[1]}


def cases() -> dict:
    out = {}
    _, ops, _ = workloads.make_ops("closed_form", 1, 45)
    for i, op in enumerate(ops):
        out[f"{op.command}__s1-{i:03d}"] = (op.command, op.config)
    for seed, i in CLOSE_OUTLIERS:
        _, ops, _ = workloads.make_ops("closed_form", seed)
        op = ops[i]
        K = op.config.get("federated", {}).get("K", 5)
        for command in workloads.CLOSED_FORM_COMMANDS:
            out[f"{command}__close-s{seed}-{i}"] = closed_form(
                op.config["model"], command, K)
    _, ops, _ = workloads.make_ops("rule_scan", 1, 10)
    for i, op in enumerate(ops):
        rules = op.config["risk"]["rules"] + [
            {"kind": "pcr", "taus": PCR_TAUS}, SD_RULE]
        out[f"risk__s1-{i:03d}"] = ("risk", {"model": op.config["model"],
                                             "risk": {"rules": rules}})
    for s, i in MANY_SPIKES:
        model = many_spike_models(s, i + 1)[i]
        for command in workloads.CLOSED_FORM_COMMANDS:
            out[f"{command}__many-s{s}-{i}"] = closed_form(model, command)
    for command in workloads.CLOSED_FORM_COMMANDS:
        out[f"{command}__readme"] = closed_form(README_MODEL, command)
    out["risk__readme"] = ("risk", {"model": README_MODEL, "risk": {"rules": [
        {"kind": "ridge", "lambdas": {"min": 0.01, "max": 10.0, "num": 20,
                                      "spacing": "log"}},
        {"kind": "gd", "etas": [0.05], "steps": [50, 500]},
        {"kind": "pcr", "taus": [0.1, 0.4]},
        {"kind": "min_norm"}, SD_RULE,
        {"kind": "optimal_pred"}, {"kind": "optimal_est"},
    ]}})
    for label, model in ISO_MODELS.items():
        for command in workloads.CLOSED_FORM_COMMANDS:
            out[f"{command}__{label}"] = closed_form(model, command)
        out[f"risk__{label}"] = ("risk", {"model": model, "risk": {"rules": [
            {"kind": "optimal_pred"}, {"kind": "optimal_est"},
            {"kind": "ridge", "lambdas": [0.5, 1.5]}]}})
    for label, model in EDGE_MODELS.items():
        out[f"optimal__{label}"] = closed_form(model, "optimal")
        # min-norm is refused at c = 1, where the spectral gap closes
        rules = EDGE_RULES + ([] if model["c"] == 1.0 else [{"kind": "min_norm"}])
        out[f"risk__{label}"] = ("risk", {"model": model, "risk": {"rules": rules}})
    out["sweep__iso-sim"] = ("sweep", {"model": ISO_MODELS["iso"], "sweep": {
        "parameter": "sigma_eps_sq", "values": [0.5, 3.0],
        "estimators": ["ridge_tuned", "sd_optimal", "ridge:0.5"],
        "sim": {"n": 60, "p": 120, "seed": 7, "n_replicates": 3}}})
    for label, (model, sizes, ests) in SIMULATE_CASES.items():
        out[f"simulate__{label}"] = ("simulate", {"model": model, "simulate": {
            "seed": 3, "n_replicates": 4, **sizes, "estimators": ests}})
    out["sweep__readme-sim"] = ("sweep", {"model": README_MODEL, "sweep": {
        "parameter": "delta", "values": [4.0, 7.0],
        "estimators": ["ridge_tuned", "sd_optimal", "pcr:2", "minnorm"],
        "sim": {"n": 60, "p": 120, "seed": 11, "n_replicates": 3}}})
    out["measure__fig1"] = ("measure", {"model": FIG1_MODEL,
                                        "measure": {"grid_size": 64}})
    out["measure__readme"] = ("measure", {"model": README_MODEL, "measure": {
        "grid_size": 33, "x_min": 0.0, "x_max": 9.0}})
    out["sweep__fig3"] = ("sweep", {"model": FIG3_MODEL, "sweep": {
        "parameter": "delta", "values": [2.0, 5.0, 11.0],
        "include_sd_params": True,
        "estimators": ["ridge_tuned", "sd_optimal", "ridge:0.5", "minnorm",
                       "gd:0.05:100"]}})
    return out


def write(patterns=(), out_dir=HERE):
    os.makedirs(out_dir, exist_ok=True)
    for name, (command, config) in cases().items():
        if patterns and not any(fnmatch.fnmatch(name, p) for p in patterns):
            continue
        cfg = os.path.join(out_dir, name + ".json")
        with open(cfg, "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
            fh.write("\n")
        code = main([command, "--config", cfg,
                     "--out", os.path.join(out_dir, name + ".out")])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the CLI regression corpus.")
    parser.add_argument("patterns", nargs="*",
                        help="shell patterns of the case names to write")
    parser.add_argument("--out-dir", default=HERE,
                        help="directory for configs and outputs "
                        "(default: the recorded corpus)")
    args = parser.parse_args()
    write(args.patterns, args.out_dir)
