"""Command-line front end: JSON configs in, CSV/JSON results out.

Subcommands: measure | risk | optimal | sd-params | federated | simulate
| sweep. Exit codes: 0 success, 2 config error, 3 assumption violation,
4 numerical failure. The config file alone decides the numbers, seed
included, and every output carries the sha256 of the config file's JSON
as written (keys sorted, no defaults filled in); floats are serialized
with 17 significant digits so outputs round-trip exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import federated, montecarlo, optimal, shrinkage, spectra
from .errors import AssumptionError, NumericalError, StructuralError


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema
#
# SCHEMA holds every config block. A spec is an object spec (a dict of
# field -> spec; a trailing '?' marks an optional field, and unknown keys
# are refused), a list spec [spec] that checks every item, or a leaf
# function (value, where) -> typed value that raises ConfigError. Checks
# that hold outside the CLI (finiteness, ranges, student_df > 8, p > s)
# are made by the objects the fields build: SpikedModel, SimConfig, Ridge,
# GDPoly and the rule constructors.

# Caps on the counts that size an allocation or a loop. A larger count is
# refused before anything of its size is allocated.
MAX_GRID = 100_000        # measure.grid_size and the num of a grid
MAX_DIM = 20_000          # simulate n and p: each replicate draws n x p
MAX_REPLICATES = 100_000
MAX_CLIENTS = 100_000     # federated K


def _walk(spec, value, where):
    """Check `value` against `spec` and return it typed."""
    if callable(spec):
        return spec(value, where)
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return [_walk(spec[0], item, f"{where}[{i}]")
                for i, item in enumerate(value)]
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    fields = {key.rstrip("?"): (key.endswith("?"), sub) for key, sub in spec.items()}
    unknown = set(value) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, (optional, sub) in fields.items():
        if key in value:
            out[key] = _walk(sub, value[key], f"{where}.{key}")
        elif not optional:
            raise ConfigError(f"missing required key '{key}' in {where}")
    return out


def _number(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} = {value} is too large for a double") from None


def _finite(value, where) -> float:
    value = _number(value, where)
    if not np.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    return value


def _integer(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _count(cap, least=None):
    """An integer that sizes an allocation or a loop: at most `cap`."""
    def count(value, where) -> int:
        value = _integer(value, where)
        if value > cap:
            raise ConfigError(f"{where} = {value} exceeds its cap of {cap}")
        if least is not None and value < least:
            raise ConfigError(f"{where} must be at least {least}")
        return value
    return count


def _string(value, where) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string")
    return value


def _boolean(value, where) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be a boolean")
    return value


def _choice(*options):
    def choice(value, where) -> str:
        if _string(value, where) not in options:
            raise ConfigError(f"{where} must be one of {list(options)}")
        return value
    return choice


_GRID = {"min": _finite, "max": _finite, "num": _count(MAX_GRID),
         "spacing?": _choice("linear", "log")}


def _grid(value, where) -> np.ndarray:
    """A list of numbers, or {min, max, num, spacing} spaced linearly or
    logarithmically."""
    if isinstance(value, list):
        return np.array(_walk([_number], value, where))
    spec = _walk(_GRID, value, where)
    if spec.get("spacing") == "log":
        if spec["min"] <= 0 or spec["max"] <= 0:
            raise ConfigError(f"{where}: log spacing needs min > 0 and max > 0")
        return np.geomspace(spec["min"], spec["max"], spec["num"])
    return np.linspace(spec["min"], spec["max"], spec["num"])


# the fields of each rule kind besides `kind` itself
RULES = {
    "ridge": {"lambdas": _grid},
    "sd": {"lambdas": [_number], "xis": [_number]},
    "gd": {"etas": [_number], "steps": [_integer]},
    "pcr": {"taus": [_number]},
    "min_norm": {},
    "optimal_pred": {},
    "optimal_est": {},
}


def _rule(value, where) -> dict:
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(f"{where} must be an object with a 'kind'")
    kind = _choice(*RULES)(value["kind"], f"{where}.kind")
    rest = {key: v for key, v in value.items() if key != "kind"}
    return {"kind": kind, **_walk(RULES[kind], rest, where)}


_DIM = _count(MAX_DIM, least=1)
# montecarlo.SimConfig's fields besides the model
_SIM = {"n": _DIM, "p": _DIM, "seed": _integer,
        "n_replicates": _count(MAX_REPLICATES), "entry_dist?": _string,
        "student_df?": _number}

# every top-level block; `model` is required, an absent block counts as {}
SCHEMA = {
    "model": {"sigma0_sq": _number, "c": _number, "r": _number,
              "sigma_eps_sq": _number,
              "spikes?": [{"delta": _number, "alpha": _number}]},
    "measure": {"grid_size?": _count(MAX_GRID, least=2), "x_min?": _finite,
                "x_max?": _finite},
    "risk": {"rules": [_rule]},
    "optimal": {},
    "sd_params": {},
    "federated": {"K": _count(MAX_CLIENTS)},
    "simulate": {**_SIM, "estimators": [_string]},
    "sweep": {"parameter": _choice("delta", "sigma_eps_sq"), "values": _grid,
              "spike_index?": _integer, "estimators?": [_string],
              "include_sd_params?": _boolean, "sim?": _SIM},
}


def parse_model(block) -> spectra.SpikedModel:
    """Check a model block against SCHEMA and build its SpikedModel."""
    spec = _walk(SCHEMA["model"], block, "model")
    spikes = tuple((sp["delta"], sp["alpha"]) for sp in spec.get("spikes", []))
    try:
        return spectra.SpikedModel(spec["sigma0_sq"], spec["c"], spikes,
                                   spec["r"], spec["sigma_eps_sq"])
    except AssumptionError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization: 17 significant digits, comment header, atomic write


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _json_dump(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_json_dump(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_dump(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj)


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spectral-distill-")
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out_path: str | None):
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _csv(header_comment_lines, columns, rows) -> str:
    lines = [f"# {line}" for line in header_comment_lines]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rule/estimator specs


def build_rules(spec, model):
    """Expand one checked rule spec into a list of (label, hyper1, hyper2, fn)."""
    kind = spec["kind"]
    if kind == "ridge":
        return [("ridge", lam, "", shrinkage.Ridge(lam))
                for lam in spec["lambdas"].tolist()]
    if kind == "sd":
        params = shrinkage.SDParams(tuple(spec["lambdas"]), tuple(spec["xis"]))
        return [("sd", "", "", shrinkage.SDChain(params))]
    if kind == "gd":
        return [("gd", eta, T, shrinkage.GDPoly(eta, T))
                for eta in spec["etas"] for T in spec["steps"]]
    if kind == "pcr":
        return [("pcr", tau, "", shrinkage.pcr_rule(model, tau))
                for tau in spec["taus"]]
    if kind == "min_norm":
        return [("min_norm", "", "", shrinkage.min_norm_rule(model))]
    if kind == "optimal_pred":
        return [("optimal_pred", "", "", optimal.optimal_pred_rule(model))]
    return [("optimal_est", "", "", optimal.optimal_est_rule(model))]


# ---------------------------------------------------------------------------
# subcommands: each takes the model, its checked block and the config hash,
# and returns the text to emit


def cmd_measure(model, block, tag):
    grid_size = block.get("grid_size", 200)
    a, b = spectra.mp_support(model)
    xs = np.linspace(block.get("x_min", a), block.get("x_max", b), grid_size)
    names = ["mp"] + [f"delta_{j + 1}" for j in range(model.s)]
    rows = np.column_stack([xs, spectra.bulk_densities(model, xs).T])
    # the atoms of each measure are the grid's atoms where it has mass
    grid = spectra.get_grid(model)
    comments = [f"config={tag}"]
    for name, w in zip(names, (grid.w_mp, *grid.w_delta)):
        comments += [f"atom,{name},{_fmt(loc)},{_fmt(mass)}"
                     for loc, mass in zip(grid.atom_locs, w[grid.x.size:])
                     if mass > 0]
    return _csv(comments, ["x"] + [f"f_{name}" for name in names], rows)


def cmd_risk(model, block, tag):
    cols = (
        ["rule", "hyper1", "hyper2", "pred_bias_bulk"]
        + [f"pred_bias_spike_{j + 1}" for j in range(model.s)]
        + ["pred_variance", "pred_total", "est_bias_bulk", "est_variance",
           "est_total"]
    )
    rows = []
    for spec in block["rules"]:
        for label, h1, h2, fn in build_rules(spec, model):
            pred, est = shrinkage.limiting_risks(model, fn)
            rows.append(
                [label, h1, h2, pred.bias_bulk, *pred.bias_spikes,
                 pred.variance, pred.total, est.bias_bulk, est.variance,
                 est.total]
            )
    return _csv([f"config={tag}"], cols, rows)


def _optimum_payload(model, rule, b, sd_params):
    round_trip = optimal.sd_round_trip_error(model, rule, sd_params)
    return {
        "b": list(b),
        "P_roots": list(rule.roots_of_p),
        "sd_params": {"lambdas": list(sd_params.lambdas),
                      "xis": list(sd_params.xis)},
        "risks": {
            "pred": shrinkage.limiting_pred_risk(model, rule).total,
            "est": shrinkage.limiting_est_risk(model, rule).total,
        },
        "self_check": {"round_trip_sup_error": round_trip},
    }


def cmd_optimal(model, block, tag):
    rule = optimal.optimal_pred_rule(model)
    params = optimal.synthesize_sd_params(rule)
    payload = _optimum_payload(model, rule, rule.b, params)
    payload["A"] = list(shrinkage.validate_rule(model, rule).xf[1:])
    payload["self_check"]["fixed_point_residual"] = (
        optimal.fixed_point_residual(model, rule)
    )
    payload["config"] = tag
    return _json_dump(payload) + "\n"


def cmd_sd_params(model, block, tag):
    rule = optimal.optimal_pred_rule(model)
    params = optimal.synthesize_sd_params(rule)
    payload = {
        "lambdas": list(params.lambdas),
        "xis": list(params.xis),
        "round_trip_sup_error": optimal.sd_round_trip_error(model, rule, params),
    }
    payload["config"] = tag
    return _json_dump(payload) + "\n"


def cmd_federated(model, block, tag):
    opt = federated.federated_optimum(model, block["K"])
    payload = _optimum_payload(model, opt.local_rule, opt.b, opt.sd_params)
    payload["K"] = opt.K
    payload["rho_star"] = opt.rho_star
    payload["risks"]["federated_pred"] = federated.federated_risk(
        model, opt.K, [opt.local_rule] * opt.K, [opt.rho_star] * opt.K,
    )
    payload["config"] = tag
    return _json_dump(payload) + "\n"


def _parse_estimator(label: str, n: int, p: int):
    """The kind, `montecarlo.ESTIMATORS` function and arguments of a label:
    ridge:<lam> | ridge_tuned | sd_optimal | pcr:<m> | minnorm | gd:<eta>:<steps>."""
    kind, *texts = label.split(":")
    fields, build = montecarlo.ESTIMATORS.get(kind, (None, None))
    if fields is None or len(texts) != len(fields):
        raise ConfigError(f"unrecognized estimator spec '{label}'")
    args = []
    for (name, type_), text in zip(fields, texts):
        try:
            args.append(type_(text))
        except ValueError:
            what = "an integer" if type_ is int else "a number"
            raise ConfigError(f"{label}: {name} = '{text}' is not {what}") from None
    if kind == "pcr" and not 1 <= args[0] <= min(n, p):
        raise ConfigError(f"{label}: m must be in 1..min(n, p) = {min(n, p)}")
    return kind, build, args


def _estimate(model, labels, sim):
    """The limiting risk of each estimator in `labels` and, given a
    simulate block or a sweep's sim block, its harness reports on that
    block's data (else an empty dict)."""
    # first, so that a setting with p/n != c is refused before any limit
    cfg = None if sim is None else montecarlo.SimConfig(
        model, **{key: v for key, v in sim.items() if key != "estimators"})
    n, p = (0, 0) if cfg is None else (cfg.n, cfg.p)
    ests, targets, seen = {}, {}, set()
    for label in labels:
        if cfg is None and label.startswith("pcr:"):
            raise ConfigError(
                "pcr:<m> estimators need a sweep.sim block to fix p and n"
            )
        kind, build, args = _parse_estimator(label, n, p)
        # one estimator, one row, however its fields are spelled
        if (kind, *args) in seen:
            raise ConfigError(f"estimator '{label}' is listed twice")
        seen.add((kind, *args))
        ests[label], targets[label] = build(model, n, p, *args)
    if cfg is None or not ests:  # no estimator draws no data
        return targets, {}
    return targets, montecarlo.harness_suite(cfg, ests, targets)


def cmd_simulate(model, block, tag):
    _, reports = _estimate(model, block["estimators"], block)
    cols = ["estimator", "limit", "empirical_mean", "std_error",
            "relative_gap", "n_replicates"]
    rows = [
        [label, r.target, r.empirical_mean, r.std_error, r.relative_gap,
         r.n_replicates]
        for label, r in reports.items()
    ]
    return _csv([f"config={tag}"], cols, rows)


def cmd_sweep(base, block, tag):
    param = block["parameter"]
    spike_index = block.get("spike_index", 1)
    if param == "delta" and not 1 <= spike_index <= max(base.s, 1):
        raise ConfigError("sweep.spike_index out of range")
    est_labels = block.get("estimators", [])
    include_params = block.get("include_sd_params", False)
    sim_block = block.get("sim")

    def model_at(v):
        if param == "sigma_eps_sq":
            return base.replace(sigma_eps_sq=float(v))
        spikes = list(base.spikes)
        if not spikes:
            raise ConfigError("delta sweep requires at least one spike")
        d0, a0 = spikes[spike_index - 1]
        spikes[spike_index - 1] = (float(v), a0)
        return base.replace(spikes=tuple(spikes))

    cols = [param]
    for label in est_labels:
        cols.append(f"{label}_limit")
        if sim_block:
            cols += [f"{label}_empirical", f"{label}_stderr"]
    if include_params:
        s = base.s
        cols += [f"lambda{i}_star" for i in range(s + 1)]
        cols += [f"xi{i}_star" for i in range(1, s + 1)]
        cols += [f"x_star_{j + 1}" for j in range(s)]
    rows = []
    for v in block["values"]:
        model = model_at(v)
        row = [float(v)]
        targets, reports = _estimate(model, est_labels, sim_block)
        for label in est_labels:
            row.append(targets[label])
            if sim_block:
                row += [reports[label].empirical_mean, reports[label].std_error]
        if include_params:
            rule = optimal.optimal_pred_rule(model)
            params = optimal.synthesize_sd_params(rule)
            row += list(params.lambdas) + list(params.xis)
            row += [spectra.outlier_location(model, d) for d in model.deltas]
        rows.append(row)
    return _csv([f"config={tag}"], cols, rows)


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "measure": cmd_measure,
    "risk": cmd_risk,
    "optimal": cmd_optimal,
    "sd-params": cmd_sd_params,
    "federated": cmd_federated,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


# built once per process: parse_args leaves the parser unchanged
_PARSER = argparse.ArgumentParser(
    prog="spectral-distill",
    description="Limiting risks, optimal shrinkage synthesis, and "
    "finite-sample validation for spiked-covariance regression",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", default=None, help="output path (default stdout)")
# replicates run on one thread; the flag stays so that existing callers
# passing --threads 1 keep working
_PARSER.add_argument("--threads", type=int, default=1, help="only 1 is accepted")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    name = args.command.replace("-", "_")
    fn = _COMMANDS[args.command]
    try:
        if args.threads != 1:
            raise ConfigError(f"--threads = {args.threads}: replicates run on "
                              "one thread, so only 1 is accepted")
        if not isinstance(config, dict) or "model" not in config:
            raise ConfigError("top-level object with a 'model' block required")
        unknown = set(config) - set(SCHEMA)
        if unknown:
            raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
        block = _walk(SCHEMA[name], config.get(name, {}), name)
        model = parse_model(config["model"])
        tag = _config_hash(config)
        text = fn(model, block, tag)
    except AssumptionError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, StructuralError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # ConfigError, or a check of the objects built
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(text, args.out)
    except OSError as exc:
        if not args.out:  # stdout itself failed: not a config problem
            raise
        print(f"config error: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def entrypoint():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
