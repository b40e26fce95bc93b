"""Command-line front end: JSON configs in, CSV/JSON results out.

Subcommands: measure | risk | optimal | sd-params | federated | simulate
| sweep. Exit codes: 0 success, 2 config error, 3 assumption violation,
4 numerical failure. Every CSV starts with a comment line carrying the
sha256 of the fully resolved config; floats are serialized with 17
significant digits so outputs round-trip exactly.
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
# config parsing


def _require(d: dict, where: str, required: dict, optional: dict | None = None):
    """Schema check: required/optional key -> type; unknown keys rejected."""
    optional = optional or {}
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, typ in required.items():
        if key not in d:
            raise ConfigError(f"missing required key '{key}' in {where}")
        out[key] = _coerce(d[key], typ, f"{where}.{key}")
    for key, typ in optional.items():
        if key in d:
            out[key] = _coerce(d[key], typ, f"{where}.{key}")
    return out


ANY = object()


def _coerce(value, typ, where):
    if typ is ANY:
        return value
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number")
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string")
        return value
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be a boolean")
        return value
    if typ is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return value
    if typ is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        return value
    raise AssertionError(typ)


def parse_model(block) -> spectra.SpikedModel:
    spec = _require(
        block,
        "model",
        {"sigma0_sq": float, "c": float, "r": float, "sigma_eps_sq": float},
        {"spikes": list},
    )
    spikes = []
    for i, item in enumerate(block.get("spikes", [])):
        sp = _require(item, f"model.spikes[{i}]", {"delta": float, "alpha": float})
        spikes.append((sp["delta"], sp["alpha"]))
    try:
        return spectra.SpikedModel(
            spec["sigma0_sq"], spec["c"], tuple(spikes), spec["r"],
            spec["sigma_eps_sq"],
        )
    except AssumptionError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _grid_values(block, where) -> np.ndarray:
    if isinstance(block, list):
        return np.array([_coerce(v, float, where) for v in block])
    spec = _require(block, where, {"min": float, "max": float, "num": int},
                    {"spacing": str})
    spacing = spec.get("spacing", "linear")
    if spacing == "log":
        if spec["min"] <= 0:
            raise ConfigError(f"{where}: log spacing needs min > 0")
        return np.geomspace(spec["min"], spec["max"], spec["num"])
    if spacing != "linear":
        raise ConfigError(f"{where}: spacing must be 'linear' or 'log'")
    return np.linspace(spec["min"], spec["max"], spec["num"])


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


def build_rules(block, model, where):
    """Expand one rule spec into a list of (label, hyper1, hyper2, fn)."""
    if "kind" not in _coerce(block, dict, where):
        raise ConfigError(f"{where} needs a 'kind'")
    kind = _coerce(block["kind"], str, f"{where}.kind")
    try:
        return _build_rules_inner(block, model, where, kind)
    except AssumptionError as exc:
        # a rule that cannot exist for this model is a config problem
        raise ConfigError(f"invalid rule in {where}: {exc}") from exc


def _build_rules_inner(block, model, where, kind):
    out = []
    if kind == "ridge":
        _require(block, where, {"kind": str, "lambdas": ANY})
        # lambdas may be a list or a grid spec
        lams = _grid_values(block["lambdas"], f"{where}.lambdas")
        for lam in lams:
            out.append(("ridge", float(lam), "", shrinkage.Ridge(float(lam))))
    elif kind == "sd":
        spec = _require(block, where, {"kind": str, "lambdas": list, "xis": list})
        params = shrinkage.SDParams(
            tuple(_coerce(v, float, f"{where}.lambdas[]") for v in spec["lambdas"]),
            tuple(_coerce(v, float, f"{where}.xis[]") for v in spec["xis"]),
        )
        out.append(("sd", "", "", shrinkage.sd_chain_fn(params, model)))
    elif kind == "gd":
        spec = _require(block, where, {"kind": str, "etas": list, "steps": list})
        for eta in spec["etas"]:
            eta = _coerce(eta, float, f"{where}.etas[]")
            for T in spec["steps"]:
                T = _coerce(T, int, f"{where}.steps[]")
                out.append(("gd", eta, T, shrinkage.GDPoly(eta, T)))
    elif kind == "pcr":
        spec = _require(block, where, {"kind": str, "taus": list},
                        {"ramp_width": float})
        for tau in spec["taus"]:
            tau = _coerce(tau, float, f"{where}.taus[]")
            fn = shrinkage.pcr_surrogate(model, tau, spec.get("ramp_width"))
            out.append(("pcr", tau, "", fn))
    elif kind == "min_norm":
        _require(block, where, {"kind": str}, {"ramp_width": float})
        out.append(("min_norm", "", "",
                    shrinkage.min_norm_surrogate(model, block.get("ramp_width"))))
    elif kind == "optimal_pred":
        _require(block, where, {"kind": str})
        out.append(("optimal_pred", "", "", optimal.optimal_pred_rule(model)[0]))
    elif kind == "optimal_est":
        _require(block, where, {"kind": str})
        out.append(("optimal_est", "", "", optimal.optimal_est_rule(model)))
    else:
        raise ConfigError(f"{where}.kind '{kind}' is not a known rule kind")
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_measure(config, out_path):
    block = _require(
        config.get("measure", {}), "measure",
        {}, {"grid_size": int, "x_min": float, "x_max": float},
    )
    model = parse_model(config["model"])
    grid_size = block.get("grid_size", 200)
    if grid_size < 2:
        raise ConfigError("measure.grid_size must be at least 2")
    a, b = spectra.mp_support(model)
    x_lo = block.get("x_min", a)
    x_hi = block.get("x_max", b)
    if not (np.isfinite(x_lo) and np.isfinite(x_hi)):
        raise ConfigError("measure.x_min and measure.x_max must be finite")
    xs = np.linspace(x_lo, x_hi, grid_size)
    cols = ["x", "f_mp"] + [f"f_delta_{j + 1}" for j in range(model.s)]
    dens = [spectra.mp_density(model, xs)]
    spiked = [spectra.spiked_measure(model, d) for d in model.deltas]
    dens += [m.bulk_density(xs) for m in spiked]
    rows = [
        [xs[i]] + [col[i] for col in dens] for i in range(grid_size)
    ]
    comments = [f"config={_config_hash(config)}"]
    for loc, mass in spectra.mp_measure(model).atoms:
        comments.append(f"atom,mp,{_fmt(loc)},{_fmt(mass)}")
    for j, m in enumerate(spiked):
        for loc, mass in m.atoms:
            comments.append(f"atom,delta_{j + 1},{_fmt(loc)},{_fmt(mass)}")
    _emit(_csv(comments, cols, rows), out_path)
    return 0


def cmd_risk(config, out_path):
    block = _require(config.get("risk", {}), "risk", {"rules": list})
    model = parse_model(config["model"])
    cols = (
        ["rule", "hyper1", "hyper2", "pred_bias_bulk"]
        + [f"pred_bias_spike_{j + 1}" for j in range(model.s)]
        + ["pred_variance", "pred_total", "est_bias_bulk", "est_variance",
           "est_total"]
    )
    rows = []
    for i, spec in enumerate(block["rules"]):
        for label, h1, h2, fn in build_rules(spec, model, f"risk.rules[{i}]"):
            pred = shrinkage.limiting_pred_risk(model, fn)
            est = shrinkage.limiting_est_risk(model, fn)
            rows.append(
                [label, h1, h2, pred.bias_bulk, *pred.bias_spikes,
                 pred.variance, pred.total, est.bias_bulk, est.variance,
                 est.total]
            )
    _emit(_csv([f"config={_config_hash(config)}"], cols, rows), out_path)
    return 0


def _optimum_payload(model, rule, b, sd_params):
    round_trip = optimal.sd_round_trip_error(model, rule, sd_params)
    p_coeffs, q_coeffs = rule.monomial_coeffs()
    payload = {
        "b": list(b),
        "P_roots": list(rule.roots_of_p),
        "P_coeffs": list(p_coeffs),
        "Q_coeffs": list(q_coeffs),
        "sd_params": {"lambdas": list(sd_params.lambdas),
                      "xis": list(sd_params.xis)},
        "risks": {
            "pred": shrinkage.limiting_pred_risk(model, rule).total,
            "est": shrinkage.limiting_est_risk(model, rule).total,
        },
        "coprime": optimal.coprimality_check(rule),
        "self_check": {"round_trip_sup_error": round_trip},
    }
    return payload


def cmd_optimal(config, out_path):
    _require(config.get("optimal", {}), "optimal", {})
    model = parse_model(config["model"])
    rule, coef = optimal.optimal_pred_rule(model)
    params = optimal.synthesize_sd_params(rule)
    payload = _optimum_payload(model, rule, coef.b, params)
    payload["A"] = list(coef.A)
    payload["self_check"]["fixed_point_residual"] = (
        optimal.fixed_point_residual(model, rule)
    )
    payload["config"] = _config_hash(config)
    _emit(_json_dump(payload) + "\n", out_path)
    return 0


def cmd_sd_params(config, out_path):
    _require(config.get("sd_params", {}), "sd_params", {})
    model = parse_model(config["model"])
    rule, _ = optimal.optimal_pred_rule(model)
    params = optimal.synthesize_sd_params(rule)
    payload = {
        "lambdas": list(params.lambdas),
        "xis": list(params.xis),
        "round_trip_sup_error": optimal.sd_round_trip_error(model, rule, params),
    }
    payload["config"] = _config_hash(config)
    _emit(_json_dump(payload) + "\n", out_path)
    return 0


def cmd_federated(config, out_path):
    block = _require(config.get("federated", {}), "federated", {"K": int})
    model = parse_model(config["model"])
    opt = federated.federated_optimum(model, block["K"])
    payload = _optimum_payload(model, opt.local_rule, opt.b, opt.sd_params)
    payload["K"] = opt.K
    payload["rho_star"] = opt.rho_star
    payload["risks"]["federated_pred"] = federated.federated_risk(
        model, opt.K, [opt.local_rule] * opt.K, [opt.rho_star] * opt.K,
    )
    payload["config"] = _config_hash(config)
    _emit(_json_dump(payload) + "\n", out_path)
    return 0


def _parse_estimator(label: str, model, p: int, n: int):
    """Estimator spec strings for simulate/sweep.

    ridge:<lam> | ridge_tuned | sd_optimal | pcr:<m> | minnorm |
    gd:<eta>:<steps>
    """
    parts = label.split(":")
    kind = parts[0]
    if kind == "ridge" and len(parts) == 2:
        lam = float(parts[1])
        est = shrinkage.Ridge(lam)
        return est, shrinkage.limiting_pred_risk(model, est).total
    if kind == "ridge_tuned" and len(parts) == 1:
        lam, total = shrinkage.best_ridge(model)
        return shrinkage.Ridge(lam), total
    if kind == "sd_optimal" and len(parts) == 1:
        rule, _ = optimal.optimal_pred_rule(model)
        params = optimal.synthesize_sd_params(rule)
        total = shrinkage.limiting_pred_risk(model, rule).total
        return params, total
    if kind == "pcr" and len(parts) == 2:
        m = int(parts[1])
        s_plus = int(np.sum(model.deltas > model.bbp_threshold))
        if m >= min(n, p):
            # retains every nonzero direction: the min-norm interpolator
            target = shrinkage.limiting_pred_risk(
                model, shrinkage.min_norm_surrogate(model)).total
        elif m <= s_plus:
            target = shrinkage.pcr_component_limit_risk(model, m).total
        else:
            target = shrinkage.pcr_sharp_pred_risk(model, m / p).total
        return ("pcr", m), target
    if kind == "minnorm" and len(parts) == 1:
        target = shrinkage.limiting_pred_risk(
            model, shrinkage.min_norm_surrogate(model)).total
        return ("minnorm",), target
    if kind == "gd" and len(parts) == 3:
        eta, steps = float(parts[1]), int(parts[2])
        est = shrinkage.GDPoly(eta, steps)
        return ("gd", eta, steps), shrinkage.limiting_pred_risk(model, est).total
    raise ConfigError(f"unrecognized estimator spec '{label}'")


def cmd_simulate(config, out_path, threads=1, seed_override=None):
    block = _require(
        config.get("simulate", {}), "simulate",
        {"n": int, "p": int, "seed": int, "n_replicates": int,
         "estimators": list},
        {"entry_dist": str, "student_df": float},
    )
    model = parse_model(config["model"])
    seed = seed_override if seed_override is not None else block["seed"]
    if block["n"] < 1 or block["p"] < 1 or block["n_replicates"] < 1:
        raise ConfigError("simulate sizes must be positive")
    cfg = montecarlo.SimConfig(
        model, block["n"], block["p"], seed,
        entry_dist=block.get("entry_dist", "gaussian"),
        n_replicates=block["n_replicates"],
        student_df=block.get("student_df", 10.0),
    )
    ests, targets = {}, {}
    for label in block["estimators"]:
        est, target = _parse_estimator(_coerce(label, str, "estimators[]"),
                                       model, block["p"], block["n"])
        ests[label] = est
        targets[label] = target
    reports = montecarlo.harness_suite(cfg, ests, targets, threads=threads)
    cols = ["estimator", "limit", "empirical_mean", "std_error",
            "relative_gap", "n_replicates"]
    rows = [
        [label, r.target, r.empirical_mean, r.std_error, r.relative_gap,
         r.n_replicates]
        for label, r in reports.items()
    ]
    _emit(_csv([f"config={_config_hash(config)}"], cols, rows), out_path)
    return 0


def cmd_sweep(config, out_path, threads=1, seed_override=None):
    block = _require(
        config.get("sweep", {}), "sweep",
        {"parameter": str, "values": ANY},
        {"spike_index": int, "estimators": list, "include_sd_params": bool,
         "sim": dict},
    )
    base = parse_model(config["model"])
    param = block["parameter"]
    if param not in ("delta", "sigma_eps_sq"):
        raise ConfigError("sweep.parameter must be 'delta' or 'sigma_eps_sq'")
    values = _grid_values(block["values"], "sweep.values")
    spike_index = block.get("spike_index", 1)
    if param == "delta" and not 1 <= spike_index <= max(base.s, 1):
        raise ConfigError("sweep.spike_index out of range")
    est_labels = [_coerce(label, str, "sweep.estimators[]")
                  for label in block.get("estimators", [])]
    include_params = block.get("include_sd_params", False)
    sim_block = None
    if "sim" in block:
        sim_block = _require(
            block["sim"], "sweep.sim",
            {"n": int, "p": int, "seed": int, "n_replicates": int},
            {"entry_dist": str, "student_df": float},
        )

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
    for v in values:
        model = model_at(v)
        row = [float(v)]
        ests, targets = {}, {}
        for label in est_labels:
            if sim_block is None and label.startswith("pcr:"):
                raise ConfigError(
                    "pcr:<m> estimators need a sweep.sim block to fix p and n"
                )
            est, target = _parse_estimator(
                label, model,
                sim_block["p"] if sim_block else 0,
                sim_block["n"] if sim_block else 0,
            )
            ests[label] = est
            targets[label] = target
        if sim_block:
            cfg = montecarlo.SimConfig(
                model, sim_block["n"], sim_block["p"],
                seed_override if seed_override is not None else sim_block["seed"],
                entry_dist=sim_block.get("entry_dist", "gaussian"),
                n_replicates=sim_block["n_replicates"],
                student_df=sim_block.get("student_df", 10.0),
            )
            reports = montecarlo.harness_suite(cfg, ests, targets, threads=threads)
            for label in est_labels:
                r = reports[label]
                row += [r.target, r.empirical_mean, r.std_error]
        else:
            for label in est_labels:
                row.append(targets[label])
        if include_params:
            rule, _ = optimal.optimal_pred_rule(model)
            params = optimal.synthesize_sd_params(rule)
            row += list(params.lambdas) + list(params.xis)
            row += [spectra.outlier_location(model, d) for d in model.deltas]
        rows.append(row)
    _emit(_csv([f"config={_config_hash(config)}"], cols, rows), out_path)
    return 0


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectral-distill",
        description="Limiting risks, optimal shrinkage synthesis, and "
        "finite-sample validation for spiked-covariance regression",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the simulation seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict) or "model" not in config:
        print("config error: top-level object with a 'model' block required",
              file=sys.stderr)
        return 2

    known_blocks = {"model", "measure", "risk", "optimal", "sd_params",
                    "federated", "simulate", "sweep", "output"}
    unknown = set(config) - known_blocks
    if unknown:
        print(f"config error: unknown top-level key(s) {sorted(unknown)}",
              file=sys.stderr)
        return 2

    out_path = args.out
    if "output" in config:
        try:
            out_block = _require(config["output"], "output", {}, {"path": str})
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        out_path = out_path or out_block.get("path")

    fn = _COMMANDS[args.command]
    try:
        if args.command in ("simulate", "sweep"):
            return fn(config, out_path, threads=args.threads,
                      seed_override=args.seed)
        return fn(config, out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, StructuralError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entrypoint():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
