import copy
import gc
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from spectral_distill import cli, shrinkage, spectra
from spectral_distill.cli import main

CORPUS = pathlib.Path(__file__).parent / "corpus"

FIG1_MODEL = {
    "sigma0_sq": 1.0, "c": 3.0, "r": 5.0, "sigma_eps_sq": 4.0,
    "spikes": [{"delta": 2.0, "alpha": 3.0}, {"delta": 3.0, "alpha": 2.5}],
}
ISO_MODEL = {"sigma0_sq": 1.0, "c": 2.0, "r": 2.0, "sigma_eps_sq": 1.0,
             "spikes": []}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    comments, header, rows = [], None, []
    for line in open(path).read().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def test_measure_csv(tmp_path):
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "measure": {"grid_size": 64}})
    out = tmp_path / "measure.csv"
    assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert header == ["x", "f_mp", "f_delta_1", "f_delta_2"]
    assert len(rows) == 64  # row count equals requested grid size
    assert comments[0].startswith("# config=")
    atom_lines = [c for c in comments if c.startswith("# atom")]
    # c > 1 zero atoms for mp and both spikes, plus both outliers detach
    assert len(atom_lines) == 5
    assert any("delta_2,8" in c for c in atom_lines)


def test_measure_isotropic_has_only_mp_column(tmp_path):
    cfg = write_cfg(tmp_path, {"model": ISO_MODEL, "measure": {"grid_size": 16}})
    out = tmp_path / "m.csv"
    assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["x", "f_mp"]
    assert len(rows) == 16


@pytest.mark.parametrize("model", [FIG1_MODEL, ISO_MODEL | {
    "spikes": [{"delta": 7.0, "alpha": 1.7}]}], ids=["fig1", "readme"])
def test_measure_off_the_bulk_prints_zero_densities(tmp_path, model):
    # x runs from below zero to an outlier, where x* - x is 0 for that
    # spike's density; off the open bulk (a, b) every density is exactly
    # 0, with no nan and no warning (a fresh process shows warnings)
    parsed = cli.parse_model(model)
    a, b = spectra.mp_support(parsed)
    xstar = spectra.outlier_location(parsed, parsed.deltas[-1])
    config = {"model": model,
              "measure": {"grid_size": 41, "x_min": -1.0, "x_max": xstar}}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    out = tmp_path / "m.csv"
    done = subprocess.run(
        [sys.executable, "-m", "spectral_distill.cli", "measure",
         "--config", write_cfg(tmp_path, config), "--out", str(out)],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr.count("\n") <= 1, done.stderr
    assert "nan" not in out.read_text()
    _, header, rows = read_csv(out)
    assert float(rows[-1][0]) == xstar
    off = [row for row in rows if not a < float(row[0]) < b]
    assert {float(row[0]) < a for row in off} == {True, False}  # both sides
    assert len(header) == 2 + parsed.s
    assert all(v == "0" for row in off for v in row[1:])


def test_risk_csv_ridge_argmin(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": ISO_MODEL,
         "risk": {"rules": [
             {"kind": "ridge",
              "lambdas": {"min": 0.01, "max": 10.0, "num": 200, "spacing": "log"}},
         ]}},
    )
    out = tmp_path / "risk.csv"
    assert main(["risk", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    lam_col = header.index("hyper1")
    tot_col = header.index("pred_total")
    lams = np.array([float(r[lam_col]) for r in rows])
    tots = np.array([float(r[tot_col]) for r in rows])
    best = lams[np.argmin(tots)]
    lam_star = 2.0 * 1.0 / 4.0  # c sigma_eps^2 / r^2
    step = np.log(lams[1] / lams[0])
    assert abs(np.log(best / lam_star)) <= step + 1e-12


def test_risk_csv_optimal_dominates_ridges(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": FIG1_MODEL,
         "risk": {"rules": [
             {"kind": "ridge",
              "lambdas": {"min": 0.001, "max": 100.0, "num": 60, "spacing": "log"}},
             {"kind": "optimal_pred"},
             {"kind": "gd", "etas": [0.05], "steps": [50]},
         ]}},
    )
    out = tmp_path / "risk.csv"
    assert main(["risk", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    tot_col = header.index("pred_total")
    kind_col = header.index("rule")
    opt = [float(r[tot_col]) for r in rows if r[kind_col] == "optimal_pred"]
    others = [float(r[tot_col]) for r in rows if r[kind_col] != "optimal_pred"]
    assert len(opt) == 1
    assert opt[0] < min(others)


def test_deterministic_output_bytes(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": FIG1_MODEL,
         "risk": {"rules": [{"kind": "ridge", "lambdas": [0.5, 1.0]}]}},
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["risk", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["risk", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_optimal_json(tmp_path):
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "optimal": {}})
    out = tmp_path / "opt.json"
    assert main(["optimal", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["b"][0] == pytest.approx(9.75, abs=1e-9)
    assert payload["self_check"]["round_trip_sup_error"] < 1e-8
    assert payload["self_check"]["fixed_point_residual"] < 1e-8
    assert len(payload["P_roots"]) == 3
    assert payload["coprime"] is True


def test_federated_json_k1_equals_optimal(tmp_path):
    cfg_opt = write_cfg(tmp_path, {"model": FIG1_MODEL, "optimal": {}}, "a.json")
    cfg_fed = write_cfg(
        tmp_path, {"model": FIG1_MODEL, "federated": {"K": 1}}, "b.json"
    )
    out_opt, out_fed = tmp_path / "opt.json", tmp_path / "fed.json"
    assert main(["optimal", "--config", cfg_opt, "--out", str(out_opt)]) == 0
    assert main(["federated", "--config", cfg_fed, "--out", str(out_fed)]) == 0
    opt = json.loads(out_opt.read_text())
    fed = json.loads(out_fed.read_text())
    assert fed["rho_star"] == pytest.approx(1.0)
    for key in ("b", "P_roots"):
        assert np.allclose(fed[key], opt[key])
    assert fed["sd_params"]["lambdas"] == pytest.approx(
        opt["sd_params"]["lambdas"]
    )


def test_sd_params_json(tmp_path):
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "sd_params": {}})
    out = tmp_path / "sdp.json"
    assert main(["sd-params", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    lams = payload["lambdas"]
    assert len(lams) == 3 and len(payload["xis"]) == 2
    assert sum(1 for l in lams if l < 0) == 2
    assert payload["round_trip_sup_error"] < 1e-9


def test_simulate_csv(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": {"sigma0_sq": 1.0, "c": 0.5, "r": 2.0, "sigma_eps_sq": 1.0,
                   "spikes": [{"delta": 3.0, "alpha": 1.0}]},
         "simulate": {"n": 300, "p": 150, "seed": 4, "n_replicates": 4,
                      "estimators": ["ridge_tuned", "sd_optimal", "pcr:1",
                                     "minnorm"]}},
    )
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header[0] == "estimator"
    gaps = {r[0]: float(r[header.index("relative_gap")]) for r in rows}
    assert gaps["ridge_tuned"] < 0.25
    assert gaps["sd_optimal"] < 0.25


def test_sweep_csv_fig3_columns(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": {"sigma0_sq": 1.0, "c": 3.0, "r": 8.0, "sigma_eps_sq": 16.0,
                   "spikes": [{"delta": 5.0, "alpha": 6.0}]},
         "sweep": {"parameter": "delta", "values": [2.0, 5.0, 11.0],
                   "include_sd_params": True,
                   "estimators": ["ridge_tuned", "sd_optimal"]}},
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    for col in ("lambda0_star", "lambda1_star", "xi1_star", "x_star_1"):
        assert col in header
    assert len(rows) == 3
    lam0 = [float(r[header.index("lambda0_star")]) for r in rows]
    assert all(v < 0 for v in lam0)
    tuned = [float(r[header.index("ridge_tuned_limit")]) for r in rows]
    opt = [float(r[header.index("sd_optimal_limit")]) for r in rows]
    assert all(o < t for o, t in zip(opt, tuned))


def test_exit_codes(tmp_path):
    # 2: schema violation (unknown key)
    bad = write_cfg(tmp_path, {"model": FIG1_MODEL, "wat": 1}, "bad.json")
    assert main(["optimal", "--config", bad]) == 2
    # 2: malformed model
    bad2 = write_cfg(tmp_path, {"model": {"sigma0_sq": 1.0}}, "bad2.json")
    assert main(["optimal", "--config", bad2]) == 2
    # 2: unknown nested key
    bad3 = write_cfg(
        tmp_path,
        {"model": FIG1_MODEL, "measure": {"grid_size": 16, "bogus": 2}},
        "bad3.json",
    )
    assert main(["measure", "--config", bad3]) == 2
    # 3: named assumption violation (delta^2 = c sigma0^4)
    bad4 = write_cfg(
        tmp_path,
        {"model": {"sigma0_sq": 1.0, "c": 4.0, "r": 2.0, "sigma_eps_sq": 1.0,
                   "spikes": [{"delta": 2.0, "alpha": 0.5}]},
         "optimal": {}},
        "bad4.json",
    )
    assert main(["optimal", "--config", bad4]) == 3
    # 2: missing config file
    assert main(["optimal", "--config", str(tmp_path / "nope.json")]) == 2


def _with_field(key, value):
    model = copy.deepcopy(FIG1_MODEL)
    if key in ("delta", "alpha"):
        model["spikes"][0][key] = value
    else:
        model[key] = value
    return model


@pytest.mark.parametrize("key,value", [
    ("sigma_eps_sq", float("nan")),
    ("delta", float("nan")),
    ("alpha", float("nan")),
    ("r", float("inf")),
])
def test_non_finite_model_field_is_config_error(tmp_path, capsys, key, value):
    # json writes these as NaN / Infinity, which json.load accepts
    cfg = write_cfg(tmp_path, {"model": _with_field(key, value), "optimal": {}})
    assert main(["optimal", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("key,value,bound", [
    ("c", 1e-300, "[1e-30, 1e+30]"),
    ("c", 1e-50, "[1e-30, 1e+30]"),
    ("c", 1e50, "[1e-30, 1e+30]"),
    ("c", 1e300, "[1e-30, 1e+30]"),
    ("r", 1e300, "[1e-150, 1e+150]"),
    ("sigma0_sq", 1e300, "[1e-150, 1e+150]"),
    ("delta", 1e300, "[1e-150, 1e+150]"),
    ("delta", 1e-300, "[1e-150, 1e+150]"),
    ("alpha", 1e-300, "at least 1e-150 r"),
])
@pytest.mark.parametrize("command,block", [("optimal", {}), ("risk", {
    "rules": [{"kind": "ridge", "lambdas": [0.5]}, {"kind": "optimal_pred"}]})])
def test_out_of_range_model_field_is_config_error(tmp_path, capsys, key, value,
                                                  bound, command, block):
    # these used to escape as ZeroDivisionError or OverflowError tracebacks
    cfg = write_cfg(tmp_path, {"model": _with_field(key, value), command: block})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err and "out of range" in err and bound in err


@pytest.mark.parametrize("command,block", [
    ("optimal", "optimal"), ("sd-params", "sd_params"), ("federated", "federated")])
def test_closed_form_op_evaluates_optimal_rule_once(tmp_path, monkeypatch,
                                                    command, block):
    # risks, inner products and self-checks share one grid evaluation
    from spectral_distill import shrinkage, spectra

    calls = []
    evaluate = shrinkage.RationalRule.__call__

    def counting(self, x):
        if np.size(x) > 50:
            calls.append(np.size(x))
        return evaluate(self, x)

    monkeypatch.setattr(shrinkage.RationalRule, "__call__", counting)
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL,
                               block: {"K": 3} if command == "federated" else {}})
    spectra._per_model.clear()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command,block", [
    ("optimal", "optimal"), ("sd-params", "sd_params"), ("federated", "federated")])
def test_closed_form_op_scans_poles_once_per_rule(tmp_path, monkeypatch,
                                                  command, block):
    # every validate_rule call on an equal rule and the same model reuses
    # one check: the poles meet the support once per (model, rule)
    from spectral_distill import federated, optimal

    scans, checked = [], set()
    on_support = spectra.SpectralGrid.on_support
    validate = shrinkage.validate_rule

    def counting_scan(self, x):
        scans.append(np.size(x))
        return on_support(self, x)

    def recording(model, f):
        checked.add((model, f))
        return validate(model, f)

    monkeypatch.setattr(spectra.SpectralGrid, "on_support", counting_scan)
    for module in (shrinkage, optimal, federated):
        monkeypatch.setattr(module, "validate_rule", recording)
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL,
                               block: {"K": 3} if command == "federated" else {}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(scans) == len(checked) >= 1


@pytest.mark.parametrize("command,block,integrals", [
    ("optimal", "optimal", 5), ("sd-params", "sd_params", 2),
    ("federated", "federated", 6)])
def test_closed_form_op_integrates_each_integrand_once(tmp_path, monkeypatch,
                                                       command, block, integrals):
    # the Gram system is one integrand, x mu_j / w; the two risks share
    # three moments; A_j, the fixed-point residual and the federated inner
    # products share one x f pass; the federated norm adds x^2 f^2 and
    # reads x f^2 from the risk moments
    from spectral_distill import spectra

    calls = []
    integrate = spectra.SpectralGrid.integrate

    def counting(self, values):
        calls.append(values.shape)
        return integrate(self, values)

    monkeypatch.setattr(spectra.SpectralGrid, "integrate", counting)
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL,
                               block: {"K": 3} if command == "federated" else {}})
    spectra._per_model.clear()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == integrals


@pytest.mark.parametrize("command,block", [
    ("optimal", {}),
    ("simulate", {"n": 40, "p": 80, "seed": 1, "n_replicates": 2,
                  "estimators": ["ridge_tuned", "sd_optimal", "pcr:1",
                                 "pcr:20", "minnorm", "gd:0.05:10"]}),
    ("risk", {"rules": [
        {"kind": "ridge", "lambdas": [0.1, 1.0]},
        {"kind": "sd", "lambdas": [1.0, 2.0], "xis": [0.5]},
        {"kind": "gd", "etas": [0.05], "steps": [10, 100]},
        {"kind": "pcr", "taus": [0.1, 0.3]}, {"kind": "min_norm"},
        {"kind": "optimal_pred"}, {"kind": "optimal_est"}]}),
    ("federated", {"K": 3}),
])
def test_op_builds_each_grid_and_rule_record_once_and_frees_them(
        tmp_path, monkeypatch, command, block):
    # an op's grids, nu basis and rule records are kept per model: each is
    # built once, and all are freed by reference counting when the op
    # drops its model. The cyclic collector is off, so a kept value that
    # held the model, or a cycle through one, would leave them alive.
    built, checked = [], []
    init = spectra.SpectralGrid.__init__
    check = shrinkage._check_and_evaluate

    def counting_init(self, model, breaks=()):
        built.append((weakref.ref(self), tuple(breaks)))
        init(self, model, breaks=breaks)

    def counting_check(grid, f):
        record = check(grid, f)
        checked.append((id(grid), f))
        built.append((weakref.ref(record), ("rule", f)))
        return record

    monkeypatch.setattr(spectra.SpectralGrid, "__init__", counting_init)
    monkeypatch.setattr(shrinkage, "_check_and_evaluate", counting_check)
    cfg = write_cfg(tmp_path, {"model": README_MODEL, command: block})
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        dead = [ref() is None for ref, _ in built]
        assert len(spectra._per_model) == 0
    finally:
        if enabled:
            gc.enable()
    # one model per op, so a grid's breaks name it, and a record its rule
    assert len(built) == len({key for _, key in built}) >= 2
    assert len(checked) == len(set(checked)) >= 1
    assert all(dead)


def test_assumption_message_names_condition(tmp_path, capsys):
    bad = write_cfg(
        tmp_path,
        {"model": {"sigma0_sq": 1.0, "c": 4.0, "r": 2.0, "sigma_eps_sq": 1.0,
                   "spikes": [{"delta": 2.0, "alpha": 0.5}]},
         "optimal": {}},
    )
    assert main(["optimal", "--config", bad]) == 3
    err = capsys.readouterr().err
    assert "assumption violation" in err
    assert "delta_i*delta_j != c*sigma0^4" in err


def test_seventeen_digit_floats(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": ISO_MODEL,
         "risk": {"rules": [{"kind": "ridge", "lambdas": [1.0 / 3.0]}]}},
    )
    out = tmp_path / "risk.csv"
    assert main(["risk", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    lam = rows[0][header.index("hyper1")]
    assert float(lam) == 1.0 / 3.0  # round-trips exactly


def test_sweep_sigma_eps(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"model": FIG1_MODEL,
         "sweep": {"parameter": "sigma_eps_sq", "values": [0.5, 4.0, 16.0],
                   "estimators": ["ridge_tuned", "sd_optimal"]}},
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header[0] == "sigma_eps_sq"
    assert len(rows) == 3
    # more noise, more limiting risk, and the optimum always wins
    tuned = [float(r[header.index("ridge_tuned_limit")]) for r in rows]
    opt = [float(r[header.index("sd_optimal_limit")]) for r in rows]
    assert tuned[0] < tuned[1] < tuned[2]
    assert all(o < t for o, t in zip(opt, tuned))


def test_simulate_seed_override_and_threads(tmp_path, capsys):
    # the seed comes from the config alone, so the config tag fixes it
    payload = {
        "model": {"sigma0_sq": 1.0, "c": 0.5, "r": 2.0, "sigma_eps_sq": 1.0,
                  "spikes": []},
        "simulate": {"n": 200, "p": 100, "seed": 4, "n_replicates": 4,
                     "estimators": ["ridge:1.0"]},
    }
    cfg = write_cfg(tmp_path, payload)
    base, one_thread, reseeded = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["simulate", "--config", cfg, "--out", str(base)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(one_thread),
                 "--threads", "1"]) == 0
    assert base.read_bytes() == one_thread.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--config", cfg, "--seed", "99"])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    payload["simulate"]["seed"] = 99
    assert main(["simulate", "--config", write_cfg(tmp_path, payload, "c.json"),
                 "--out", str(reseeded)]) == 0
    (tag, _, *rows), (tag2, _, *rows2) = (
        path.read_text().splitlines() for path in (base, reseeded))
    assert tag != tag2 and rows != rows2


def test_federated_isotropic_json(tmp_path):
    cfg = write_cfg(tmp_path, {"model": ISO_MODEL, "federated": {"K": 4}})
    out = tmp_path / "fed.json"
    assert main(["federated", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    lam_star = 2.0 * 1.0 / 4.0
    assert payload["P_roots"] == [pytest.approx(-lam_star)]
    assert 0 < payload["rho_star"] < 1
    assert payload["sd_params"]["xis"] == []


def _flat_floats(text):
    """Every number of a JSON or CSV output, in order, bar the self-check.

    A float that rounds to an integer is printed without a decimal point,
    so integers count too."""
    if text.startswith("{"):
        payload = json.loads(text)
        payload.pop("self_check")
        out = []

        def walk(v):
            if isinstance(v, dict):
                v = list(v.values())
            if isinstance(v, list):
                for item in v:
                    walk(item)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                out.append(float(v))

        walk(payload)
        return out
    rows = [line.split(",")[1:] for line in text.splitlines()[2:]]
    return [float(v) for row in rows for v in row if v]


@pytest.mark.parametrize("command,block", [
    ("optimal", {}),
    ("risk", {"rules": [{"kind": "ridge", "lambdas": [0.01, 0.5]},
                        {"kind": "gd", "etas": [0.1, 0.01], "steps": [10, 1000]},
                        {"kind": "optimal_pred"}, {"kind": "optimal_est"}]}),
])
def test_c_next_to_one_matches_c_one(tmp_path, command, block):
    # at c = 1 +- 1e-8 the lower bulk edge sits 2.5e-17 from zero; every
    # number printed there agrees with c = 1
    values = []
    for c in (1.0 - 1e-8, 1.0, 1.0 + 1e-8):
        model = {"sigma0_sq": 1.0, "c": c, "r": 2.0, "sigma_eps_sq": 1.0,
                 "spikes": [{"delta": 3.0, "alpha": 0.6}]}
        cfg = write_cfg(tmp_path, {"model": model, command: block})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        values.append(_flat_floats(out.read_text()))
    for near in (values[0], values[2]):
        assert len(near) == len(values[1])
        for got, want in zip(near, values[1]):
            assert abs(got - want) <= 1e-6 * abs(want)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,block", [
    ("risk", {"rules": [{"kind": "ridge", "lambdas": [NAN]}]}),
    ("risk", {"rules": [{"kind": "ridge", "lambdas": [INF]}]}),
    ("risk", {"rules": [{"kind": "sd", "lambdas": [NAN, 1.0], "xis": [0.5]}]}),
    ("risk", {"rules": [{"kind": "sd", "lambdas": [2.0, 1.0], "xis": [NAN]}]}),
    ("risk", {"rules": [{"kind": "gd", "etas": [NAN], "steps": [10]}]}),
    ("simulate", {"n": 40, "p": 80, "seed": 1, "n_replicates": 1,
                  "estimators": ["ridge:nan"]}),
], ids=["ridge-nan", "ridge-inf", "sd-lambda-nan", "sd-xi-nan", "gd-eta-nan",
        "simulate-ridge-nan"])
def test_non_finite_rule_hyperparameter_is_config_error(tmp_path, capsys,
                                                         command, block):
    # these once mapped the NaN rule values to 0 and printed the zero
    # rule's risk with exit code 0
    model = {**FIG1_MODEL, "c": 2.0}
    cfg = write_cfg(tmp_path, {"model": model, command: block})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "finite" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("rule", [{"kind": "pcr", "taus": [0.2]},
                                  {"kind": "min_norm"}],
                         ids=["pcr", "min_norm"])
def test_ramp_width_is_unknown_key(tmp_path, capsys, rule):
    # PCR and min-norm are exact cut rules; the C^1 ramp that once smoothed
    # them, and its width, are gone
    config = {"model": README_MODEL,
              "risk": {"rules": [{**rule, "ramp_width": 0.01}]}}
    assert main(["risk", "--config", write_cfg(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: unknown key(s)")
    assert "ramp_width" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_pcr_tau_outside_bulk_is_config_error(tmp_path, capsys, tau):
    # the README model has c = 2, so the bulk holds a fraction 1/c = 0.5
    config = {"model": README_MODEL,
              "risk": {"rules": [{"kind": "pcr", "taus": [tau]}]}}
    assert main(["risk", "--config", write_cfg(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "tau" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("df", [INF, NAN], ids=["inf", "nan"])
def test_non_finite_student_df_is_config_error(tmp_path, capsys, df):
    # an infinite df once passed the df > 8 check, made every design entry
    # NaN and printed the zero estimator's risk with exit code 0
    cfg = write_cfg(tmp_path, {"model": ISO_MODEL, "simulate": {
        "n": 40, "p": 80, "seed": 1, "n_replicates": 2,
        "entry_dist": "student_t", "student_df": df,
        "estimators": ["ridge:1.0"]}})
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "finite" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("command,block", [
    ("risk", {"rules": [3]}),
    ("risk", {"rules": [{"kind": "sd", "lambdas": [None], "xis": []}]}),
    ("measure", {"x_min": NAN}),
    ("measure", {"x_max": INF}),
    ("risk", {"rules": [{"kind": "ridge", "lambdas": [10**400]}]}),
    ("risk", {"rules": [{"kind": "gd", "etas": [0.1], "steps": [10**400]}]}),
], ids=["rule-not-object", "sd-lambda-null", "measure-x_min-nan",
        "measure-x_max-inf", "ridge-lambda-beyond-double",
        "gd-steps-beyond-double"])
def test_malformed_input_is_config_error(tmp_path, capsys, command, block):
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, command: block})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command,config,field", [
    ("risk", {"model": FIG1_MODEL, "risk": {"rules": {}}}, "risk.rules"),
    ("optimal", {"model": [], "optimal": {}}, "model must be an object"),
    ("sweep", {"model": FIG1_MODEL, "sweep": {
        "parameter": "delta", "values": [2.5], "include_sd_params": 1}},
     "sweep.include_sd_params"),
    ("sweep", {"model": FIG1_MODEL, "sweep": {
        "parameter": "sigma_eps_sq", "values": [1.0], "estimators": ["pcr:3"]}},
     "sweep.sim"),
    ("sweep", {"model": FIG1_MODEL, "sweep": {
        "parameter": "delta", "values": [2.5], "spike_index": 3}},
     "sweep.spike_index"),
    ("sweep", {"model": ISO_MODEL, "sweep": {
        "parameter": "delta", "values": [2.5]}}, "delta sweep"),
    ("optimal", {"optimal": {}}, "'model'"),
    ("optimal", [FIG1_MODEL], "'model'"),
], ids=["rules-not-list", "model-not-object", "include_sd_params-not-boolean",
        "pcr-sweep-without-sim", "spike_index-out-of-range",
        "delta-sweep-without-spikes", "no-model", "top-level-list"])
def test_misplaced_field_is_one_line_config_error(tmp_path, capsys, command,
                                                   config, field):
    cfg = write_cfg(tmp_path, config)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("spacing", [{}, {"spacing": "linear"}],
                         ids=["default", "linear"])
def test_linear_ridge_grid_prints_the_rows_of_its_points(tmp_path, spacing):
    rows = {}
    for name, lambdas in (("grid", {"min": 0.1, "max": 2.0, "num": 5, **spacing}),
                          ("list", np.linspace(0.1, 2.0, 5).tolist())):
        rules = [{"kind": "ridge", "lambdas": lambdas}]
        cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "risk": {"rules": rules}},
                        name=f"{name}.json")
        out = tmp_path / f"{name}.csv"
        assert main(["risk", "--config", cfg, "--out", str(out)]) == 0
        rows[name] = read_csv(out)[1:]
    assert rows["grid"] == rows["list"] and len(rows["grid"][1]) == 5


def test_output_block_is_an_unknown_key(tmp_path, capsys):
    # --out alone says where the output goes
    out = tmp_path / "opt.json"
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "optimal": {},
                               "output": {"path": str(out)}})
    assert main(["optimal", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "config error: unknown top-level key(s) ['output']\n"
    with pytest.raises(SystemExit):
        main(["optimal", "--config", cfg, "--format", "json"])


def test_unwritable_output_is_one_line_config_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    taken = tmp_path / "taken"  # a directory: the rename onto it fails
    taken.mkdir()
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "sd_params": {}})
    for out in (missing, taken):
        assert main(["sd-params", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
    assert not list(tmp_path.rglob(".spectral-distill-*"))
    assert not missing.parent.exists() and not any(taken.iterdir())


def test_out_file_honours_the_umask(tmp_path):
    # the temporary file an output is renamed from is created 0600
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "sd_params": {}})
    out = tmp_path / "sd.json"
    old = os.umask(0o022)
    try:
        assert main(["sd-params", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644


def _refusal(tmp_path, kind):
    """(command, config, extra arguments, exit code) of one refused input."""
    if kind == "infinite-grid-bound":
        config = {"model": FIG1_MODEL, "risk": {"rules": [{"kind": "ridge",
                  "lambdas": {"min": INF, "max": 1.0, "num": 3}}]}}
        return "risk", config, [], 2
    if kind in ("simulate-huge-c", "sweep-huge-c"):
        # data drawn at p/n = 2 are no sample of a model with c = 2^70; the
        # sweep once printed a pcr:2 limit of 15.56 beside a mean of 4.36
        command = kind.split("-")[0]
        config = json.loads((CORPUS / f"{command}__readme-sim.json").read_text())
        config["model"]["c"] = 2**70
        return command, config, [], 2
    if kind == "gd-huge-eta":
        rule = {"kind": "gd", "etas": [1e300], "steps": [10]}
        return "risk", {"model": FIG1_MODEL, "risk": {"rules": [rule]}}, [], 4
    if kind == "sd-huge-xi":
        rule = {"kind": "sd", "lambdas": [1.0, 2.0], "xis": [-1e300]}
        return "risk", {"model": FIG1_MODEL, "risk": {"rules": [rule]}}, [], 4
    if kind == "gd-diverges-at-outlier":
        # |1 - 0.2 x*| = 1.057 at the outlier x* = 72/7: after 20,000
        # steps the rule overflows there, so its risk is not a double
        config = json.loads((CORPUS / "risk__readme.json").read_text())
        config["risk"] = {"rules": [{"kind": "gd", "etas": [0.2],
                                     "steps": [20000]}]}
        return "risk", config, [], 4
    if kind == "gram-overflow":
        # the weight w underflows to 0 on the bulk, so the Gram integrand
        # x mu_j / w is inf there; summing it once printed numpy's
        # invalid-value warning before the refusal
        model = {"sigma0_sq": 1e-150, "c": 2.0, "r": 1e-150, "sigma_eps_sq": 1e-300,
                 "spikes": [{"delta": 7e-150, "alpha": 5e-151}]}
        return "optimal", {"model": model, "optimal": {}}, [], 4
    if kind.startswith("shared-root-"):
        # a spike of 1e-150 makes Q and P share their root past the
        # outlier: the rule is the 0-step ridge, no 1-step chain
        command = kind.removeprefix("shared-root-")
        block = {"K": 3} if command == "federated" else {}
        config = {"model": README_MODEL | {"spikes": [{"delta": 1e-150,
                                                       "alpha": 1.7}]},
                  command.replace("-", "_"): block}
        return command, config, [], 3
    config = {"model": FIG1_MODEL, "optimal": {}}
    return "optimal", config, ["--out", str(tmp_path / "missing" / "x.json")], 2


@pytest.mark.parametrize("kind", ["infinite-grid-bound", "simulate-huge-c",
                                  "sweep-huge-c", "missing-directory",
                                  "gd-huge-eta", "sd-huge-xi",
                                  "gd-diverges-at-outlier", "gram-overflow",
                                  "shared-root-optimal", "shared-root-sd-params",
                                  "shared-root-federated"])
def test_refused_input_prints_one_line_in_a_fresh_process(tmp_path, kind):
    # warnings are shown in a fresh process, unlike under pytest
    command, config, extra, code = _refusal(tmp_path, kind)
    src = os.path.dirname(os.path.dirname(
        sys.modules["spectral_distill.cli"].__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "spectral_distill.cli", command,
         "--config", write_cfg(tmp_path, config), *extra],
        env=env, capture_output=True, text=True)
    assert done.returncode == code
    assert done.stdout == ""
    assert done.stderr.startswith({2: "config error:", 3: "assumption violation:",
                                   4: "numerical failure:"}[code])
    assert done.stderr.count("\n") == 1, done.stderr


def test_sweep_sd_params_isotropic(tmp_path):
    # at s = 0 the chain is the single ridge stage at lambda* = c se^2 / r^2
    cfg = write_cfg(
        tmp_path,
        {"model": ISO_MODEL,
         "sweep": {"parameter": "sigma_eps_sq", "values": [0.5, 3.0],
                   "include_sd_params": True}},
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["sigma_eps_sq", "lambda0_star"]
    for row in rows:
        lam_star = 2.0 * float(row[0]) / 4.0
        assert float(row[1]) == pytest.approx(lam_star, rel=1e-15)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(
        sys.modules["spectral_distill.cli"].__file__))
    code = ("import sys, spectral_distill.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    src = os.path.dirname(os.path.dirname(
        sys.modules["spectral_distill.cli"].__file__))
    code = ("import sys, spectral_distill.cli; "
            "print('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_non_string_sweep_estimator_is_config_error(tmp_path, capsys):
    # a number in sweep.estimators once escaped as an AttributeError
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "sweep": {
        "parameter": "sigma_eps_sq", "values": [1.0], "estimators": [1]}})
    assert main(["sweep", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "string" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


ONE_SPIKE_MODEL = {"sigma0_sq": 1.0, "c": 1.0, "r": 2.0, "sigma_eps_sq": 1.0,
                   "spikes": [{"delta": 7.0, "alpha": 1.7}]}


@pytest.mark.parametrize("command,block", [
    ("simulate", {"n": 1, "p": 1, "seed": 1, "n_replicates": 1,
                  "estimators": ["ridge:1.0"]}),
    ("sweep", {"parameter": "sigma_eps_sq", "values": [1.0],
               "estimators": ["ridge:1.0"],
               "sim": {"n": 1, "p": 1, "seed": 1, "n_replicates": 1}}),
], ids=["simulate", "sweep-sim"])
def test_simulation_with_p_equal_to_s_is_config_error(tmp_path, capsys,
                                                       command, block):
    # with p = s the spike directions span R^p and leave no direction for
    # the rest of the signal; this once escaped as a RuntimeError
    cfg = write_cfg(tmp_path, {"model": ONE_SPIKE_MODEL, command: block})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "spikes" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


SIM_SIZES = {"n": 40, "p": 80, "seed": 1, "n_replicates": 1}


def _sized(command, field, value):
    """(config block, where) with the count `field` set to `value`."""
    if command == "measure":
        return {"grid_size": value}, "measure.grid_size"
    if command == "risk":
        grid = {"min": 0.1, "max": 1.0, "num": value}
        return ({"rules": [{"kind": "ridge", "lambdas": grid}]},
                "risk.rules[0].lambdas.num")
    if command == "federated":
        return {"K": value}, "federated.K"
    if command == "simulate":
        return ({**SIM_SIZES, field: value, "estimators": ["ridge:1.0"]},
                f"simulate.{field}")
    if field == "num":
        return ({"parameter": "sigma_eps_sq",
                 "values": {"min": 1.0, "max": 2.0, "num": value}},
                "sweep.values.num")
    return ({"parameter": "sigma_eps_sq", "values": [1.0],
             "estimators": ["ridge:1.0"], "sim": {**SIM_SIZES, field: value}},
            f"sweep.sim.{field}")


@pytest.mark.parametrize("command,field,cap", [
    ("measure", "grid_size", cli.MAX_GRID),
    ("risk", "num", cli.MAX_GRID),
    ("sweep", "num", cli.MAX_GRID),
    ("federated", "K", cli.MAX_CLIENTS),
    ("simulate", "n", cli.MAX_DIM),
    ("simulate", "p", cli.MAX_DIM),
    ("simulate", "n_replicates", cli.MAX_REPLICATES),
    ("sweep", "n", cli.MAX_DIM),
    ("sweep", "p", cli.MAX_DIM),
    ("sweep", "n_replicates", cli.MAX_REPLICATES),
])
@pytest.mark.parametrize("over", [1, 4_000_000_000])
def test_count_above_its_cap_is_config_error(tmp_path, capsys, command, field,
                                             cap, over):
    # measure.grid_size = 4e9 once asked numpy for 32 GB and ended in a
    # MemoryError traceback
    block, where = _sized(command, field, cap + over)
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, command: block})
    tracemalloc.start()
    try:
        code = main([command, "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20  # refused before anything of that size exists
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: {where} = {cap + over} exceeds "
                            f"its cap of {cap}\n")


@pytest.mark.parametrize("threads", [0, 2, 9])
def test_threads_outside_their_range_are_config_error(tmp_path, capsys,
                                                     monkeypatch, threads):
    # replicates run on one thread; the flag takes only 1
    def refuse(*args, **kwargs):
        raise AssertionError("harness_suite was called")

    monkeypatch.setattr(cli.montecarlo, "harness_suite", refuse)
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL,
                               "simulate": {**SIM_SIZES,
                                            "estimators": ["ridge:1.0"]}})
    assert main(["simulate", "--config", cfg, "--threads", str(threads)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: --threads = {threads}: replicates "
                            "run on one thread, so only 1 is accepted\n")


README_MODEL = {"sigma0_sq": 1.0, "c": 2.0, "r": 2.0, "sigma_eps_sq": 4.0,
                "spikes": [{"delta": 7.0, "alpha": 1.7}]}
NO_NOISE, C_ONE = {"sigma_eps_sq": 0.0}, {"c": 1.0}


def _estimating(command, labels):
    """A simulate block, or a sweep block with a sim block, of `labels`."""
    if command == "simulate":
        return {**SIM_SIZES, "estimators": labels}
    return {"parameter": "sigma_eps_sq", "values": [4.0],
            "estimators": labels, "sim": dict(SIM_SIZES)}


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("m", [0, -3, 41])
def test_pcr_outside_one_to_min_n_p_is_refused_before_any_draw(
        tmp_path, capsys, monkeypatch, command, m):
    # the range was once checked inside the fit, after an n x p design had
    # been drawn and decomposed
    monkeypatch.setattr(cli.montecarlo, "gen_data", _refuse("gen_data"))
    cfg = write_cfg(tmp_path, {"model": README_MODEL,
                               command: _estimating(command, [f"pcr:{m}"])})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: pcr:{m}: m must be in "
                            "1..min(n, p) = 40\n")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_pcr_past_the_bulk_mass_takes_the_min_norm_target(tmp_path, command):
    # c = p/n = 2 leaves the bulk a mass 1/c = 0.5. At n = 80, p = 160,
    # pcr:80 keeps every nonzero direction, the bulk's whole mass, and its
    # limit is the min-norm interpolator's; pcr:79 (79/160 < 0.5) takes
    # the sharp cut at 79/160.
    sizes = {"n": 80, "p": 160, "seed": 1, "n_replicates": 1}
    labels = ["pcr:80", "pcr:79", "minnorm"]
    block = ({**sizes, "estimators": labels} if command == "simulate" else
             {"parameter": "sigma_eps_sq", "values": [4.0],
              "estimators": labels, "sim": sizes})
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, {"model": README_MODEL, command: block})
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    if command == "simulate":
        limit = {row[0]: row[header.index("limit")] for row in rows}
    else:
        limit = {label: rows[0][header.index(f"{label}_limit")] for label in labels}
    assert limit["pcr:80"] == limit["minnorm"]
    model = cli.parse_model(README_MODEL)
    sharp = shrinkage.pcr_sharp_pred_risk(model, 79 / 160).total
    assert float(limit["pcr:79"]) == sharp


def _sim_block(command, sizes, labels):
    if command == "simulate":
        return {**sizes, "estimators": labels}
    return {"parameter": "sigma_eps_sq", "values": [1.0, 4.0, 9.0],
            "estimators": labels, "sim": sizes}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_p_over_n_not_c_is_refused_before_any_limit_or_draw(
        tmp_path, capsys, monkeypatch, command):
    # the limits hold at c = p/n: a mean drawn at 150/80 was once printed
    # beside a limit taken at c = 2, after only a warning
    monkeypatch.setattr(cli.montecarlo, "gen_data", _refuse("gen_data"))
    for kind, (fields, _) in cli.montecarlo.ESTIMATORS.items():
        monkeypatch.setitem(cli.montecarlo.ESTIMATORS, kind,
                            (fields, _refuse(kind)))
    sizes = {"n": 80, "p": 150, "seed": 1, "n_replicates": 2}
    block = _sim_block(command, sizes, ["ridge:1", "pcr:79", "minnorm"])
    cfg = write_cfg(tmp_path, {"model": README_MODEL, command: block})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: p/n = 150/80 = 1.875 ")
    assert "c = 2.0" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_no_estimator_draws_no_data(tmp_path, capsys, monkeypatch, command):
    # without an estimator the output is the header alone: drawing and
    # decomposing every replicate for it once took over a second
    calls = []
    gen_data = cli.montecarlo.gen_data
    monkeypatch.setattr(cli.montecarlo, "gen_data",
                        lambda *a, **k: calls.append(a) or gen_data(*a, **k))
    sizes = {"n": 500, "p": 1000, "seed": 1, "n_replicates": 20}
    cfg = write_cfg(tmp_path, {"model": README_MODEL,
                               command: _sim_block(command, sizes, [])})
    assert main([command, "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert calls == []
    if command == "simulate":
        assert out[1:] == ["estimator,limit,empirical_mean,std_error,"
                           "relative_gap,n_replicates"]
    else:
        assert out[1:] == ["sigma_eps_sq", "1", "4", "9"]
    # a setting with p/n != c is still refused
    sizes["p"] = 999
    cfg = write_cfg(tmp_path, {"model": README_MODEL,
                               command: _sim_block(command, sizes, [])})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: p/n = 999/500")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("label,message", [
    ("pcr:abc", "m = 'abc' is not an integer"),
    ("pcr:1.5", "m = '1.5' is not an integer"),
    ("ridge:x", "lambda = 'x' is not a number"),
    ("gd:x:100", "eta = 'x' is not a number"),
    ("gd:0.1:x", "steps = 'x' is not an integer"),
    ("gd:0.1:2.5", "steps = '2.5' is not an integer"),
])
def test_malformed_estimator_number_names_label_and_field(
        tmp_path, capsys, monkeypatch, command, label, message):
    # the int()/float() error once came through alone, as
    # "invalid literal for int() with base 10: 'abc'"
    monkeypatch.setattr(cli.montecarlo, "gen_data", _refuse("gen_data"))
    cfg = write_cfg(tmp_path, {"model": README_MODEL,
                               command: _estimating(command, [label])})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {label}: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("field", ["n", "p"])
def test_simulation_size_below_one_is_refused_by_name(tmp_path, capsys,
                                                      command, field):
    # a size of 0 is named as such, not as an empty pcr:<m> range
    block = _estimating(command, ["pcr:1"])
    sizes = block["sim"] if command == "sweep" else block
    sizes[field] = 0
    where = "sweep.sim" if command == "sweep" else "simulate"
    cfg = write_cfg(tmp_path, {"model": README_MODEL, command: block})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {where}.{field} must be at least 1\n"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_repeated_estimator_label_is_config_error(tmp_path, capsys,
                                                  monkeypatch, command):
    # reports are keyed by label: simulate once printed 2 rows for the first
    # 3 labels and sweep every ridge:1 column twice; int() and float() read
    # 1_0 as 10 and ' 1' as 1, so the second list once gave two pairs of
    # identical rows
    monkeypatch.setattr(cli.montecarlo, "harness_suite",
                        _refuse("harness_suite"))
    for labels, message in (
            (["ridge:1", "ridge:1", "minnorm"],
             "estimator 'ridge:1' is listed twice"),
            (["pcr:1_0", "pcr:10", "ridge: 1", "ridge:1"],
             "estimator 'pcr:10' is listed twice")):
        block = _estimating(command, labels)
        cfg = write_cfg(tmp_path, {"model": README_MODEL, command: block})
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("model,command,block", [
    ({}, "risk", {"rules": [{"kind": "ridge", "lambdas": [-3.0]}]}),
    ({}, "risk", {"rules": [{"kind": "sd", "lambdas": [-3.0], "xis": []}]}),
    ({}, "simulate", {**SIM_SIZES, "estimators": ["ridge:-3"]}),
    ({}, "sweep", {"parameter": "sigma_eps_sq", "values": [4.0],
                   "estimators": ["ridge:-3"]}),
    (NO_NOISE, "risk", {"rules": [{"kind": "optimal_pred"}]}),
    (NO_NOISE, "risk", {"rules": [{"kind": "optimal_est"}]}),
    (NO_NOISE, "optimal", {}),
    (NO_NOISE, "sd-params", {}),
    (NO_NOISE, "federated", {"K": 2}),
    (NO_NOISE, "simulate", {**SIM_SIZES, "estimators": ["sd_optimal"]}),
    (NO_NOISE, "sweep", {"parameter": "delta", "values": [7.0],
                         "estimators": ["sd_optimal"]}),
    (C_ONE, "risk", {"rules": [{"kind": "min_norm"}]}),
    (C_ONE, "simulate", {**SIM_SIZES, "p": 40, "estimators": ["minnorm"]}),
    (C_ONE, "sweep", {"parameter": "sigma_eps_sq", "values": [4.0],
                      "estimators": ["minnorm"]}),
], ids=["ridge-risk", "sd-risk", "ridge-simulate", "ridge-sweep",
        "optimal_pred-risk", "optimal_est-risk", "optimal", "sd-params",
        "federated", "sd_optimal-simulate", "sd_optimal-sweep",
        "min_norm-risk", "minnorm-simulate", "minnorm-sweep"])
def test_rule_that_cannot_exist_exits_3_under_every_command(tmp_path, capsys,
                                                            model, command,
                                                            block):
    # on the README model: lambda = -3 puts a pole inside the bulk, and the
    # optimal rules at sigma_eps^2 = 0 and the min-norm rule at c = 1 do
    # not exist; each once exited 2 under some commands and 3 under others
    config = {"model": {**README_MODEL, **model},
              command.replace("-", "_"): block}
    assert main([command, "--config", write_cfg(tmp_path, config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("assumption violation:")
    assert captured.err.count("\n") == 1


def test_chain_past_the_double_range_of_its_outliers_shares_a_root(tmp_path, capsys):
    # at r = 2^70 alpha_j^2 / r^2 is about 1e-42: the residues at the 14
    # roots next to the outliers are round-off of zero, so Q shares those
    # roots. The synthesis once formed the basis x^14 prod (x - gamma_i),
    # which underflowed to 0 and escaped as a ZeroDivisionError, then exited
    # 4; the coprimality check in front of it refuses the rule first
    config = json.loads((CORPUS / "federated__many-s14-0.json").read_text())
    config["model"]["r"] = 2**70
    assert main(["federated", "--config", write_cfg(tmp_path, config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("assumption violation: P and Q must be coprime")
    assert "they share the root 6.047437231553536" in captured.err
    assert captured.err.count("\n") == 1


FUZZ_CASES = ["measure__readme", "risk__readme", "optimal__readme",
              "sd-params__readme", "federated__readme", "simulate__readme-sim",
              "sweep__readme-sim"]
EDGE_VALUES = [0, -1, 1e300, -1e300, 1e-300, -1e-300, NAN, INF, -INF, 2**70,
               "x", None, [], {}, True]
# counts that size an allocation get no large integer: their caps are
# tested above, and a run may not allocate much here
COUNTS = {"grid_size", "num", "n", "p", "n_replicates", "K"}


def _leaves(obj, path=()):
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


@pytest.mark.parametrize("name", FUZZ_CASES)
def test_every_edge_value_of_every_leaf_exits_with_one_line(tmp_path, capsys,
                                                            name):
    config = json.loads((CORPUS / f"{name}.json").read_text())
    command = name.split("__")[0]
    bad = []
    for path in _leaves(config):
        field = [key for key in path if isinstance(key, str)][-1]
        for value in EDGE_VALUES:
            if field in COUNTS and value == 2**70:
                continue
            fuzzed = copy.deepcopy(config)
            parent = fuzzed
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            cfg = write_cfg(tmp_path, fuzzed)
            try:
                code = main([command, "--config", cfg,
                             "--out", str(tmp_path / "out")])
            except Exception as exc:  # an escape is the failure under test
                code = repr(exc)
            err = capsys.readouterr().err
            if code not in (0, 2, 3, 4) or err.count("\n") > 1:
                bad.append(f"{path} = {value!r}: {code} {err!r}")
    assert not bad, "\n".join(bad[:10])
