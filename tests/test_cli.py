import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spectral_distill.cli import main

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
    for key in ("b", "P_roots", "Q_coeffs"):
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
    spectra._grid_cached.cache_clear()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


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


def test_simulate_seed_override_and_threads(tmp_path):
    payload = {
        "model": {"sigma0_sq": 1.0, "c": 0.5, "r": 2.0, "sigma_eps_sq": 1.0,
                  "spikes": []},
        "simulate": {"n": 200, "p": 100, "seed": 4, "n_replicates": 4,
                     "estimators": ["ridge:1.0"]},
    }
    cfg = write_cfg(tmp_path, payload)
    base, threaded, reseeded = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["simulate", "--config", cfg, "--out", str(base)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(threaded),
                 "--threads", "3"]) == 0
    assert base.read_bytes() == threaded.read_bytes()
    assert main(["simulate", "--config", cfg, "--out", str(reseeded),
                 "--seed", "99"]) == 0
    assert base.read_bytes() != reseeded.read_bytes()


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
    ("risk", {"rules": [{"kind": "pcr", "taus": [0.2], "ramp_width": NAN}]}),
    ("risk", {"rules": [{"kind": "min_norm", "ramp_width": NAN}]}),
    ("simulate", {"n": 40, "p": 80, "seed": 1, "n_replicates": 1,
                  "estimators": ["ridge:nan"]}),
], ids=["ridge-nan", "ridge-inf", "sd-lambda-nan", "sd-xi-nan", "gd-eta-nan",
        "pcr-ramp-nan", "min_norm-ramp-nan", "simulate-ridge-nan"])
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
], ids=["rule-not-object", "sd-lambda-null", "measure-x_min-nan",
        "measure-x_max-inf"])
def test_malformed_input_is_config_error(tmp_path, capsys, command, block):
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, command: block})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_output_block_takes_only_a_path(tmp_path):
    out = tmp_path / "opt.json"
    cfg = write_cfg(tmp_path, {"model": FIG1_MODEL, "optimal": {},
                               "output": {"path": str(out)}})
    assert main(["optimal", "--config", cfg]) == 0
    assert json.loads(out.read_text())["coprime"] is True
    bad = write_cfg(tmp_path, {"model": FIG1_MODEL, "optimal": {},
                               "output": {"format": "xml"}}, "bad.json")
    assert main(["optimal", "--config", bad]) == 2
    with pytest.raises(SystemExit):
        main(["optimal", "--config", cfg, "--format", "json"])


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
