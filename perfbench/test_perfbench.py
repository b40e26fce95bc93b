"""Self-tests of the benchmark: metric names, output checks, generator, tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import envinfo  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    proc = _run_bench(ROOT, "--workload", "closed_form", "--seed", "3",
                      "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _spec()[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_declared_metrics_match_the_code():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "rule_scan", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_processes_use_nproc_blas_threads(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    env = run.child_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[var] == str(envinfo.nproc())


def test_generator_is_seeded():
    a = workloads.make_ops("closed_form", 5, 30)
    b = workloads.make_ops("closed_form", 5, 30)
    c = workloads.make_ops("closed_form", 6, 30)
    assert [op.config for op in a[1]] == [op.config for op in b[1]]
    assert a[0].config == b[0].config and a[2] == b[2]
    assert [op.config for op in a[1]] != [op.config for op in c[1]]
    assert [op.command for op in a[1][:3]] == list(workloads.CLOSED_FORM_COMMANDS)


def test_generated_models_are_valid():
    from spectral_distill import SpikedModel

    for workload in workloads.WORKLOADS:
        _, ops, _ = workloads.make_ops(workload, 11, 200)
        for op in ops:
            m = op.config["model"]
            SpikedModel(m["sigma0_sq"], m["c"],
                        tuple((s["delta"], s["alpha"]) for s in m["spikes"]),
                        m["r"], m["sigma_eps_sq"])
            if workload == "montecarlo":
                sim = op.config["simulate"]
                assert sim["p"] / sim["n"] == m["c"]


def _output(tmp_path, op):
    from spectral_distill import cli

    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    workloads.write_config(str(cfg), op)
    assert cli.main([op.command, "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_text()


def _replace_field(text, name, value):
    """Set a JSON field at any depth to `value` (formatted as JSON)."""
    payload = json.loads(text)

    def walk(node):
        if isinstance(node, dict):
            for key in node:
                if key == name:
                    node[key] = value
                else:
                    walk(node[key])

    walk(payload)
    return json.dumps(payload)


def _replace_cell(text, row_label, column, value):
    lines = text.splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[header].split(",").index(column)
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        if cells[0] == row_label:
            cells[col] = value
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError(row_label)


def _ops():
    def draws(seed):
        return workloads.Draws(np.random.default_rng(seed))

    return {
        "optimal": workloads.closed_form_op(draws(1), 0),
        "sd-params": workloads.closed_form_op(draws(2), 1),
        "federated": workloads.closed_form_op(draws(3), 2),
        "risk": workloads.rule_scan_op(draws(4), 0),
        "simulate": workloads.montecarlo_op(draws(5), 0, workloads.MC_WARMUP_N),
    }


TAMPERS = {
    "optimal": [lambda t: _replace_field(t, "fixed_point_residual", 1e-6),
                lambda t: _replace_field(t, "round_trip_sup_error", 1e-7),
                lambda t: _replace_field(t, "config", "0" * 64)],
    "sd-params": [lambda t: _replace_field(t, "round_trip_sup_error", 2e-9),
                  lambda t: _replace_field(t, "round_trip_sup_error", "0"),
                  lambda t: _replace_field(t, "xis", [])],
    "federated": [lambda t: _replace_field(t, "federated_pred", float("nan")),
                  lambda t: t[: len(t) // 2]],
    "risk": [lambda t: _replace_cell(t, "optimal_pred", "pred_total", "1e9"),
             lambda t: _replace_cell(t, "optimal_est", "est_total", "1e9"),
             lambda t: _replace_cell(t, "ridge", "est_total", "x"),
             lambda t: t.replace("# config=", "# config=0")],
    "simulate": [lambda t: _replace_cell(t, "sd_optimal", "empirical_mean", "nan"),
                 lambda t: _replace_cell(t, "minnorm", "limit", "-1.0"),
                 lambda t: _replace_cell(t, "minnorm", "estimator", "ols")],
}


@pytest.mark.parametrize("command", sorted(TAMPERS))
def test_checker_accepts_real_and_rejects_tampered_output(tmp_path, command):
    op = _ops()[command]
    text = _output(tmp_path, op)
    workloads.check_output(op, text)
    for tamper in TAMPERS[command]:
        with pytest.raises(workloads.CheckError):
            workloads.check_output(op, tamper(text))


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:        30 |         50 |     scipy.optimize",
        "import time:         5 |        205 |   spectral_distill.optimal",
        "import time:         7 |        212 | spectral_distill",
        "import time:         9 |          9 | json",
    ])
    out = envinfo.parse_importtime(text)
    assert out == pytest.approx({"numpy_ms": 0.15, "scipy_ms": 0.05,
                                 "self_ms": 0.012, "total_ms": 0.221})


def test_tracer_wraps_every_binding_and_restores_them():
    import spectral_distill
    from spectral_distill import measures, optimal, shrinkage, spectra

    original = spectra.get_grid
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spectra.get_grid is not original
        for mod in (measures, optimal, shrinkage, spectral_distill):
            assert mod.get_grid is spectra.get_grid
        model = spectra.SpikedModel(1.0, 2.0, ((7.0, 1.7),), 2.0, 4.0)
        tracer.op = 0
        shrinkage.limiting_pred_risk(model, shrinkage.Ridge(0.123456))
    finally:
        tracer.uninstall()
    assert spectra.get_grid is original and measures.get_grid is original
    per_op = tracer.per_op(1)
    assert set(per_op) == set(spans.SPAN_NAMES)
    assert per_op["shrinkage.limiting_pred_risk"][0] == 1
    assert per_op["spectra.get_grid"][0] >= 2
    parents = {s[0]: s[3] for s in tracer.spans}
    assert parents["shrinkage.limiting_pred_risk"] == -1
    assert parents["shrinkage.validate_rule"] >= 0
