"""CLI outputs on a fixed config corpus stay as they were recorded.

Every case in tests/corpus is run through the CLI and compared with its
recorded output. A closed-form output (`optimal`, `sd-params`,
`federated`, `risk`, `measure`, and a `sweep` without a `sim` block)
must match byte for byte: that path calls no BLAS or LAPACK routine, so
its bits do not depend on the kernel OpenBLAS picks for the CPU, and a
fresh process under other kernels must print the same bytes. A Monte
Carlo output (`simulate`, and a `sweep` with a `sim` block) forms its
Gram matrix in BLAS and its eigenvectors in LAPACK, so it is compared
token by token: strings and integers below 2^53 exactly,
floats to 1e-13 relative. Larger integers are integral floats printed
without a decimal point and compare as floats. The round-off measures
`round_trip_sup_error` and `fixed_point_residual` are compared to 1e-13
absolute, since their relative value is itself round-off.
`tests/corpus/make_corpus.py` regenerates the corpus.

The model has two exact scale symmetries. Multiplying sigma0^2 and every
delta by k and dividing r and every alpha by sqrt(k) scales the
eigenvalues by k: pred stays, est scales by 1/k, the lambdas by k, the
xis stay. Multiplying r and every alpha by t and sigma_eps^2 by t^2
scales both risks by t^2. With k and t powers of two every input is
exact, so every `optimal`, `sd-params` and `federated` corpus case must
give the same exit code, exactly rescaled risks and chain parameters and
the same `coprime` flag, at k = 2^+-4, 2^+-20, 2^+-60 and 2^+-120 and at
t = 2^+-40, and so must `optimal` on small random models at k = 2^e for
even e in [-120, 120].
"""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_distill
from spectral_distill.cli import main

CORPUS = pathlib.Path(__file__).parent / "corpus"
CASES = sorted(p.stem for p in CORPUS.glob("*.json"))


def _is_monte_carlo(name: str) -> bool:
    command = name.split("__")[0]
    config = json.loads((CORPUS / f"{name}.json").read_text())
    return command == "simulate" or (command == "sweep" and "sim" in config["sweep"])


CLOSED_FORM_CASES = [name for name in CASES if not _is_monte_carlo(name)]
RTOL = 1e-13
ROUND_OFF_KEYS = {"round_trip_sup_error", "fixed_point_residual"}


def _parse(token: str):
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def _same(want, got, absolute: bool = False) -> bool:
    if isinstance(want, str) or isinstance(got, str) or isinstance(want, bool):
        return want == got
    if isinstance(want, int) and isinstance(got, int) and max(
            abs(want), abs(got)) < 2**53:
        return want == got
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if absolute:
        return abs(want - got) <= RTOL
    return abs(want - got) <= RTOL * max(abs(want), abs(got))


def _compare_json(want, got, where, bad):
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(want) != list(got):
            bad.append(f"{where}: keys {list(got)} != {list(want)}")
            return
        for key in want:
            if key in ROUND_OFF_KEYS:
                if not _same(want[key], got[key], absolute=True):
                    bad.append(f"{where}.{key}: {got[key]!r} != {want[key]!r}")
            else:
                _compare_json(want[key], got[key], f"{where}.{key}", bad)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            bad.append(f"{where}: {got!r} != {want!r}")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _compare_json(w, g, f"{where}[{i}]", bad)
    elif not _same(want, got):
        bad.append(f"{where}: {got!r} != {want!r}")


def _compare_csv(want: str, got: str, bad):
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        bad.append(f"{len(got_lines)} lines != {len(want_lines)}")
        return
    for n, (wl, gl) in enumerate(zip(want_lines, got_lines)):
        wt, gt = wl.split(","), gl.split(",")
        if len(wt) != len(gt):
            bad.append(f"line {n}: {gl!r} != {wl!r}")
            continue
        for w, g in zip(wt, gt):
            if not _same(_parse(w), _parse(g)):
                bad.append(f"line {n}: {g!r} != {w!r}")


@pytest.mark.parametrize("name", CASES)
def test_corpus_output(tmp_path, name):
    command = name.split("__")[0]
    out = tmp_path / "out"
    assert main([command, "--config", str(CORPUS / f"{name}.json"),
                 "--out", str(out)]) == 0
    want = (CORPUS / f"{name}.out").read_text()
    got = out.read_text()
    if name in CLOSED_FORM_CASES:
        assert got == want
        return
    bad = []
    if want.startswith("{"):
        _compare_json(json.loads(want), json.loads(got), "$", bad)
    else:
        _compare_csv(want, got, bad)
    assert not bad, "\n".join(bad[:20])


@pytest.mark.parametrize("name", [name for name in CASES if name.split("__")[0]
                                  in ("optimal", "sd-params", "federated", "risk")])
def test_warm_caches_change_no_byte(tmp_path, name):
    # the second run reads the grids, rule checks and cached integrals of
    # the first one
    command = name.split("__")[0]
    outs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert main([command, "--config", str(CORPUS / f"{name}.json"),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# Run in a fresh interpreter: CORPUS OUT_DIR NAME... writes each case's
# CLI output to OUT_DIR/NAME.out.
_RUN_CASES = """
import sys
from spectral_distill.cli import main
corpus, out_dir, *names = sys.argv[1:]
for name in names:
    command = name.split("__")[0]
    code = main([command, "--config", f"{corpus}/{name}.json",
                 "--out", f"{out_dir}/{name}.out"])
    assert code == 0, (name, code)
"""


def _openblas_with_dynamic_arch() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def test_closed_form_outputs_are_the_same_bits_on_every_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel of one process, so each kernel
    # gets its own interpreter; OPENBLAS_VERBOSE makes it name the kernel
    if not _openblas_with_dynamic_arch():
        pytest.skip("numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, "
                    "so OPENBLAS_CORETYPE cannot pick its kernel")
    src = os.path.dirname(os.path.dirname(spectral_distill.__file__))
    runs = {}
    for kernel in ("default", "Haswell", "Prescott"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_VERBOSE="2")
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel != "default":
            env["OPENBLAS_CORETYPE"] = kernel
        (tmp_path / kernel).mkdir()
        runs[kernel] = subprocess.Popen(
            [sys.executable, "-c", _RUN_CASES, str(CORPUS), str(tmp_path / kernel),
             *CLOSED_FORM_CASES], env=env, stderr=subprocess.PIPE, text=True)
    cores = {}
    for kernel, run in runs.items():
        err = run.communicate(timeout=600)[1]
        assert run.returncode == 0, err
        cores[kernel] = [line for line in err.splitlines() if line.startswith("Core:")]
    # the two forced kernels really ran, and differ
    assert len(cores["Haswell"]) == len(cores["Prescott"]) == 1
    assert cores["Haswell"] != cores["Prescott"]
    bad = [f"{kernel}: {name}" for kernel in ("Haswell", "Prescott")
           for name in CLOSED_FORM_CASES
           if (tmp_path / kernel / f"{name}.out").read_bytes()
           != (tmp_path / "default" / f"{name}.out").read_bytes()]
    assert not bad, "\n".join(bad)


def test_corpus_is_complete():
    assert len(CASES) >= 70
    for name in CASES:
        assert (CORPUS / f"{name}.out").exists(), name
    # a sweep without a sim block has no Monte Carlo part
    assert "sweep__fig3" in CLOSED_FORM_CASES
    assert "sweep__iso-sim" not in CLOSED_FORM_CASES


def test_moves_reports_the_largest_move_of_each_field(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("moves", CORPUS / "moves.py")
    moves = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(moves)
    old, new = tmp_path / "old", tmp_path / "new"
    outputs = {
        "optimal__a": ('{"b": [1.0, 2.0], "risks": {"pred": 3.0}, "config": "x"}',
                       '{"b": [1.0, 2.5], "risks": {"pred": 3.0}, "config": "y"}'),
        "optimal__b": ('{"b": [4.0, 1.0], "risks": {"pred": 3.0}, "config": "x"}',
                       '{"b": [4.4, 1.0], "risks": {"pred": 3.0}, "config": "x"}'),
        "risk__a": ("# config=x\nrule,pred\nridge,2.0\n",
                    "# config=y\nrule,pred\nridge,2.0000000000000004\n"),
        "risk__b": ("# config=x\nrule,pred\nridge,1.0\n",) * 2,
    }
    for directory, side in ((old, 0), (new, 1)):
        directory.mkdir()
        for name, texts in outputs.items():
            (directory / f"{name}.out").write_text(texts[side])
    assert moves.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "optimal b 2.00e-01 optimal__a 2.0 -> 2.5",
        "risk pred 2.22e-16 risk__a 2.0 -> 2.0000000000000004",
        "3 of 4 outputs differ",
    ]


SCALED_CASES = [name for name in CASES
                if name.split("__")[0] in ("optimal", "sd-params", "federated")]
# (k, t): covariance scales 2^+-4, 2^+-20, 2^+-60 and 2^+-120, signal
# scales 2^+-40
SCALES = ([(2.0**e, 1.0) for e in (-120, -60, -20, -4, 4, 20, 60, 120)]
          + [(1.0, 2.0**e) for e in (-40, 40)])


def _scaled(model: dict, k: float, t: float) -> dict:
    """The model with covariance scale k and signal scale t applied."""
    root = math.sqrt(k)
    spikes = [{"delta": sp["delta"] * k, "alpha": sp["alpha"] * t / root}
              for sp in model["spikes"]]
    return {**model, "sigma0_sq": model["sigma0_sq"] * k,
            "r": model["r"] * t / root,
            "sigma_eps_sq": model["sigma_eps_sq"] * t * t, "spikes": spikes}


def _rescaled(payload: dict, k: float, t: float):
    """(risks, lambdas, xis, coprime) of a payload as the scaled model must
    print them."""
    params = payload.get("sd_params", payload)
    risks = {key: value * t * t / (k if key == "est" else 1.0)
             for key, value in payload.get("risks", {}).items()}
    return (risks, [lam * k for lam in params["lambdas"]], params["xis"],
            payload.get("coprime"))


@pytest.mark.parametrize("name", SCALED_CASES)
def test_scaled_model_gives_exactly_scaled_outputs(tmp_path, name):
    command = name.split("__")[0]
    config = json.loads((CORPUS / f"{name}.json").read_text())
    path, out = tmp_path / "cfg.json", tmp_path / "out.json"
    payloads = {}
    for k, t in [(1.0, 1.0), *SCALES]:
        path.write_text(json.dumps({**config,
                                    "model": _scaled(config["model"], k, t)}))
        assert main([command, "--config", str(path), "--out", str(out)]) == 0, (k, t)
        payloads[k, t] = json.loads(out.read_text())
    want = payloads.pop((1.0, 1.0))
    for (k, t), got in payloads.items():
        assert _rescaled(got, 1.0, 1.0) == _rescaled(want, k, t), (k, t)


@st.composite
def _small_models(draw):
    """A model block with s <= 4 spikes, its deltas and alphas drawn
    relative to sigma0^2 and r; it may sit on an excluded degeneracy."""
    sigma0_sq, r = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 4.0))
    spikes = [{"delta": sigma0_sq * draw(st.floats(0.1, 20.0)),
               "alpha": r * draw(st.floats(0.05, 0.45)) * draw(st.sampled_from([-1, 1]))}
              for _ in range(draw(st.integers(0, 4)))]
    return {"sigma0_sq": sigma0_sq, "c": draw(st.floats(0.2, 5.0)), "r": r,
            "sigma_eps_sq": draw(st.floats(0.1, 4.0)), "spikes": spikes}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(model=_small_models(), half_e=st.integers(-60, 60))
def test_random_model_under_covariance_scale_2_to_e_gives_scaled_optimum(model, half_e):
    # k = 2^e, e even in [-120, 120], so that sqrt(k) and every scaled
    # input are exact
    k = 2.0 ** (2 * half_e)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out = pathlib.Path(tmp, "cfg.json"), pathlib.Path(tmp, "out.json")
        for scale in (1.0, k):
            path.write_text(json.dumps({"model": _scaled(model, scale, 1.0), "optimal": {}}))
            code = main(["optimal", "--config", str(path), "--out", str(out)])
            runs.append((code, json.loads(out.read_text()) if code == 0 else None))
            out.unlink(missing_ok=True)
    (code, want), (scaled_code, got) = runs
    assert scaled_code == code
    if code == 0:
        assert _rescaled(got, 1.0, 1.0) == _rescaled(want, k, 1.0)
