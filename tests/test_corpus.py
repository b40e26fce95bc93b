"""CLI outputs on a fixed config corpus stay as they were recorded.

Every case in tests/corpus is run through the CLI and compared with its
recorded output token by token: strings and integers below 2^53
exactly, floats to 1e-13 relative, so the check holds across BLAS builds
that round dot products differently. Larger integers are integral floats
printed without a decimal point and compare as floats. The round-off
measures `round_trip_sup_error` and `fixed_point_residual` are compared
to 1e-13 absolute, since their relative value is itself round-off.
`tests/corpus/make_corpus.py` regenerates the corpus.
"""

import json
import math
import pathlib

import pytest

from spectral_distill.cli import main

CORPUS = pathlib.Path(__file__).parent / "corpus"
CASES = sorted(p.stem for p in CORPUS.glob("*.json"))
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
    bad = []
    if want.startswith("{"):
        _compare_json(json.loads(want), json.loads(got), "$", bad)
    else:
        _compare_csv(want, got, bad)
    assert not bad, "\n".join(bad[:20])


def test_corpus_is_complete():
    assert len(CASES) >= 70
    for name in CASES:
        assert (CORPUS / f"{name}.out").exists(), name
