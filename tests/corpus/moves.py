"""Largest move of every printed field between two runs of the corpus.

    python tests/corpus/moves.py OLD_DIR NEW_DIR

OLD_DIR and NEW_DIR hold `<command>__<label>.out` files, as
`make_corpus.py --out-dir` writes them; either may be the recorded
corpus itself. For each (command, field) that moved in some case, prints
the largest relative move |new - old| / max(|old|, |new|), the case where
it occurs and the old and new values there. The last line counts the
outputs that differ at all.

A JSON output's field is its key path, list indices dropped
(`risks.pred`, `sd_params.lambdas`). A CSV output's field is its column
name; a `# name,...` comment line's is its first token. Fields that both
runs print are compared value by value; a field that only one prints is
reported on its own line as `added` or `removed`, with the first case
and the count of the others. A field whose number of values changed is
reported as `structure`, and a string that changed as a move of inf.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys


def _flat_json(value, path: str, out: list):
    if isinstance(value, dict):
        for key, item in value.items():
            _flat_json(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for item in value:
            _flat_json(item, path, out)
    else:
        out.append((path, value))


def _flat_csv(text: str) -> list:
    out, header = [], None
    for line in text.splitlines():
        tokens = line.split(",")
        if line.startswith("#"):
            if not line.startswith("# config="):
                out.extend((tokens[0][2:], t) for t in tokens[1:])
        elif header is None:
            header = tokens
            out.extend(("header", t) for t in tokens)
        else:
            out.extend(zip(header, tokens))
            if len(tokens) != len(header):
                out.append(("structure", line))
    return out


def fields(text: str) -> list:
    """(field, value) pairs of one output, in print order."""
    if text.startswith("{"):
        out = []
        _flat_json(json.loads(text), "", out)
        return [(f, v) for f, v in out if f != "config"]
    return _flat_csv(text)


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _by_field(pairs: list) -> dict:
    out = {}
    for field, value in pairs:
        out.setdefault(field, []).append(value)
    return out


def largest_moves(old_dir, new_dir) -> tuple[dict, dict, list, int]:
    """({(command, field): (move, case, old, new)}, {(command, field, 'added'
    or 'removed'): [cases]}, differing cases, cases)."""
    old_dir, new_dir = pathlib.Path(old_dir), pathlib.Path(new_dir)
    names = sorted(p.stem for p in old_dir.glob("*.out"))
    worst, lone, differ = {}, {}, []
    for name in names:
        old, new = (d.joinpath(f"{name}.out").read_text() for d in (old_dir, new_dir))
        if old == new:
            continue
        differ.append(name)
        command = name.split("__")[0]
        before, after = _by_field(fields(old)), _by_field(fields(new))
        for field in sorted(before.keys() ^ after.keys()):
            kind = "removed" if field in before else "added"
            lone.setdefault((command, field, kind), []).append(name)
        pairs = []
        for field in before.keys() & after.keys():
            vo, vn = before[field], after[field]
            if len(vo) != len(vn):
                vo, vn = [old], [new]
                field = "structure"
            pairs.extend((field, o, n) for o, n in zip(vo, vn))
        for field, vo, vn in pairs:
            if vo == vn:
                continue
            no, nn = _number(vo), _number(vn)
            if no is None or nn is None or math.isnan(no) or math.isnan(nn):
                move = math.inf
            else:
                move = abs(nn - no) / max(abs(no), abs(nn))
            if move > worst.get((command, field), (-1.0,))[0]:
                worst[command, field] = (move, name, vo, vn)
    return worst, lone, differ, len(names)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    worst, lone, differ, total = largest_moves(*argv)
    lines = {key: f"{' '.join(key)} {names[0]}"
             + (f" and {len(names) - 1} more" if len(names) > 1 else "")
             for key, names in lone.items()}
    for (command, field), (move, name, vo, vn) in worst.items():
        lines[command, field, ""] = (
            f"{command} structure {name}" if field == "structure"
            else f"{command} {field} {move:.2e} {name} {vo} -> {vn}")
    for key in sorted(lines):
        print(lines[key])
    print(f"{len(differ)} of {total} outputs differ")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
