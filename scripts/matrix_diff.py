"""Compare two identity-matrix trees: one line per run, old -> new.

    PYTHONPATH=src python3 scripts/matrix_diff.py OLD NEW

OLD and NEW are `--out` directories of `scripts/identity_matrix.py`, say
of a parent checkout and of a change to it.  For each run directory the
line shows, old -> new:

- the step count and the system velocity RMS;
- the least `min_distance` and the least `min_ttc` over the pairs;
- the largest constraint residual and the emergency count;
- the fallback rows, the reset rows and the summed `evals`;

then the emitted files but timing.json that differ in bytes (a file in
only one tree differs); and then, over the `trace.csv` rows matched by
step and vehicle name, the largest |dx| + |dy| and |dv| and the first row
that differs, with its differing columns in brackets (a row in only one
tree differs).  A run directory in only one tree gets a line saying so.
The last line counts the runs that differ in any emitted file but
timing.json.
"""

import argparse
import csv
import json
from pathlib import Path

import identity_matrix as matrix
from intersection_game.dynamics import DT


def _least(values) -> float | None:
    """The least of the values that are not None (a pair that never
    closes has no `min_ttc`), or None."""
    return min((v for v in values if v is not None), default=None)


def _summary(run: Path) -> dict:
    """The figures of one run directory that the line reports."""
    metrics = json.loads((run / "metrics.json").read_text(encoding="utf-8"))
    pairs = metrics["pairs"].values()
    with (run / "trace.csv").open(encoding="utf-8", newline="") as fh:
        trace = list(csv.DictReader(fh))
    with (run / "steps.csv").open(encoding="utf-8", newline="") as fh:
        steps = list(csv.DictReader(fh))
    return {
        "steps": metrics["n_steps"],
        "v_rms": metrics["system_velocity_rms"],
        "min_distance": _least(p["min_distance"] for p in pairs),
        "min_ttc": _least(p["min_ttc"] for p in pairs),
        "residual": metrics["max_constraint_residual"],
        "emergencies": metrics["rationality"]["emergencies"],
        "fallback": sum(r["fallback"] == "1" for r in trace),
        "resets": sum(r["reset"] == "1" for r in trace),
        "evals": sum(int(r["evals"]) for r in steps),
        "rows": {(round(float(r["time"]) / DT), r["vehicle"]): r for r in trace},
    }


def _files_diff(old: Path, new: Path) -> list[str]:
    """The names, in order, of the files but timing.json that differ in
    bytes between two run directories or are in only one of them."""
    names = {p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}
    return [
        name for name in sorted(names - {matrix.UNTIMED})
        if not ((old / name).is_file() and (new / name).is_file())
        or (old / name).read_bytes() != (new / name).read_bytes()
    ]


def _rows_diff(old: dict, new: dict) -> tuple[float, float, str]:
    """(largest |dx| + |dy|, largest |dv|, first differing row) over the
    trace rows of two runs, matched by (step, vehicle); a row in both
    trees is named with its differing columns."""
    dxy = dv = 0.0
    first = None
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is not None and b is not None:
            dxy = max(dxy, abs(float(a["x"]) - float(b["x"])) + abs(float(a["y"]) - float(b["y"])))
            dv = max(dv, abs(float(a["v"]) - float(b["v"])))
        if first is None and a != b:
            if a is None or b is None:
                side = " (old only)" if b is None else " (new only)"
            else:
                cols = [*a, *(col for col in b if col not in a)]
                side = " [" + " ".join(col for col in cols if a.get(col) != b.get(col)) + "]"
            first = f"step {key[0]} {key[1]}{side}"
    return dxy, dv, first or "none"


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.9g}" if isinstance(value, float) else str(value)


def compare(old_tree: Path, new_tree: Path) -> list[str]:
    """The report's lines: one per run directory of either tree, in name
    order, then the count of runs that differ."""
    old_runs = {p.name for p in old_tree.iterdir() if p.is_dir()}
    new_runs = {p.name for p in new_tree.iterdir() if p.is_dir()}
    lines, differ = [], 0
    for name in sorted(old_runs | new_runs):
        if name not in new_runs or name not in old_runs:
            differ += 1
            lines.append(f"{name}: only in {'OLD' if name in old_runs else 'NEW'}")
            continue
        old, new = _summary(old_tree / name), _summary(new_tree / name)
        files = _files_diff(old_tree / name, new_tree / name)
        differ += bool(files)
        fields = [
            f"{key} {_fmt(old[key])} -> {_fmt(new[key])}"
            for key in ("steps", "v_rms", "min_distance", "min_ttc", "residual", "emergencies", "fallback", "resets", "evals")
        ]
        dxy, dv, first = _rows_diff(old["rows"], new["rows"])
        fields += [f"files: {', '.join(files) or 'none'}", f"max|dxy| {dxy:.3g}", f"max|dv| {dv:.3g}", f"first diff: {first}"]
        lines.append(f"{name}: " + "; ".join(fields))
    lines.append(f"{differ} of {len(old_runs | new_runs)} runs differ")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="identity-matrix tree before the change")
    ap.add_argument("new", type=Path, help="identity-matrix tree after the change")
    args = ap.parse_args(argv)
    for tree in (args.old, args.new):
        if not tree.is_dir():
            ap.error(f"{tree} is not a directory")
    print("\n".join(compare(args.old, args.new)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
