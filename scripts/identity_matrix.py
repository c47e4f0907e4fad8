"""Write the byte-identity matrix: the runs a refactor must leave unchanged.

The matrix is 33 run directories:

- every shipped scenario in each mode (fuzzy, noncoop, grand), the fuzzy
  runs with `field_raster.csv`, so the risk field's values are checked too;
- case1_A and case3 with risk gating off;
- the three `perfbench/dense.py` layouts of seeds 1 and 3, the only inputs
  with in-lane queues, resets and emergency fallbacks;
- the 12-vehicle layout of seed 1 under grand, whose infeasible players
  are reset out of the coalition.

`tests/test_golden.py` runs the same `jobs()` and checks each directory's
`digest` against its `SHA256` table.  This script writes the directories
under `--out` and prints each digest as its line of that table, in job
order; after an intended behaviour change, its output pasted between the
table's braces is the new table:

    PYTHONPATH=src python3 scripts/identity_matrix.py --out /tmp/matrix

`--out` must be a new or empty directory: `digest` hashes every file of
a run directory but timing.json, so a file left there by an earlier run
would change the printed digests.  Any other `--out` is refused with
exit code 2 before any run.

The dense layouts are generated by this checkout's `perfbench/dense.py`.
This module is the one place that names the tools' inputs: `shipped()`
(the shipped scenario texts) and `layouts(seed)` (the dense layouts of a
seed), read by `jobs()`, `scripts/br_gap.py` and the tests, and
`dense_module()` is the one loader of `perfbench/dense.py` among them.
"""

import argparse
import functools
import hashlib
import importlib.util
import tempfile
from pathlib import Path

from intersection_game.runner import MODES, emit, run
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
UNTIMED = "timing.json"  # wall times: the one emitted file left out
UNGATED = ("case1_A", "case3")
DENSE_SEEDS = (1, 3)
DENSE_GRAND = "dense_n12_seed1"


@functools.cache
def dense_module():
    """`perfbench/dense.py`, which is no package, loaded once from its file."""
    spec = importlib.util.spec_from_file_location("dense", ROOT / "perfbench" / "dense.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shipped() -> list[tuple[str, str]]:
    """(stem, text) of each shipped scenario, in name order."""
    return [(path.stem, path.read_text(encoding="utf-8")) for path in sorted((ROOT / "scenarios").glob("*.cfg"))]


def layouts(seed: int) -> list[tuple[str, str]]:
    """(dense_n<vehicles>_seed<seed>, text) of each `perfbench/dense.py`
    layout of `seed`, smallest first."""
    dense = dense_module()
    return [(f"dense_n{4 * per_arm}_seed{seed}", dense.layout(per_arm, seed)) for per_arm in dense.PER_ARM]


def jobs():
    """The matrix: (directory name, scenario text, run keywords, write the
    field raster) per run directory."""
    texts = dict(shipped())
    out = [(f"{stem}_{mode}", text, {"mode": mode}, mode == "fuzzy") for stem, text in texts.items() for mode in MODES]
    out += [(f"{name}_ungated", texts[name], {"risk_gating": False}, False) for name in UNGATED]
    for seed in DENSE_SEEDS:
        for name, text in layouts(seed):
            out.append((name, text, {}, False))
            if name == DENSE_GRAND:
                out.append((f"{name}_grand", text, {"mode": "grand"}, False))
    return out


def digest(out: Path) -> str:
    """sha256 over (name, bytes) of each emitted file but timing.json, in
    name order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != UNTIMED:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="directory to write the run directories into")
    args = ap.parse_args(argv)
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        # a file an earlier run left behind would enter a digest
        ap.error(f"--out {args.out} is not a new or empty directory")

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.cfg"
        for name, text, kwargs, raster in jobs():
            cfg.write_text(text, encoding="utf-8")
            out = args.out / name
            emit(run(load_scenario(cfg), **kwargs), out, field_raster=raster)
            print(f'    "{name}": "{digest(out)}",')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
