"""Write the byte-identity matrix: the runs a refactor must leave unchanged.

The matrix is 33 run directories:

- every shipped scenario in each mode (fuzzy, noncoop, grand), the fuzzy
  runs with `field_raster.csv`, so the risk field's values are checked too;
- case1_A and case3 with risk gating off;
- the three `perfbench/dense.py` layouts of seeds 1 and 3, the only inputs
  with in-lane queues, resets and emergency fallbacks;
- the 12-vehicle layout of seed 1 under grand, whose infeasible players
  are reset out of the coalition.

To compare two checkouts, run this script once against each (the package
is imported from PYTHONPATH) and diff the trees, `timing.json` aside:

    PYTHONPATH=src python3 scripts/identity_matrix.py --out /tmp/new
    PYTHONPATH=/path/to/other/src python3 scripts/identity_matrix.py --out /tmp/old
    diff -r -x timing.json /tmp/old /tmp/new

The dense layouts are generated by this checkout's `perfbench/dense.py`.
"""

import argparse
import importlib.util
import tempfile
from pathlib import Path

from intersection_game.runner import emit, run
from intersection_game.scenario import MODES, load_scenario

ROOT = Path(__file__).resolve().parents[1]
UNGATED = ("case1_A", "case3")
DENSE_SEEDS = (1, 3)
DENSE_GRAND = ("dense_n12", 1)


def _dense_module():
    spec = importlib.util.spec_from_file_location("dense", ROOT / "perfbench" / "dense.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="directory to write the run directories into")
    args = ap.parse_args(argv)

    jobs = []  # (output directory name, scenario path, run keywords, write the field raster)
    shipped = sorted((ROOT / "scenarios").glob("*.cfg"))
    for path in shipped:
        for mode in MODES:
            jobs.append((f"{path.stem}_{mode}", path, {"mode": mode}, mode == "fuzzy"))
    for name in UNGATED:
        jobs.append((f"{name}_ungated", ROOT / "scenarios" / f"{name}.cfg", {"risk_gating": False}, False))
    dense = _dense_module()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in DENSE_SEEDS:
            for path in dense.write_layouts(seed, Path(tmp) / f"seed{seed}"):
                jobs.append((f"{path.stem}_seed{seed}", path, {}, False))
                if (path.stem, seed) == DENSE_GRAND:
                    jobs.append((f"{path.stem}_seed{seed}_grand", path, {"mode": "grand"}, False))
        for name, path, kwargs, raster in jobs:
            out = args.out / name
            emit(run(load_scenario(path), **kwargs), out, field_raster=raster)
            print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
