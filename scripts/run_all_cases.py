"""Run every shipped scenario in the fuzzy mode, or in `--mode`, and emit full traces.

Writes one output directory per scenario under runs/ and prints a one-line
summary per run so regressions in the headline numbers are easy to spot.
"""

import argparse
import sys
from pathlib import Path

from intersection_game.runner import MODES, emit, metrics, run
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario-dir", type=Path, default=ROOT / "scenarios")
    ap.add_argument("--out", type=Path, default=ROOT / "runs")
    ap.add_argument("--mode", choices=MODES, default="fuzzy", help="solver mode (default fuzzy)")
    args = ap.parse_args(argv)

    files = sorted(args.scenario_dir.glob("*.cfg"))
    if not files:
        print(f"no scenario files in {args.scenario_dir}", file=sys.stderr)
        return 1
    for path in files:
        sc = load_scenario(path)
        res = run(sc, mode=args.mode)
        m = metrics(res)
        out = args.out / f"{sc.name}_{m['mode']}"
        emit(res, out)
        ttcs = [p["min_ttc"] for p in m["pairs"].values() if p["min_ttc"] is not None]
        ttc_txt = f"{min(ttcs):6.2f} s" if ttcs else "   n/a  "
        print(
            f"{sc.name:<10} {m['mode']:<8} {m['n_steps']:>4} steps  "
            f"sys rms {m['system_velocity_rms']:6.3f} m/s  min ttc {ttc_txt}  "
            f"max residual {m['max_constraint_residual']:.2e}  -> {out}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
