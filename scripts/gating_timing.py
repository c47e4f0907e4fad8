"""Measure what the risk gate buys: mean per-step solve time with the
lateral risk terms gated by field overlap versus always evaluated.

The gate changes behaviour as well as cost: ungated, every crossing
point is priced, so vehicles drive different trajectories (case1_A runs
122 steps ungated against 86 gated, case3 160 against 105).  The ratio
therefore compares solve times over different runs; the deterministic
work per step (the evals column of steps.csv), printed next to the
times, is the steadier measure.
"""

import argparse
import math
from pathlib import Path

from intersection_game.runner import run, timing
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]


def measure(sc, gating, repeats):
    """(best mean solve time, mean evals per step) over `repeats` runs."""
    best = math.inf
    for _ in range(repeats):
        res = run(sc, risk_gating=gating)
        best = min(best, timing(res)["mean_solve_time"])
    return best, sum(s.evals for s in res.steps) / len(res.steps)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repetitions per variant; best is kept")
    ap.add_argument("--scenarios", nargs="+", default=["case1_A", "case3"])
    args = ap.parse_args(argv)

    print(
        f"{'scenario':<10} {'gated (ms)':>11} {'ungated (ms)':>13} {'ratio':>7} "
        f"{'gated evals/step':>17} {'ungated evals/step':>19}"
    )
    for name in args.scenarios:
        sc = load_scenario(ROOT / "scenarios" / f"{name}.cfg")
        gated, gated_evals = measure(sc, True, args.repeats)
        ungated, ungated_evals = measure(sc, False, args.repeats)
        print(
            f"{name:<10} {1e3 * gated:>11.2f} {1e3 * ungated:>13.2f} "
            f"{gated / ungated:>7.3f} {gated_evals:>17.1f} {ungated_evals:>19.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
