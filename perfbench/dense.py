"""Seeded generator for the `dense` workload: crowded four-arm layouts.

Why this layout: the shipped scenarios have at most 8 vehicles and one
vehicle per lane, so leader detection, `pair_conflicts` and the emergency
brake never do real work there.  Here every arm carries a queue of 2, 3 or
4 vehicles (8, 12 and 16 in total), in-lane followers start 24 m apart,
and the horizon is fixed so every step of every layout is simulated even
when traffic locks up.

Each layout is one base draw, the same for every seed: each vehicle's
maneuver (and lane for straight movers), style `kappa` and start speed,
stratified so the mix of each is even.  The seed then jitters every
`kappa` by up to KAPPA_JITTER and every start speed by up to
SPEED_JITTER, so every input number changes with the seed while who
yields to whom does not.  Redrawing the whole layout per seed moved a
layout's median step cost by up to 30% between seeds, and even a jitter
of 0.05 in `kappa` and 0.1 m/s flipped yielding decisions often enough
to move a pass's time by 13% and its 95th-percentile step by 29%; a
benchmark that noisy cannot bound a regression.

Run `python3 perfbench/dense.py --seed 1 --out DIR` to write the three
`.cfg` files; they go through `intersection_game.scenario.load_scenario`
like any shipped scenario.
"""

from __future__ import annotations

import argparse
import math
import random
from pathlib import Path

PER_ARM = (2, 3, 4)
HORIZON_S = 3.5
QUEUE_GAP_M = 24.0  # in-lane spacing between consecutive starts
FRONT_GAP_M = 8.0  # distance of each lane's first vehicle from the zone edge
APPROACH_M = 90.0  # long enough for a 4-deep queue in one lane
KAPPA_JITTER = 0.005
SPEED_JITTER = 0.01  # m/s
_CZ_HALF = 10.0
_LANE_OFFSET = {"inner": 2.0, "outer": 6.0}


def _start_xy(arm: int, lane: str, dist: float) -> tuple[float, float]:
    psi = 0.5 * math.pi * arm
    ux, uy = math.cos(psi), math.sin(psi)
    nx, ny = math.sin(psi), -math.cos(psi)  # right of the travel direction
    off = _LANE_OFFSET[lane]
    back = _CZ_HALF + dist
    return -back * ux + off * nx, -back * uy + off * ny


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def layout(per_arm: int, seed: int) -> str:
    """Scenario text for `per_arm` vehicles on each of the four arms."""
    base = random.Random(f"dense-0-{per_arm}")
    n = 4 * per_arm
    # stratified base draw: a third of the vehicles take each maneuver,
    # half the straight movers each lane, one style and one speed per
    # equal slice of its range
    maneuvers = [("left", "straight", "right")[k % 3] for k in range(n)]
    base.shuffle(maneuvers)
    straight_lanes = [("inner", "outer")[k % 2] for k in range(n)]
    base.shuffle(straight_lanes)
    rng = random.Random(f"dense-{seed}-{per_arm}")
    kappas = [k + rng.uniform(-KAPPA_JITTER, KAPPA_JITTER) for k in _strata(base, n, -0.8, 0.8)]
    speeds = [v + rng.uniform(-SPEED_JITTER, SPEED_JITTER) for v in _strata(base, n, 3.5, 5.5)]
    lines = [
        "[scenario]",
        "version = 1",
        f"name = dense_n{n}",
        f"t_end = {HORIZON_S:g}",
        "dt = 0.1",
        "mode = fuzzy",
        "",
        "[network]",
        f"approach_length = {APPROACH_M:g}",
        "",
        "[field]",
        "horizon = 4",
        "omega0 = 60",
    ]
    for arm in range(4):
        queued = {"inner": 0, "outer": 0}
        for q in range(per_arm):
            i = arm * per_arm + q
            maneuver = maneuvers[i]
            if maneuver == "left":
                lane = "inner"
            elif maneuver == "right":
                lane = "outer"
            else:
                lane = straight_lanes[i]
            x, y = _start_xy(arm, lane, FRONT_GAP_M + QUEUE_GAP_M * queued[lane])
            queued[lane] += 1
            lines += [
                "",
                f"[vehicle.A{arm + 1}Q{q + 1}]",
                f"road = M{arm + 1}",
                f"maneuver = {maneuver}",
                f"lane = {lane}",
                f"x = {x + 0.0:.6g}",
                f"y = {y + 0.0:.6g}",
                f"v = {speeds[i]:.4f}",
                f"kappa = {kappas[i]:.4f}",
            ]
    return "\n".join(lines) + "\n"


def write_layouts(seed: int, out_dir: Path) -> list[Path]:
    """Write one `.cfg` per entry of PER_ARM into out_dir; return the paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in PER_ARM:
        path = out_dir / f"dense_n{4 * k}.cfg"
        path.write_text(layout(k, seed), encoding="utf-8")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    for path in write_layouts(args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
