"""Command line front end: run one scenario, compare solver modes, or
validate a config without running it."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .runner import MODES, emit, metrics, pair_conflicts, run, timing
from .scenario import ScenarioError, load_scenario

MODE_LABELS = {
    "noncoop": "noncooperative baseline",
    "fuzzy": "fuzzy coalition",
    "grand": "grand coalition",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intersection-game",
        description="Game-theoretic negotiation of an unsignalized intersection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write trace/metrics files")
    p_run.add_argument("scenario", help="scenario config file")
    p_run.add_argument("--mode", choices=MODES, default="fuzzy", help="solver mode (default fuzzy)")
    p_run.add_argument("--out", default=None, help="output directory (default runs/<name>_<mode>)")
    p_run.add_argument(
        "--no-risk-gating",
        action="store_true",
        help="evaluate every interaction term regardless of field level",
    )
    p_run.add_argument(
        "--field-raster",
        action="store_true",
        help="also write a sampled grid of the initial risk fields",
    )

    p_cmp = sub.add_parser("compare", help="run several modes and print a side-by-side report")
    p_cmp.add_argument("scenario", help="scenario config file")
    p_cmp.add_argument(
        "--modes",
        default="noncoop,fuzzy,grand",
        help="comma-separated mode list (default noncoop,fuzzy,grand)",
    )
    p_cmp.add_argument("--out", default=None, help="also write each mode's full output under this directory")

    p_val = sub.add_parser("validate", help="check a scenario config and print its topology")
    p_val.add_argument("scenario", help="scenario config file")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    gating = not args.no_risk_gating
    result = run(scenario, mode=args.mode, risk_gating=gating)
    out = args.out
    if out is None:
        suffix = "" if gating else "_ungated"
        out = Path("runs") / f"{scenario.name}_{result.mode}{suffix}"
    files = emit(result, out, field_raster=args.field_raster)
    rep = metrics(result)
    tim = timing(result)
    print(f"{scenario.name} [{MODE_LABELS[result.mode]}] "
          f"{rep['n_steps']} steps, {rep['duration']:.1f} s simulated")
    print(f"  system velocity RMS {rep['system_velocity_rms']:.3f} m/s, "
          f"max constraint residual {rep['max_constraint_residual']:.2e}")
    print(f"  resets {rep['rationality']['resets']}, "
          f"emergencies {rep['rationality']['emergencies']}, "
          f"mean solve {tim['mean_solve_time'] * 1e3:.1f} ms")
    for f in files:
        print(f"  wrote {f}")
    return 0


def _cmd_compare(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        print(f"no mode given; choose from {', '.join(MODES)}", file=sys.stderr)
        return 2
    for k, m in enumerate(modes):
        if m not in MODES:
            print(f"unknown mode {m!r}; choose from {', '.join(MODES)}", file=sys.stderr)
            return 2
        if m in modes[:k]:
            print(f"mode {m!r} given twice", file=sys.stderr)
            return 2
    scenario = load_scenario(args.scenario)
    reports = {}
    for m in modes:
        result = run(scenario, mode=m)
        reports[m] = (metrics(result), timing(result))
        if args.out:
            emit(result, Path(args.out) / m)

    label_w = 28
    col_w = max(len(MODE_LABELS[m]) for m in modes) + 2
    print(f"{scenario.name}: {len(scenario.vehicles)} vehicles, modes " + ", ".join(modes))
    header = " " * label_w + "".join(MODE_LABELS[m].rjust(col_w) for m in modes)
    print(header)

    def row(label, values, fmt="{:.3f}"):
        cells = "".join((fmt.format(v) if v is not None else "-").rjust(col_w) for v in values)
        print(label.ljust(label_w) + cells)

    row("system velocity RMS (m/s)", [reports[m][0]["system_velocity_rms"] for m in modes])
    for name in reports[modes[0]][0]["vehicles"]:
        row(f"  {name} velocity RMS", [reports[m][0]["vehicles"][name]["v_rms"] for m in modes])
    pair_names = sorted(reports[modes[0]][0]["pairs"])
    if pair_names:
        for label, key in (("min pair distance (m)", "min_distance"), ("min pair TTC (s)", "min_ttc")):
            lows = []
            for m in modes:
                known = [reports[m][0]["pairs"][p][key] for p in pair_names]
                known = [x for x in known if x is not None]
                lows.append(min(known) if known else None)
            row(label, lows)
    row("max constraint residual", [reports[m][0]["max_constraint_residual"] for m in modes], "{:.2e}")
    row("emergencies", [reports[m][0]["rationality"]["emergencies"] for m in modes], "{:d}")
    row("mean solve time (ms)", [reports[m][1]["mean_solve_time"] * 1e3 for m in modes], "{:.2f}")
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    conflicts = pair_conflicts(scenario)
    print(f"{scenario.name}: OK")
    print(f"  t_end {scenario.t_end} s")
    for spec, route in zip(scenario.vehicles, scenario.routes):
        s0 = route.project(spec.x, spec.y)[0]
        print(
            f"  {spec.name}: {route.name} from ({spec.x}, {spec.y}) "
            f"s0={s0:.2f} v={spec.v} kappa={spec.kappa}"
        )
    names = [v.name for v in scenario.vehicles]
    total = 0
    for (i, j), cps in sorted(conflicts.items()):
        kinds = ", ".join(f"{c.kind}@({c.x:.2f},{c.y:.2f})" for c in cps)
        print(f"  {names[i]}-{names[j]}: {kinds}")
        total += len(cps)
    print(f"  {len(conflicts)} conflicting pairs, {total} conflict points")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_validate(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
