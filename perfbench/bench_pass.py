"""One pass over a benchmark workload, in a process of its own.

Sets up (imports the package and loads, or generates and loads, every
scenario of the workload), then runs and emits each scenario in turn
through the library API that `intersection-game run` uses, and prints one
JSON object describing the pass on its last line of output.  With
`--trace 1` the layers are wrapped by `tracing.Tracer` for the pass and
the object also carries the per-layer numbers.  With `--setup-only` the
pass stops after set-up.  `run.py` starts this script; it is not meant to
be run by hand, though it can be:

    python3 perfbench/bench_pass.py --workload shipped --seed 1 --trace 0 --work .bench_build/x
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

# Only the modules above (math and pathlib the package needs anyway) are imported
# before set-up is timed; the benchmark's other modules are imported where
# they are used, so set-up time covers the package's own imports.
ROOT = Path(__file__).resolve().parent.parent
RESIDUAL_LIMIT = 1e-6
# Reference-speed times are raw seconds times CAL_REF_S over a calibrate()
# reading taken close by.  CAL_REF_S is that kernel's typical time under
# CPython 3.11 on an unloaded 2-vCPU x86-64 virtual machine, so reference
# seconds are roughly that machine's seconds.
CAL_REF_S = 0.0085
PROBE_EVERY_S = 0.25
SKIP_FILES = {"timing.json"}  # the one emitted file that holds wall times


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("shipped", "noncoop", "dense"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def sources(workload: str, seed: int, work: str) -> list:
    """(scenario file, mode override) pairs of the workload, in run order."""
    if workload == "dense":
        import dense

        return [(p, None) for p in dense.write_layouts(seed, Path(work) / "cfg")]
    mode = None if workload == "shipped" else "noncoop"
    return [(p, mode) for p in sorted((ROOT / "scenarios").glob("*.cfg"))]


def setup(workload: str, seed: int, work: str):
    """Import the package and load the workload; return (runner, sources, loaded)."""
    sys.path.insert(0, str(ROOT / "src"))
    from intersection_game import runner, scenario

    srcs = sources(workload, seed, work)
    return runner, srcs, [(scenario.load_scenario(p), mode) for p, mode in srcs]


def digest_dir(out) -> tuple[str, dict[str, bytes]]:
    import hashlib

    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name not in SKIP_FILES}
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), files


def golden_matches(files: dict[str, bytes], golden_dir) -> bool:
    if not golden_dir.is_dir():
        return False
    want = {p.name: p for p in golden_dir.iterdir() if p.name not in SKIP_FILES}
    return set(want) == set(files) and all(want[n].read_bytes() == files[n] for n in files)


def outcome_counters(result) -> dict[str, int]:
    """Deterministic counters read from the run's step and vehicle rows."""
    a_max = result.scenario.limits.a_max
    rows = [r for step_rows in result.rows for r in step_rows]
    horizon = round(result.scenario.t_end / result.scenario.dt)
    uncleared = 0
    if len(result.steps) == horizon and result.rows:
        uncleared = sum(1 for r in result.rows[-1] if r.role != "OV")
    return {
        "steps": len(result.steps),
        "sweeps": sum(s.sweeps for s in result.steps),
        "evals": sum(s.evals for s in result.steps),
        "lateral_evals": sum(s.lateral_evals for s in result.steps),
        "resets": sum(1 for r in rows if r.reset),
        "emergency_rows": sum(1 for r in rows if r.fallback),
        "brake_overridden_rows": sum(1 for r in rows if r.fallback and r.a != -a_max),
        "residual_breach_steps": sum(1 for s in result.steps if s.max_residual > RESIDUAL_LIMIT),
        "uncleared_at_horizon": uncleared,
    }


def calibrate() -> float:
    """Seconds that a fixed pure-Python kernel takes right now."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(50_000):
        x = math.sin(i * 0.001) * 1.5 + (i % 7)
        table[i & 255] = x
        acc += x if x > 0.0 else -x
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration readings taken between solver steps.

    A shared host's neighbours slow the simulator by a third or more, in
    bursts from under a second to minutes, and slow `calibrate()` alike.
    While installed, the probe takes a reading just before a step's solve
    whenever PROBE_EVERY_S has passed since the last one.  Each step's time
    is then rescaled by CAL_REF_S over the mean of the readings on either
    side of it, so reported times are at one reference speed.  The reading
    falls inside the runner's own solve timer; its duration is recorded
    and taken off again.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget the readings; call before each scenario."""
        self.readings: list[tuple[int, float]] = []  # (step index, seconds)
        self.spent: list[float] = []  # per step: probe seconds inside its solve timer
        self._last = -math.inf

    def install(self, runner):
        real = runner.__dict__["solve_step"]

        def probed(*args, **kwargs):
            t0 = time.perf_counter()
            if t0 - self._last >= PROBE_EVERY_S:
                self.readings.append((len(self.spent), calibrate()))
                self._last = time.perf_counter()
                self.spent.append(self._last - t0)
            else:
                self.spent.append(0.0)
            return real(*args, **kwargs)

        runner.solve_step = probed
        return lambda: setattr(runner, "solve_step", real)

    def rescale(self, solve_s: list[float], run_s: float, emit_s: float, end_reading: float) -> dict:
        """Reference-speed times of one scenario from its raw timings."""
        marks = self.readings + [(len(solve_s), end_reading)]
        ref_ms: list[float] = []
        k = 0
        for j, t in enumerate(solve_s):
            while k + 1 < len(marks) - 1 and marks[k + 1][0] <= j:
                k += 1
            speed = 0.5 * (marks[k][1] + marks[k + 1][1])
            ref_ms.append((t - self.spent[j]) * 1e3 * CAL_REF_S / speed)
        mean = sum(r for _, r in marks) / len(marks)
        net_run = run_s - sum(self.spent)
        rest = net_run - (sum(solve_s) - sum(self.spent))
        return {
            "run_s": net_run,
            "run_ref_s": sum(ref_ms) / 1e3 + rest * CAL_REF_S / mean,
            "emit_ref_s": emit_s * CAL_REF_S / (0.5 * (marks[-2][1] + end_reading)),
            "solve_ms": [(t - c) * 1e3 for t, c in zip(solve_s, self.spent)],
            "solve_ref_ms": ref_ms,
        }


def run_pass(args, runner, loaded, tracer) -> list[dict]:
    """Run and emit every scenario; one result entry per scenario.

    Untraced, each entry has raw times and reference-speed times (`*_ref*`,
    see SpeedProbe).  Traced, the probe stays out and times are raw.
    """
    import tempfile
    import traceback

    scratch = Path(args.work) / "emit"
    scratch.mkdir(parents=True, exist_ok=True)
    scenarios = []
    probe = None if tracer else SpeedProbe()
    restore = probe.install(runner) if probe else None
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for sc, mode in loaded:
                entry = {"name": sc.name, "vehicles": len(sc.vehicles), "error": None}
                scenarios.append(entry)
                if probe:
                    probe.reset()
                try:
                    self0 = tracer.self_seconds("runner.run") if tracer else 0.0
                    t0 = time.perf_counter()
                    result = runner.run(sc, mode=mode)
                    t1 = time.perf_counter()
                    out = Path(tmp) / f"{sc.name}_{result.mode}"
                    runner.emit(result, out)
                    t2 = time.perf_counter()
                except Exception:  # a failed run is counted, and the pass goes on
                    entry["error"] = traceback.format_exc()
                    continue
                solve_s = [s.solve_time for s in result.steps]
                entry.update(outcome_counters(result))
                entry["run_s"] = t1 - t0
                entry["emit_s"] = t2 - t1
                entry["solve_ms"] = [t * 1e3 for t in solve_s]
                if probe:
                    entry.update(probe.rescale(solve_s, t1 - t0, t2 - t1, calibrate()))
                entry["digest"], files = digest_dir(out)
                entry["emit_bytes"] = sum(len(b) for b in files.values())
                if args.workload == "shipped":
                    entry["golden"] = golden_matches(files, ROOT / "runs" / out.name)
                if tracer:
                    entry["run_self_s"] = tracer.self_seconds("runner.run") - self0
    finally:
        if restore:
            restore()
    return scenarios


def layer_metrics(tracer, scenarios: list[dict]) -> dict[str, float]:
    """The per-layer numbers of one traced pass, keyed by metric name."""
    done = [s for s in scenarios if s["error"] is None]
    steps = sum(s["steps"] for s in done)
    evals = sum(s["evals"] for s in done)
    m: dict[str, float] = {"runner.steps": steps}
    for name in ("runner.run", "game.solve_step"):
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.s"] = tracer.seconds(name)
        m[f"{name}.self_s"] = tracer.self_seconds(name)
    # no wrapped layer runs inside these, so their self time is their time
    for name in ("network.Route.project", "dynamics.step", "risk.build_field"):
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.s"] = tracer.seconds(name)
    for side, caller in (("solver", "game.solve_step"), ("runner", "runner.run")):
        m[f"dynamics.step.{side}.calls"] = tracer.calls("dynamics.step", caller)
        m[f"dynamics.step.{side}.s"] = tracer.seconds("dynamics.step", caller)
    for key in ("sweeps", "evals", "lateral_evals", "resets", "emergency_rows", "brake_overridden_rows",
                "residual_breach_steps"):
        m[f"game.{key}"] = sum(s[key] for s in done)
    m["game.evals_per_step"] = evals / steps if steps else 0.0
    m["game.unique_eval_ratio"] = (
        tracer.solver_rk4_unique / tracer.solver_rk4_calls if tracer.solver_rk4_calls else 0.0
    )
    for name in ("game.stop_distance", "game.brake_reach", "game.follow_reach",
                 "costs.following_risk", "costs.crossing_risk", "costs.efficiency", "costs.lane_keeping"):
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.s"] = tracer.seconds(name)
    for name in ("game.tracking_delta", "network.lead_distance_on_route", "network.classify_zone_role",
                 "network.conflict_points", "geometry.element_crossings", "risk.GaussianField.value"):
        m[f"{name}.calls"] = tracer.calls(name)
    m["runner.uncleared_at_horizon"] = sum(s["uncleared_at_horizon"] for s in done)
    m["runner.presolve_s"] = tracer.presolve_s
    m["runner.emit.s"] = tracer.seconds("runner.emit")
    m["runner.emit.bytes"] = sum(s["emit_bytes"] for s in done)
    m["runner.metrics.s"] = tracer.seconds("runner.metrics")
    m["scenario.load_scenario.s"] = tracer.seconds("scenario.load_scenario")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    cal0 = calibrate()
    t0 = time.perf_counter()
    runner, srcs, loaded = setup(args.workload, args.seed, args.work)
    setup_s = time.perf_counter() - t0

    import json
    import resource

    out: dict = {"setup_s": setup_s, "setup_ref_s": setup_s * CAL_REF_S / (0.5 * (cal0 + calibrate()))}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            restore = tracer.install()
            try:
                # load again under the wrappers so scenario loading is timed as a layer
                from intersection_game import scenario

                loaded = [(scenario.load_scenario(p), mode) for p, mode in srcs]
                out["scenarios"] = run_pass(args, runner, loaded, tracer)
            finally:
                restore()
            out["layers"] = layer_metrics(tracer, out["scenarios"])
            out["layer_table"] = tracer.table()
            tracer.write(Path(args.work) / "trace.jsonl")
        else:
            out["scenarios"] = run_pass(args, runner, loaded, None)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
