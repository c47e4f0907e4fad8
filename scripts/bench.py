"""Write a BENCH file: the benchmark's numbers for the checkout this script is in.

    python3 scripts/bench.py --out BENCH_<n>.json --label change

For each workload, `perfbench/run.py` runs once in this checkout with
`--trace 0`, at seed 1 for the benchmark's `run_seconds`, for the
end-to-end medians.  One in-process pass of the workload under cProfile
then gives its counts of work, which depend neither on the machine nor
on the hash seed:

- `counters`: the solver's `game.evals` (its rankings, calls of
  `_Vehicle._rank`), `game.lateral_evals` (its crossing-risk terms,
  calls of `crossing_risk`), `game.sweeps` and `game.resets`, summed
  from the runs' rows; its state predictions
  (`dynamics.step.solver.calls`: `dynamics.step` called from
  `_candidate`; the script exits non-zero if that reads 0 while the
  solver evaluated candidates, since the count would then miss
  predictions made elsewhere); its scored candidates (`game.scored`,
  calls of `_score`: the rankings that the `_scored` memo does not
  answer), its constraint checks (`game.constraint_evals`, calls of
  `_constraint_residual`), its crossing standoffs (`game.standoffs`,
  calls of `brake_reach`) and its leader headways (`game.headways`,
  calls of `follow_reach`); these five are found by name among the
  functions defined in `game.py`, whatever class holds them, so the
  count reads the same on a tree where `_StepSolver` held the methods
  that `_Vehicle` holds now; the
  `network.Route.project.calls` of loading the workload and of its runs,
  and `network.leader_projections`, those made from
  `lead_distance_on_route`: the leader searches its bounding boxes do not
  rule out; and `gc.cyclic_garbage`, the objects `gc.collect()` finds
  after the runs, made with the collector disabled: what the runs leave
  in reference cycles, read exactly, unlike `peak_rss_mb`;
- `python_calls`, the Python function calls of `runner.run` over every
  scenario, and `element_projections`, the calls of
  `geometry.Segment.project` and `geometry.Arc.project` among them: the
  route elements the projections visit.

Call counts sum cProfile's raw per-function entries: `pstats` would
merge functions that share a file, line and name (every dataclass
`__init__` is `<string>:2`), and its total then depends on the order the
package was imported in.

The record goes under `--label` in the JSON file at `--out`, and labels
already in that file are kept.  So one file can hold a parent and a change,
each measured by running this script in its own checkout:

    (cd ../parent && python3 scripts/bench.py --out $PWD/BENCH_<n>.json --label parent)
    python3 scripts/bench.py --out BENCH_<n>.json --label change

A parent older than this script gets it copied in unedited, so the
script loads `perfbench/` itself and imports nothing else from
`scripts/`, and the record's `uncommitted_changes` flag leaves this
script out: it is true only when some other tracked file differs from
the recorded commit.
"""

import argparse
import cProfile
import gc
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("shipped", "noncoop", "dense")
SEED = 1  # jitters only the dense layouts
ROW_COUNTERS = ("evals", "lateral_evals", "sweeps", "resets")  # of `bench_pass.outcome_counters`


def _perfbench_module(name: str):
    """Import perfbench/<name>.py by path, under its own name, so that the
    benchmark's modules find each other as they do when run as scripts."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def run_benchmark(workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one untraced `perfbench/run.py` run."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def profiled_counts(workload: str, seed: int) -> dict:
    """The record's `counters`, `python_calls` and `element_projections`,
    from cProfile's exact call counts over loading the workload and over
    `runner.run` of every scenario."""
    _perfbench_module("dense")
    bench_pass = _perfbench_module("bench_pass")
    work = ROOT / ".bench_build" / "bench" / f"{workload}-seed{seed}"
    load, prof = cProfile.Profile(), cProfile.Profile()
    load.enable()
    runner, _, loaded = bench_pass.setup(workload, seed, str(work))
    load.disable()
    from intersection_game import dynamics, game
    from intersection_game.geometry import Arc, Segment
    from intersection_game.network import Route, lead_distance_on_route

    results = []
    gc.collect()
    gc.disable()
    try:
        prof.enable()
        for sc, mode in loaded:
            results += [runner.run(sc, mode=mode)]  # unlike a comprehension or append, no call of its own
        prof.disable()
        cyclic = gc.collect()
    finally:
        gc.enable()
    stats = prof.getstats()
    rows = [bench_pass.outcome_counters(result) for result in results]
    counters = {f"game.{key}": sum(r[key] for r in rows) for key in ROW_COUNTERS}

    def in_game(name: str) -> list:
        """The entries of the functions `name` defined in `game.py`, whatever
        class holds them (a built-in's entry has no code object)."""
        return [e for e in stats if getattr(e.code, "co_filename", None) == game.__file__ and e.code.co_name == name]

    predict = dynamics.step.__code__
    counters["dynamics.step.solver.calls"] = sum(
        sub.callcount for e in in_game("_candidate") for sub in e.calls or () if sub.code is predict
    )
    if counters["game.evals"] and not counters["dynamics.step.solver.calls"]:
        raise SystemExit(
            f"{workload}: dynamics.step.solver.calls reads 0 while game.evals is {counters['game.evals']}: "
            "the solver's predictions no longer run from a _candidate method of game.py"
        )
    for key, name in (
        ("scored", "_score"),
        ("constraint_evals", "_constraint_residual"),
        ("standoffs", "brake_reach"),
        ("headways", "follow_reach"),
    ):
        counters[f"game.{key}"] = sum(e.callcount for e in in_game(name))
    counters["network.Route.project.calls"] = sum(
        e.callcount for e in (*load.getstats(), *stats) if e.code is Route.project.__code__
    )
    lead, project = lead_distance_on_route.__code__, Route.project.__code__
    counters["network.leader_projections"] = sum(
        sub.callcount for e in stats if e.code is lead for sub in e.calls or () if sub.code is project
    )
    counters["gc.cyclic_garbage"] = cyclic
    projections = {Segment.project.__code__, Arc.project.__code__}
    return {
        "counters": counters,
        "python_calls": sum(e.callcount for e in stats),
        "element_projections": sum(e.callcount for e in stats if e.code in projections),
    }


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure() -> dict:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    status = _git("status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)scripts/bench.py")
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "python": sys.version,
        "calibrate_s": _perfbench_module("bench_pass").calibrate(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        plain = run_benchmark(workload, SEED, seconds)
        record["workloads"][workload] = {
            "correct": plain["correct"],
            "failed": plain["failed"],
            "end_to_end": {name: m["value"] for name, m in plain["metrics"].items()},
            **profiled_counts(workload, SEED),
        }
        print(workload, json.dumps(record["workloads"][workload]), flush=True)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="BENCH JSON file to add the record to")
    ap.add_argument("--label", required=True, help="key of this checkout's record, such as parent or change")
    args = ap.parse_args(argv)

    record = measure()
    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    data[args.label] = record
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
