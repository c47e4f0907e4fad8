"""Write a BENCH file: the benchmark's numbers for the checkout this script is in.

    python3 scripts/bench.py --out BENCH_<n>.json --label change

For each workload, `perfbench/run.py` runs twice in this checkout, at seed
1 for the benchmark's `run_seconds`: once with `--trace 0` for the
end-to-end medians and once with `--trace 1` for the traced work
counters.  Then one in-process run of the workload under cProfile gives
`python_calls`: the total Python function calls over `runner.run` of
every scenario of the workload, a count of interpreter work that does
not depend on the machine or on the hash seed.

The record goes under `--label` in the JSON file at `--out`, and labels
already in that file are kept.  So one file can hold a parent and a change,
each measured by running this script in its own checkout:

    (cd ../parent && python3 scripts/bench.py --out $PWD/BENCH_<n>.json --label parent)
    python3 scripts/bench.py --out BENCH_<n>.json --label change
"""

import argparse
import cProfile
import importlib.util
import json
import pstats
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("shipped", "noncoop", "dense")
SEED = 1  # jitters only the dense layouts
COUNTERS = (
    "game.evals",
    "game.unique_eval_ratio",
    "dynamics.step.solver.calls",
    "network.Route.project.calls",
    "game.lateral_evals",
    "game.sweeps",
    "game.resets",
)


def _perfbench_module(name: str):
    """Import perfbench/<name>.py by path, under its own name, so that the
    benchmark's modules find each other as they do when run as scripts."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def run_benchmark(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON object on the last line of one `perfbench/run.py` run."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def python_calls(workload: str, seed: int) -> int:
    """cProfile's total call count over `runner.run` of every scenario."""
    _perfbench_module("dense")
    bench_pass = _perfbench_module("bench_pass")
    work = ROOT / ".bench_build" / "bench" / f"{workload}-seed{seed}"
    runner, _, loaded = bench_pass.setup(workload, seed, str(work))
    prof = cProfile.Profile()
    prof.enable()
    for sc, mode in loaded:
        runner.run(sc, mode=mode)
    prof.disable()
    return pstats.Stats(prof).total_calls


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure() -> dict:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    status = _git("status", "--porcelain", "--untracked-files=no")
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
        plain = run_benchmark(workload, SEED, seconds, 0)
        traced = run_benchmark(workload, SEED, seconds, 1)
        record["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": {name: m["value"] for name, m in plain["metrics"].items()},
            "counters": {name: traced["metrics"][name]["value"] for name in COUNTERS},
            "python_calls": python_calls(workload, SEED),
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
