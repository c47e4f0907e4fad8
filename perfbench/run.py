"""Benchmark of the intersection-game simulator, end to end and per layer.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each pass over the workload runs in a
fresh process (`bench_pass.py`, one process, no threads), one after the
other, each with its own PYTHONHASHSEED, until `--seconds` is used up and
at least two passes are done.  A pass imports the package, loads every
scenario, then runs and emits each one through the library API.  Outputs
are checked: a scenario run fails if it raises, if any step's
`max_residual` exceeds 1e-6, if its emitted bytes (all files but
`timing.json`) differ from another pass's, or, on `shipped`, if they
differ from the committed `runs/<name>_fuzzy/`.

Workloads (closed loop, one scenario after another):

- `shipped`: the 8 scenarios under scenarios/ in their configured mode,
  golden-checked against runs/.
- `noncoop`: the same 8 scenarios under `noncoop`: the same best-response
  layer without the rationality check, the resets or the coupling.
- `dense`: three crowded layouts from `dense.py` (8, 12, 16 vehicles),
  jittered by `--seed`; the seed changes nothing else in any workload.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics, timed at a reference speed (see bench_pass.SpeedProbe);
with `--trace 1` passes alternate untraced and traced and it carries the
per-layer metrics of a traced pass, with the tracing overhead.  Readable
lines above it give every metric with its unit, the failure ratio, sample
counts and the per-scenario scaling lines.  Spans and the layer table are
written under `.bench_build/perfbench/`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from bench_pass import RESIDUAL_LIMIT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("shipped", "noncoop", "dense")
MIN_PASSES = 2
SETUP_SAMPLES = 10  # set-up-only processes per run, on top of one per pass
DEADLINE_S = 165.0  # a run, and every process it starts, ends by then
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "step_ms.p50": "ms",
    "step_ms.p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- statistics ------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(values: list[float], candidates=TAIL_CANDIDATES) -> tuple[float, float, int] | None:
    """Highest candidate percentile with at least ten samples above it, as
    (q, value, sample count); None when even the lowest candidate has fewer."""
    for q in sorted(candidates, reverse=True):
        v = percentile(values, q)
        if sum(1 for x in values if x > v) >= 10:
            return q, v, len(values)
    return None


# -- correctness -----------------------------------------------------------


def count_failures(passes: list[dict], n_scenarios: int) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, reasons) over every scenario run of every pass.

    A run fails if it raises, if a step's constraint residual exceeds
    RESIDUAL_LIMIT, if its outputs differ from the first successful pass's
    for that scenario, or if they differ from the golden copy.  A pass whose
    process died fails all its scenarios.  The outputs are correct unless
    a failure other than a residual breach occurred: a breach is the
    solver's known defect on crowded layouts, counted but reproducible.
    """
    attempted = failed = 0
    correct = True
    reasons: list[str] = []
    reference: dict[str, str] = {}
    for k, p in enumerate(passes):
        if "scenarios" not in p:
            attempted += n_scenarios
            failed += n_scenarios
            correct = False
            reasons.append(f"pass {k}: process failed: {p.get('crash', '?')}")
            continue
        for s in p["scenarios"]:
            attempted += 1
            why = None
            if s["error"] is not None:
                why = "raised " + s["error"].strip().splitlines()[-1]
            elif s.get("golden") is False:
                why = "emitted files differ from runs/"
            elif reference.setdefault(s["name"], s["digest"]) != s["digest"]:
                why = "emitted files differ between passes"
            if why is not None:
                correct = False
            elif s["residual_breach_steps"]:
                why = f"{s['residual_breach_steps']} steps with max_residual > {RESIDUAL_LIMIT:g}"
            if why is not None:
                failed += 1
                reasons.append(f"pass {k} {s['name']}: {why}")
    return attempted, failed, correct, reasons


# -- passes ----------------------------------------------------------------


def hash_seeds(seed: int, k: int) -> list[int]:
    """k distinct PYTHONHASHSEED values for the passes of one run."""
    return random.Random(f"hashseed-{seed}").sample(range(1, 2**32 - 1), k)


def run_pass(
    workload: str, seed: int, traced: bool, work: Path, hash_seed: int, timeout: float, setup_only=False
) -> dict:
    cmd = [
        sys.executable, str(HERE / "bench_pass.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"crash": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"crash": tail[0]}
    out = json.loads(lines[-1])
    out["traced"] = traced
    return out


def pass_times(p: dict) -> dict:
    """Totals of one pass: reference-speed times when it was probed
    (untraced), raw times otherwise."""
    done = [s for s in p["scenarios"] if s["error"] is None]
    probed = not p["traced"]
    return {
        "raw_wall_s": sum(s["run_s"] + s["emit_s"] for s in done),
        "wall_s": sum(s["run_ref_s"] + s["emit_ref_s"] if probed else s["run_s"] + s["emit_s"] for s in done),
        "run_s": sum(s["run_ref_s"] if probed else s["run_s"] for s in done),
        "solve_ms": [x for s in done for x in (s["solve_ref_ms"] if probed else s["solve_ms"])],
    }


def end_to_end(plain: list[dict], setups: list[float]) -> dict[str, float]:
    """End-to-end metrics over the untraced passes, at reference speed."""
    solve_ms = [x for p in plain for x in p["solve_ms"]]
    return {
        "wall_s": median([p["wall_s"] for p in plain]),
        "steps_per_s": median([len(p["solve_ms"]) / p["run_s"] for p in plain]),
        "step_ms.p50": median(solve_ms),
        "step_ms.p95": percentile(solve_ms, 95.0),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Layer metrics of the last traced pass plus the tracing overhead,
    in raw seconds: the speed probe stays out of traced passes."""
    m = dict(traced[-1]["layers"])
    m["trace.wall_s"] = median([p["raw_wall_s"] for p in traced])
    m["trace.overhead_s"] = m["trace.wall_s"] - median([p["raw_wall_s"] for p in plain])
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_per_step"):
        return "count/step"
    return "count"


def scaling_lines(passes: list[dict]) -> list[str]:
    """Per-scenario step latency (reference speed) and work, by vehicle count."""
    by_name: dict[str, dict] = {}
    for p in passes:
        for s in p.get("scenarios", ()):
            if s["error"] is not None:
                continue
            e = by_name.setdefault(s["name"], {"n": s["vehicles"], "ms": [], "share": []})
            e["evals_per_step"] = s["evals"] / max(s["steps"], 1)
            if p["traced"]:
                e["share"].append(s["run_self_s"] / s["run_s"])
            else:
                e["ms"].extend(s["solve_ref_ms"])
    lines = []
    for name, e in sorted(by_name.items(), key=lambda kv: (kv[1]["n"], kv[0])):
        text = f"  {name:<10} n={e['n']:<3}"
        if e["ms"]:
            text += f" step_ms.p50 {median(e['ms']):9.3f} ms (n={len(e['ms'])})"
        text += f"  game.evals_per_step {e['evals_per_step']:9.1f}"
        if e["share"]:
            text += f"  runner.run.self_s share {100.0 * median(e['share']):5.2f} %"
        lines.append(text)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "intersection_game" / "__init__.py", ROOT / "scenarios"]
    if args.workload == "shipped":
        needed.append(ROOT / "runs")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"benchmark: not a checkout of the simulator, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    seeds = iter(hash_seeds(args.seed, 1000))
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        left = DEADLINE_S - (time.perf_counter() - start)
        passes.append(run_pass(args.workload, args.seed, traced, work, next(seeds), left))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        if elapsed * (len(passes) + 1) / len(passes) > DEADLINE_S:
            break
    ok = [p for p in passes if "scenarios" in p]
    n_scenarios = max((len(p["scenarios"]) for p in ok), default=0)
    attempted, failed, correct, reasons = count_failures(passes, n_scenarios)
    for r in reasons:
        print(f"benchmark: FAILED {r}", file=sys.stderr)
    plain = [dict(p, **pass_times(p)) for p in ok if not p["traced"]]
    traced = [dict(p, **pass_times(p)) for p in ok if p["traced"]]
    if not plain or (args.trace and not traced):
        print("benchmark: no pass completed", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} scenario runs, {failed} failed, fail_ratio {failed / attempted:.4f}")
    print("untraced pass wall, raw s: " + ", ".join(f"{p['raw_wall_s']:.3f}" for p in plain))
    if args.trace:
        metrics = per_layer(plain, traced)
        table = traced[-1]["layer_table"]
        (work / "layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
        units = {name: layer_unit(name) for name in metrics}
    else:
        setups = [p["setup_ref_s"] for p in ok]
        for _ in range(SETUP_SAMPLES):
            left = DEADLINE_S - (time.perf_counter() - start)
            p = run_pass(args.workload, args.seed, False, work, next(seeds), left, setup_only=True)
            if "setup_s" in p:
                setups.append(p["setup_ref_s"])
        metrics = end_to_end(plain, setups)
        units = END_TO_END_UNITS
        samples = [x for p in plain for x in p["solve_ms"]]
        tail = tail_percentile(samples)
        tail_text = f"; tail by the ten-beyond rule: p{tail[0]:g} = {tail[1]:.4f} ms" if tail else ""
        print(f"step_ms samples: {len(samples)}{tail_text}; set-up samples: {len(setups)}")
    for line in scaling_lines(passes):
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
