"""Tests of the benchmark's own logic: percentiles, failure counting,
the dense generator and the tracer.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dense  # noqa: E402
import run  # noqa: E402
from intersection_game import runner, scenario  # noqa: E402


def test_percentile_interpolates_between_ranks():
    xs = [float(v) for v in range(1, 101)]
    assert run.percentile(xs, 50.0) == pytest.approx(50.5)
    assert run.percentile(xs, 95.0) == pytest.approx(95.05)
    assert run.percentile([3.0], 99.0) == 3.0
    with pytest.raises(ValueError):
        run.percentile([], 50.0)


@pytest.mark.parametrize(
    "n, q",
    [(9, None), (20, 50.0), (40, 75.0), (100, 90.0), (150, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    xs = [float(v) for v in range(n)]
    tail = run.tail_percentile(xs)
    if q is None:
        assert tail is None
        return
    got_q, value, count = tail
    assert (got_q, count) == (q, n)
    assert sum(1 for x in xs if x > value) >= 10


def _scenario(name, digest="d", **over):
    s = {"name": name, "error": None, "residual_breach_steps": 0, "digest": digest}
    s.update(over)
    return s


def test_count_failures_counts_each_reason_once():
    passes = [
        {"scenarios": [_scenario("a", "x"), _scenario("b", "y", golden=True), _scenario("c", "z")]},
        {"scenarios": [
            _scenario("a", "x"),
            _scenario("b", "y", golden=False),
            _scenario("c", "other"),
        ]},
        {"scenarios": [
            _scenario("a", None, error="Traceback\nValueError: boom\n"),
            _scenario("b", "y", residual_breach_steps=2),
            _scenario("c", "z"),
        ]},
        {"crash": "killed"},
    ]
    attempted, failed, correct, reasons = run.count_failures(passes, 3)
    assert attempted == 12
    assert failed == 4 + 3  # golden, digest, raise, residual; the crashed pass's three
    assert not correct
    assert any("differ from runs/" in r for r in reasons)
    assert any("differ between passes" in r for r in reasons)
    assert any("ValueError: boom" in r for r in reasons)
    assert any("max_residual" in r for r in reasons)
    assert any("process failed: killed" in r for r in reasons)


def test_residual_breach_fails_the_run_but_outputs_stay_correct():
    passes = [{"scenarios": [_scenario("a"), _scenario("b", residual_breach_steps=1)]} for _ in range(2)]
    assert run.count_failures(passes, 2)[:3] == (4, 2, True)


def test_count_failures_clean_passes():
    passes = [{"scenarios": [_scenario("a"), _scenario("b")]} for _ in range(3)]
    assert run.count_failures(passes, 2) == (6, 0, True, [])


def test_hash_seeds_are_distinct():
    seeds = run.hash_seeds(7, 50)
    assert len(set(seeds)) == 50 and all(0 < s < 2**32 for s in seeds)


def test_dense_layout_is_a_function_of_the_seed(tmp_path):
    first = [p.read_text() for p in dense.write_layouts(3, tmp_path / "a")]
    again = [p.read_text() for p in dense.write_layouts(3, tmp_path / "b")]
    other = [p.read_text() for p in dense.write_layouts(4, tmp_path / "c")]
    assert first == again
    assert all(x != y for x, y in zip(first, other))
    routes = [[line for line in text.splitlines() if line.startswith(("maneuver", "lane", "x ", "y "))]
              for text in first]
    assert routes == [[line for line in text.splitlines() if line.startswith(("maneuver", "lane", "x ", "y "))]
                      for text in other]


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_layouts_load_with_fixed_mix(tmp_path, seed):
    for per_arm, path in zip(dense.PER_ARM, dense.write_layouts(seed, tmp_path)):
        sc = scenario.load_scenario(path)
        n = 4 * per_arm
        assert len(sc.vehicles) == n
        assert sc.t_end == dense.HORIZON_S
        counts = {m: sum(1 for v in sc.vehicles if v.maneuver == m) for m in ("left", "straight", "right")}
        assert counts == {m: len(range(k, n, 3)) for k, m in enumerate(("left", "straight", "right"))}
        assert all(-0.81 <= v.kappa <= 0.81 and 3.49 <= v.v <= 5.51 for v in sc.vehicles)
        for arm in ("M1", "M2", "M3", "M4"):
            assert sum(1 for v in sc.vehicles if v.road == arm) == per_arm


def test_tracing_leaves_results_unchanged_and_restores(tmp_path):
    import tracing

    sc = scenario.load_scenario(ROOT / "scenarios" / "case1_A.cfg")
    sc = dataclasses.replace(sc, t_end=0.5)
    originals = {name: getattr(runner, name) for name in ("run", "solve_step", "integrate", "emit")}
    plain = runner.run(sc)
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        traced = runner.run(sc)
    finally:
        restore()
    assert {name: getattr(runner, name) for name in originals} == originals
    assert plain.rows == traced.rows
    assert [dataclasses.replace(s, solve_time=0.0) for s in plain.steps] == [
        dataclasses.replace(s, solve_time=0.0) for s in traced.steps
    ]
    assert tracer.calls("game.solve_step") == len(traced.steps)
    assert tracer.calls("dynamics.step", "runner.run") == len(traced.steps) * len(sc.vehicles)
    assert tracer.calls("dynamics.step", "game.solve_step") == tracer.solver_rk4_calls
    assert 0 < tracer.solver_rk4_unique <= tracer.solver_rk4_calls
    total, inclusive = tracer.self_seconds("runner.run"), tracer.seconds("runner.run")
    assert 0.0 < total < inclusive
    assert [s[3] for s in tracer.spans].count("runner.run") == 1


def test_speed_probe_rescales_to_reference_speed():
    import bench_pass

    ref = bench_pass.CAL_REF_S
    probe = bench_pass.SpeedProbe()
    probe.readings = [(0, 2 * ref), (2, 2 * ref)]  # the host runs at half speed
    probe.spent = [0.001, 0.0, 0.001, 0.0]  # probe time inside steps 0 and 2
    got = probe.rescale([0.011, 0.010, 0.011, 0.010], run_s=0.050, emit_s=0.010, end_reading=2 * ref)
    assert got["solve_ms"] == pytest.approx([10.0, 10.0, 10.0, 10.0])
    assert got["solve_ref_ms"] == pytest.approx([5.0, 5.0, 5.0, 5.0])
    assert got["run_s"] == pytest.approx(0.048)
    assert got["run_ref_s"] == pytest.approx(0.024)
    assert got["emit_ref_s"] == pytest.approx(0.005)


def test_speed_probe_uses_readings_on_both_sides():
    import bench_pass

    ref = bench_pass.CAL_REF_S
    probe = bench_pass.SpeedProbe()
    probe.readings = [(0, ref), (1, 3 * ref)]
    probe.spent = [0.0, 0.0]
    got = probe.rescale([0.010, 0.010], run_s=0.020, emit_s=0.0, end_reading=3 * ref)
    assert got["solve_ref_ms"] == pytest.approx([5.0, 10.0 / 3.0])


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shipped", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
