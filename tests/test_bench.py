"""`scripts/bench.py`'s count of the solver's RK4 steps, on one small scenario."""

import importlib.util
from pathlib import Path

import pytest

from intersection_game import dynamics, game, runner
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture
def case1_a_only(monkeypatch):
    """Make the benchmark's workload loader return case1_A alone."""
    bench_pass = bench._perfbench_module("bench_pass")
    loaded = [(load_scenario(ROOT / "scenarios" / "case1_A.cfg"), None)]
    monkeypatch.setattr(bench_pass, "setup", lambda workload, seed, work: (runner, [], loaded))


def test_counts_the_rk4_steps_the_solver_takes(case1_a_only):
    counters = bench.profiled_counts("shipped", 1)["counters"]
    assert counters["game.evals"] > 0
    assert counters["dynamics.step.solver.calls"] > 0


def test_refuses_a_solver_rk4_count_of_zero(case1_a_only, monkeypatch):
    """An RK4 call moved out of `_StepSolver._candidate` would read as 0
    solver steps; the script exits naming the counter instead."""
    monkeypatch.setattr(game, "integrate", lambda *args: dynamics.step(*args))
    with pytest.raises(SystemExit) as exit_info:
        bench.profiled_counts("shipped", 1)
    assert "dynamics.step.solver.calls reads 0" in str(exit_info.value.code)
