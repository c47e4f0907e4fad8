"""`scripts/bench.py`'s counts of the solver's work, on one small scenario."""

import importlib.util
from pathlib import Path

import pytest

from intersection_game import dynamics, game, runner
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _case1_a_only(monkeypatch):
    """Make the benchmark's workload loader return case1_A alone."""
    bench_pass = bench._perfbench_module("bench_pass")
    loaded = [(load_scenario(ROOT / "scenarios" / "case1_A.cfg"), None)]
    monkeypatch.setattr(bench_pass, "setup", lambda workload, seed, work: (runner, [], loaded))


@pytest.fixture
def case1_a_only(monkeypatch):
    _case1_a_only(monkeypatch)


@pytest.fixture(scope="module")
def counters():
    """The counters of one profiled pass over case1_A."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _case1_a_only(monkeypatch)
        return bench.profiled_counts("shipped", 1)["counters"]


def test_counts_the_rk4_steps_the_solver_takes(counters):
    assert counters["game.evals"] > 0
    assert counters["dynamics.step.solver.calls"] > 0


def test_counts_rankings_and_scored_candidates(counters):
    """Each scored candidate was ranked, and each ranking is an eval."""
    assert 0 < counters["game.scored"] <= counters["game.evals"]


def test_counts_constraint_checks_and_crossing_standoffs(counters):
    assert counters["game.constraint_evals"] > 0
    assert counters["game.standoffs"] > 0


def test_refuses_a_solver_rk4_count_of_zero(case1_a_only, monkeypatch):
    """A prediction moved out of `_StepSolver._candidate` would read as 0
    solver steps; the script exits naming the counter instead."""
    monkeypatch.setattr(game, "integrate", lambda *args: dynamics.step(*args))
    with pytest.raises(SystemExit) as exit_info:
        bench.profiled_counts("shipped", 1)
    assert "dynamics.step.solver.calls reads 0" in str(exit_info.value.code)
