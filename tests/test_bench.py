"""`scripts/bench.py`'s counts of the solver's work, on one small scenario."""

import json
from pathlib import Path

import pytest

import bench
from intersection_game import dynamics, game, runner
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]


def _only(monkeypatch, name="case1_A"):
    """Make the benchmark's workload loader return scenario `name` alone."""
    bench_pass = bench._perfbench_module("bench_pass")
    loaded = [(load_scenario(ROOT / "scenarios" / f"{name}.cfg"), None)]
    monkeypatch.setattr(bench_pass, "setup", lambda workload, seed, work: (runner, [], loaded))


@pytest.fixture
def case1_a_only(monkeypatch):
    _only(monkeypatch)


def _counters(name):
    """The counters of one profiled pass over scenario `name`."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _only(monkeypatch, name)
        return bench.profiled_counts("shipped", 1)["counters"]


@pytest.fixture(scope="module")
def counters():
    return _counters("case1_A")


def test_counts_the_predictions_the_solver_makes(counters):
    """The solver's state predictions, `dynamics.step` called from
    `_Vehicle._candidate`, are counted."""
    assert counters["game.evals"] > 0
    assert counters["dynamics.step.solver.calls"] > 0


def test_counts_rankings_and_scored_candidates(counters):
    """Each scored candidate was ranked, and each ranking is an eval."""
    assert 0 < counters["game.scored"] <= counters["game.evals"]


def test_counts_constraint_checks_and_crossing_standoffs(counters):
    assert counters["game.constraint_evals"] > 0
    assert counters["game.standoffs"] > 0


def test_the_runs_leave_no_cyclic_garbage(counters):
    """Nothing a run made is left for the cyclic collector: the solver
    unlinks each step's vehicles."""
    assert counters["gc.cyclic_garbage"] == 0


@pytest.fixture(scope="module")
def case3():
    """The counters of one profiled pass over case3, and the number of
    leader searches (`lead_distance_on_route` calls) it makes."""
    searches = []
    real = runner.lead_distance_on_route
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(runner, "lead_distance_on_route", lambda *args: searches.append(args) or real(*args))
        return _counters("case3"), len(searches)


def test_counts_leader_headways_where_a_vehicle_follows(counters, case3):
    """case3 has leaders, so its constraint checks ask `follow_reach` for
    headways; case1_A has none and asks for none."""
    assert counters["game.headways"] == 0 < case3[0]["game.headways"]


def test_counts_the_leader_projections_the_boxes_let_through(case3):
    """case3 has leaders, so some leader searches project; a vehicle on
    another arm is ruled out by the route's boxes, so fewer searches
    project than are made."""
    counters, searches = case3
    assert 0 < counters["network.leader_projections"] < searches


def test_refuses_a_solver_prediction_count_of_zero(case1_a_only, monkeypatch):
    """A prediction moved out of `_Vehicle._candidate` would read as 0
    solver predictions; the script exits naming the counter instead."""
    monkeypatch.setattr(game, "integrate", lambda *args: dynamics.step(*args))
    with pytest.raises(SystemExit) as exit_info:
        bench.profiled_counts("shipped", 1)
    assert "dynamics.step.solver.calls reads 0" in str(exit_info.value.code)


def test_main_keeps_the_labels_already_in_the_file(monkeypatch, tmp_path):
    """A `change` record written into the file holding a `parent` record
    leaves that record in place."""
    out = tmp_path / "BENCH.json"
    for label in ("parent", "change"):
        monkeypatch.setattr(bench, "measure", lambda label=label: {"commit": label})
        assert bench.main(["--out", str(out), "--label", label]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == {"parent": {"commit": "parent"}, "change": {"commit": "change"}}
