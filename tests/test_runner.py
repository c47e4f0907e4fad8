"""Closed-loop simulation: roles, termination, metrics, and emitted files."""

import json
import math
from pathlib import Path

import pytest

from intersection_game.runner import (
    STEP_COLUMNS,
    TRACE_COLUMNS,
    emit,
    metrics,
    pair_conflicts,
    run,
    timing,
)
from intersection_game.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
_ROLE_ORDER = {"RV": 0, "PV": 1, "OV": 2}

_cache = {}


def run_cached(key, **kw):
    if key not in _cache:
        _cache[key] = run(load_scenario(SCENARIOS / "case1_A.cfg"), **kw)
    return _cache[key]


def test_pair_conflicts_for_three_vehicle_scenario():
    # the two left turns cross each other, and the west one also cuts the
    # eastern through lane; the south turner never reaches that lane
    sc = load_scenario(SCENARIOS / "case1_A.cfg")
    pairs = pair_conflicts(sc)
    assert set(pairs) == {(0, 1), (0, 2)}
    for cps in pairs.values():
        assert any(c.kind == "cross" for c in cps)


def test_run_terminates_before_the_time_budget():
    res = run_cached("fuzzy")
    assert 0 < len(res.steps) < round(res.scenario.t_end / res.scenario.dt)
    assert len(res.rows) == len(res.steps)
    assert all(len(sr) == 3 for sr in res.rows)


def test_step_rows_number_the_control_steps():
    res = run_cached("fuzzy")
    assert [s.step for s in res.steps] == list(range(len(res.steps)))
    assert all(s.t == s.step * res.scenario.dt for s in res.steps)


def test_roles_only_progress():
    res = run_cached("fuzzy")
    for i in range(3):
        prev = -1
        for sr in res.rows:
            cur = _ROLE_ORDER[sr[i].role]
            assert cur >= prev
            prev = cur


def test_constraints_hold_throughout():
    res = run_cached("fuzzy")
    m = metrics(res)
    assert m["max_constraint_residual"] <= 1e-6
    assert m["rationality"]["emergencies"] == 0
    for pair in m["pairs"].values():
        assert pair["min_ttc"] is None or pair["min_ttc"] >= 1.5
        assert pair["min_distance"] is None or pair["min_distance"] > 3.0


def test_metrics_agree_with_raw_rows():
    res = run_cached("fuzzy")
    m = metrics(res)
    pooled = [r.v for sr in res.rows for r in sr if r.role != "OV"]
    want = math.sqrt(sum(v * v for v in pooled) / len(pooled))
    assert m["system_velocity_rms"] == pytest.approx(want, abs=1e-12)
    d01 = min(
        math.hypot(sr[1].x - sr[0].x, sr[1].y - sr[0].y)
        for sr in res.rows
        if sr[0].role != "OV" and sr[1].role != "OV"
    )
    assert m["pairs"]["V1-V2"]["min_distance"] == pytest.approx(d01, abs=1e-12)
    assert m["n_steps"] == len(res.steps)
    assert m["duration"] == pytest.approx(len(res.steps) * 0.1)


def test_gating_cuts_lateral_cost_evaluations():
    gated = run_cached("fuzzy")
    ungated = run_cached("ungated", risk_gating=False)
    assert sum(s.lateral_evals for s in gated.steps) < sum(
        s.lateral_evals for s in ungated.steps
    )
    assert ungated.risk_gating is False


def test_forced_participation_reaches_every_row():
    res = run_cached("forced", force_participation=0.0)
    assert res.force_participation == 0.0
    for sr in res.rows:
        for r in sr:
            assert r.p == 0.0


def test_run_rejects_bad_arguments():
    sc = load_scenario(SCENARIOS / "case1_A.cfg")
    with pytest.raises(ValueError):
        run(sc, mode="chaotic")
    with pytest.raises(ValueError):
        run(sc, force_participation=1.5)


def test_emitted_files_match_their_schemas(tmp_path):
    res = run_cached("fuzzy")
    files = emit(res, tmp_path)
    assert [f.name for f in files] == [
        "trace.csv", "steps.csv", "series_path_length.csv",
        "series_velocity.csv", "metrics.json", "timing.json",
    ]
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_COLUMNS
    assert len(trace) == 1 + 3 * len(res.steps)
    steps = (tmp_path / "steps.csv").read_text().splitlines()
    assert steps[0] == STEP_COLUMNS
    assert len(steps) == 1 + len(res.steps)
    for series in ("series_path_length.csv", "series_velocity.csv"):
        lines = (tmp_path / series).read_text().splitlines()
        assert lines[0] == "time,V1,V2,V3"
        assert len(lines) == 1 + len(res.steps)
    m = json.loads((tmp_path / "metrics.json").read_text())
    assert m["scenario"] == "case1_A"
    assert set(m["vehicles"]) == {"V1", "V2", "V3"}
    t = json.loads((tmp_path / "timing.json").read_text())
    assert set(t) == {"n_solves", "total_solve_time", "mean_solve_time", "wall_time"}
    assert t["n_solves"] == len(res.steps)
    assert timing(res)["n_solves"] == len(res.steps)


def test_repeated_runs_emit_identical_bytes(tmp_path):
    sc = load_scenario(SCENARIOS / "case1_A.cfg")
    a, b = tmp_path / "a", tmp_path / "b"
    emit(run(sc), a)
    emit(run(sc), b)
    for name in (
        "trace.csv", "steps.csv", "series_path_length.csv",
        "series_velocity.csv", "metrics.json",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_field_raster_emission(tmp_path):
    res = run_cached("fuzzy")
    files = emit(res, tmp_path, field_raster=True)
    assert files[-1].name == "field_raster.csv"
    lines = (tmp_path / "field_raster.csv").read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) > 1000
