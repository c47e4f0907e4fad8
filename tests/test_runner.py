"""Closed-loop simulation: roles, termination, metrics, and emitted files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intersection_game
from intersection_game import runner
from intersection_game.dynamics import DT, VehicleState
from intersection_game.game import CpRef
from intersection_game.network import OV_EXIT_MARGIN, classify_zone_role, route_for
from intersection_game.risk import GaussianField, build_field
from intersection_game.runner import (
    _PASS_MARGIN,
    STEP_COLUMNS,
    TRACE_COLUMNS,
    build_views,
    crossing_index,
    emit,
    metrics,
    pair_conflicts,
    run,
    timing,
)
from intersection_game.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
_ROLE_ORDER = {"RV": 0, "PV": 1, "OV": 2}

CASE1_A = (SCENARIOS / "case1_A.cfg").read_text(encoding="utf-8")


def test_pair_conflicts_for_three_vehicle_scenario():
    # the two left turns cross each other, and the west one also cuts the
    # eastern through lane; the south turner never reaches that lane
    sc = load_scenario(SCENARIOS / "case1_A.cfg")
    pairs = pair_conflicts(sc)
    assert set(pairs) == {(0, 1), (0, 2)}
    for cps in pairs.values():
        assert any(c.kind == "cross" for c in cps)


def test_run_terminates_before_the_time_budget(simulate):
    res = simulate(CASE1_A)
    assert 0 < len(res.steps) < round(res.scenario.t_end / DT)
    assert len(res.rows) == len(res.steps)
    assert all(len(sr) == 3 for sr in res.rows)


def test_step_rows_number_the_control_steps(simulate):
    res = simulate(CASE1_A)
    assert [s.step for s in res.steps] == list(range(len(res.steps)))
    assert all(s.t == s.step * DT for s in res.steps)


def test_roles_only_progress(simulate):
    res = simulate(CASE1_A)
    for i in range(3):
        prev = -1
        for sr in res.rows:
            cur = _ROLE_ORDER[sr[i].role]
            assert cur >= prev
            prev = cur


def test_constraints_hold_throughout(simulate):
    res = simulate(CASE1_A)
    m = metrics(res)
    assert m["max_constraint_residual"] <= 1e-6
    assert m["rationality"]["emergencies"] == 0
    for pair in m["pairs"].values():
        assert pair["min_ttc"] is None or pair["min_ttc"] >= 1.5
        assert pair["min_distance"] is None or pair["min_distance"] > 3.0


def test_metrics_agree_with_raw_rows(simulate):
    res = simulate(CASE1_A)
    m = metrics(res)
    pooled = [r.state.v_x for sr in res.rows for r in sr if r.role != "OV"]
    want = math.sqrt(sum(v * v for v in pooled) / len(pooled))
    assert m["system_velocity_rms"] == pytest.approx(want, abs=1e-12)
    d01 = min(
        math.hypot(sr[1].state.x - sr[0].state.x, sr[1].state.y - sr[0].state.y)
        for sr in res.rows
        if sr[0].role != "OV" and sr[1].role != "OV"
    )
    assert m["pairs"]["V1-V2"]["min_distance"] == pytest.approx(d01, abs=1e-12)
    assert m["n_steps"] == len(res.steps)
    assert m["duration"] == pytest.approx(len(res.steps) * 0.1)


def test_forced_participation_reaches_every_row(simulate):
    res = simulate(CASE1_A, mode="noncoop")
    for sr in res.rows:
        for r in sr:
            assert r.p == 0.0
            assert not r.reset


def test_run_rejects_bad_arguments():
    sc = load_scenario(SCENARIOS / "case1_A.cfg")
    with pytest.raises(ValueError):
        run(sc, mode="chaotic")


def test_emitted_files_match_their_schemas(simulate, tmp_path):
    res = simulate(CASE1_A)
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


def test_non_finite_floats_become_null_at_any_depth():
    """`metrics.json` stays valid JSON: inf, -inf and nan map to None inside
    nested dicts and lists, and finite floats keep nine significant digits."""
    report = {"a": math.inf, "b": [1.0 / 3.0, -math.inf, {"c": math.nan, "d": (math.nan, 2)}], "e": "x"}
    assert runner._round_floats(report) == {"a": None, "b": [0.333333333, None, {"c": None, "d": [None, 2]}], "e": "x"}
    json.dumps(runner._round_floats(report), allow_nan=False)


def test_fresh_interpreters_emit_identical_bytes(tmp_path):
    src = Path(intersection_game.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    outs = []
    for seed in ("1", "2024"):
        out = tmp_path / f"seed{seed}"
        subprocess.run(
            [sys.executable, "-m", "intersection_game", "run", str(SCENARIOS / "case1_A.cfg"), "--out", str(out)],
            env=dict(env, PYTHONHASHSEED=seed), check=True, capture_output=True,
        )
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "timing.json")
    assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "timing.json")
    assert len(names) == 5
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_field_raster_emission(simulate, tmp_path):
    res = simulate(CASE1_A)
    files = emit(res, tmp_path, field_raster=True)
    assert files[-1].name == "field_raster.csv"
    lines = (tmp_path / "field_raster.csv").read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) > 1000


# -- views -------------------------------------------------------------------

APPROACH = 30.0  # m, the loader's default approach length


def scenario_of(tmp_path, *routes):
    """A scenario with one vehicle on each (road, maneuver, lane) route."""
    lines = ["[scenario]", "version = 1"]
    for k, (road, maneuver, lane) in enumerate(routes):
        x, y = route_for(APPROACH, road, maneuver, lane).point_at(1.0)
        lines += [
            f"[vehicle.V{k + 1}]", f"road = {road}", f"maneuver = {maneuver}", f"lane = {lane}",
            f"x = {x!r}", f"y = {y!r}", "v = 5", "kappa = 0",
        ]
    path = tmp_path / "views.cfg"
    path.write_text("\n".join(lines) + "\n")
    return load_scenario(path)


def place(sc, s):
    """Vehicles at arc lengths s along their routes, on the tangent, at 5 m/s."""
    points = [r.point_at(si) for r, si in zip(sc.routes, s)]
    return [VehicleState(5.0, r.project(*xy)[2], *xy) for r, xy in zip(sc.routes, points)]


def views_at(sc, s, risk_gating=True):
    n = len(s)
    roles = [classify_zone_role(r, si) for r, si in zip(sc.routes, s)]
    return build_views(
        sc, place(sc, s), list(s), [(0.0, 0.0)] * n, roles, [1.0] * n,
        crossing_index(sc, pair_conflicts(sc)), risk_gating,
    )


def views_gated_at(monkeypatch, threshold, sc, s, risk_gating=True):
    """`views_at` with the field level that gates a risk term on set to `threshold`."""
    monkeypatch.setattr(runner, "THRESHOLD", threshold)
    return views_at(sc, s, risk_gating)


def test_build_views_picks_the_nearest_leader(tmp_path):
    sc = scenario_of(tmp_path, *[("M1", "straight", "outer")] * 3)
    views = views_at(sc, [10.0, 20.0, 30.0])
    assert [v.lv for v in views] == [1, 2, None]
    assert all(v.player and v.cps == () for v in views)


def test_build_views_leader_on_the_exit_lane_keeps_the_merge_live(tmp_path):
    sc = scenario_of(tmp_path, ("M1", "left", "inner"), ("M2", "straight", "inner"))
    host, other = sc.routes
    # the other vehicle sits on the shared exit lane just past the merge
    views = views_at(sc, [host.s_cz_exit - 1.0, other.project(2.0, 11.0)[0]])
    assert views[0].lv == 1
    assert views[1].lv is None
    assert any(c.partner == 1 for c in views[0].cps)


def test_build_views_keeps_crossing_points_live_until_passed(tmp_path):
    sc = scenario_of(tmp_path, ("M1", "left", "inner"), ("M4", "straight", "inner"))
    cross = next(c for c in pair_conflicts(sc)[(0, 1)] if c.kind == "cross")

    def live(s, i=0):
        s_self = cross.s_a if i == 0 else cross.s_b
        return [(c.partner, c.s_self, c.s_other) for c in views_at(sc, s)[i].cps if c.s_self == s_self]

    assert live([5.0, 10.0]) == [(1, cross.s_a, cross.s_b)]
    assert live([5.0, 10.0], i=1) == [(0, cross.s_b, cross.s_a)]
    # a point stays live until either vehicle is the pass margin beyond it
    assert live([cross.s_a + 0.99 * _PASS_MARGIN, 10.0]) != []
    assert live([cross.s_a + _PASS_MARGIN, 10.0]) == []
    assert live([5.0, cross.s_b + _PASS_MARGIN]) == []
    # a vehicle that has cleared the zone is no player and sees nothing
    gone = views_at(sc, [sc.routes[0].s_cz_exit + OV_EXIT_MARGIN + 1.0, 10.0])[0]
    assert not gone.player and gone.lv is None and gone.cps == ()


def test_build_views_gates_strictly_above_the_threshold(tmp_path, monkeypatch):
    sc = scenario_of(tmp_path, *[("M1", "straight", "outer")] * 2)
    s = [10.0, 20.0]
    states = place(sc, s)
    level = build_field(states[0], 0.0, 0.0).value(states[1].x, states[1].y)
    assert level > 0.0
    # a level exactly at the threshold stays off
    assert not views_gated_at(monkeypatch, level, sc, s)[0].lv_gated
    assert views_gated_at(monkeypatch, math.nextafter(level, 0.0), sc, s)[0].lv_gated
    assert views_gated_at(monkeypatch, level, sc, s, risk_gating=False)[0].lv_gated

    # a crossing point is gated by either vehicle's field; put one vehicle
    # near the point and the other out of reach, then swap
    sc = scenario_of(tmp_path, ("M1", "left", "inner"), ("M4", "straight", "inner"))
    cross = next(c for c in pair_conflicts(sc)[(0, 1)] if c.kind == "cross")
    for near in (0, 1):
        s = [cross.s_a - 25.0, cross.s_b - 25.0]
        s[near] += 17.0
        fields = [build_field(st, 0.0, 0.0) for st in place(sc, s)]
        level = fields[near].value(cross.x, cross.y)
        assert level > 0.0 == fields[1 - near].value(cross.x, cross.y)

        def priced(threshold, risk_gating=True):
            cp = views_gated_at(monkeypatch, threshold, sc, s, risk_gating)[0].cost_cp
            return cp is not None and cp.s_self == cross.s_a

        assert not priced(level)
        assert priced(math.nextafter(level, 0.0))
        assert priced(level, risk_gating=False)


def test_build_views_prices_the_point_whose_partner_arrives_first(tmp_path, monkeypatch):
    # the host meets V3 at its nearer point and V2 at its farther one; V3
    # is far from its point, V2 close to its own, both at 5 m/s
    sc = scenario_of(
        tmp_path, ("M1", "straight", "outer"), ("M2", "straight", "outer"), ("M4", "straight", "outer")
    )
    near, far = crossing_index(sc, pair_conflicts(sc))[0]
    assert near.s_self < far.s_self and (near.partner, far.partner) == (2, 1)
    s = [20.0, far.s_other - 4.0, near.s_other - 36.0]
    host = views_at(sc, s, risk_gating=False)[0]
    assert host.cps == (near, far)
    assert host.cost_cp == far and host.cost_cp is host.cps[1]
    # with no point gated on, the cost prices none
    assert views_gated_at(monkeypatch, math.inf, sc, s)[0].cost_cp is None


def test_build_views_evaluates_a_gate_only_where_the_point_could_be_priced(tmp_path, monkeypatch):
    # as above, but V3 is now 4 m from the host's nearer point and V2 30 m
    # from its farther one: once the nearer point is gated, the farther
    # one cannot be priced, and the host's field is never read there
    sc = scenario_of(
        tmp_path, ("M1", "straight", "outer"), ("M2", "straight", "outer"), ("M4", "straight", "outer")
    )
    near, far = crossing_index(sc, pair_conflicts(sc))[0]
    s = [20.0, far.s_other - 30.0, near.s_other - 4.0]
    fields, reads = [], []
    real_build, real_value = runner.build_field, GaussianField.value

    def build(*args):
        fields.append(real_build(*args))
        return fields[-1]

    def value(field, x, y):
        reads.append((next(k for k, f in enumerate(fields) if f is field), x, y))
        return real_value(field, x, y)

    monkeypatch.setattr(runner, "build_field", build)
    monkeypatch.setattr(GaussianField, "value", value)
    # below every field level, each gate is decided by the viewer's own field
    host = views_gated_at(monkeypatch, -1.0, sc, s)[0]
    assert host.lv is None and host.cps == (near, far) and host.cost_cp == near
    assert [(x, y) for k, x, y in reads if k == 0] == [(near.x, near.y)]
    assert len(reads) == 3  # one gate read by each vehicle


def test_crossing_records_are_built_once_per_run(monkeypatch):
    sc = load_scenario(SCENARIOS / "case3.cfg")
    built = []

    def counted(*args):
        built.append(args)
        return CpRef(*args)

    monkeypatch.setattr(runner, "CpRef", counted)
    res = run(sc)
    points = sum(c.kind != "following" for cps in pair_conflicts(sc).values() for c in cps)
    assert points > 0 and len(res.steps) > 1
    assert len(built) == 2 * points


def test_reversing_the_vehicle_sections_changes_no_vehicle_outcome(simulate):
    """The game has no privileged vehicle.  Listing case3's vehicles in
    reverse, which reverses every index and the sweep order, leaves each
    vehicle's rows bit-identical by name.  Pooled values are summed in
    index order, so they agree to 1e-12 relative; the group residual, a
    difference of two pools, to 1e-12 of the pool."""
    text = (SCENARIOS / "case3.cfg").read_text(encoding="utf-8")
    head, *vehicles = text.split("\n[vehicle.")
    flipped = simulate(head + "".join(f"\n[vehicle.{v}" for v in reversed(vehicles)))
    res = simulate(text)
    assert flipped.names == res.names[::-1]
    assert len(flipped.steps) == len(res.steps)

    def outcome(result, row):
        lv = None if row.lv is None else result.names[row.lv]
        fields = (row.state, row.a, row.delta, row.jerk, row.role, row.s, row.p, row.terms, row.h_alloc)
        return repr((*fields, row.fallback, row.reset, lv))

    for step, flip_step, rows, flip_rows in zip(res.steps, flipped.steps, res.rows, flipped.rows):
        assert (flip_step.n_players, flip_step.max_residual, flip_step.any_reset, flip_step.all_rational) == (
            step.n_players, step.max_residual, step.any_reset, step.all_rational
        )
        assert flip_step.v_coalition == pytest.approx(step.v_coalition, rel=1e-12, abs=0.0)
        assert abs(flip_step.group_residual - step.group_residual) <= 1e-12 * abs(step.v_coalition)
        for row, flip_row in zip(rows, reversed(flip_rows)):
            assert outcome(flipped, flip_row) == outcome(res, row)
            if row.j_value is None:
                assert flip_row.j_value is None
            else:
                assert flip_row.j_value == pytest.approx(row.j_value, rel=1e-12, abs=0.0)
