"""Closed-loop simulation: roles, termination, metrics, and emitted files."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intersection_game
from intersection_game import runner
from intersection_game.dynamics import DT, WHEELBASE, WIDTH, ControlInput, VehicleState
from intersection_game.dynamics import step as integrate
from intersection_game.game import CpRef
from intersection_game.network import OV_EXIT_MARGIN, ZoneRole, classify_zone_role, conflict_points, route_for
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


def test_rms_adds_its_squares_left_to_right():
    """Each 2**-54 square is lost against 1.0 when added in order, on any
    Python; the compensated `sum()` of Python 3.12 on keeps them and reads
    0.447213595499958."""
    assert runner._rms([1.0] + [2.0**-27] * 4) == math.sqrt(0.2)


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


def _pair_by_pair(sc):
    """`pair_conflicts` and `crossing_index` built as they were before
    vehicles on equal routes shared them: `conflict_points` for every
    vehicle pair, two `_hold_margin` calls for every point."""
    routes = sc.routes
    conflicts = {}
    for i in range(len(routes)):
        for j in range(i + 1, len(routes)):
            cps = conflict_points(routes[i], routes[j])
            if cps:
                conflicts[(i, j)] = cps
    index = [[] for _ in routes]
    for (ia, ib), cps in conflicts.items():
        for c in cps:
            if c.kind == "following":
                continue
            ha = runner._hold_margin(routes[ia], routes[ib], c.s_a, c.s_b)
            hb = runner._hold_margin(routes[ib], routes[ia], c.s_b, c.s_a)
            index[ia].append(CpRef(c.s_a, ib, c.s_b, c.x, c.y, ha, hb))
            index[ib].append(CpRef(c.s_b, ia, c.s_a, c.x, c.y, hb, ha))
    for points in index:
        points.sort(key=lambda c: (c.s_self, c.partner, c.s_other))
    return conflicts, index


@pytest.mark.parametrize("layout", ["case3", "dense_n16"])
def test_conflicts_shared_by_equal_routes_equal_a_pair_by_pair_build(layout, dense, tmp_path, monkeypatch):
    """On case3 and on the 16-vehicle `perfbench/dense.py` layout of seed 1,
    whose queues put several vehicles on one route, the shared conflicts
    and crossing records repr-equal a build pair by pair, and on the
    layout the shared build calls `conflict_points` and `_hold_margin`
    fewer times."""
    path = SCENARIOS / "case3.cfg"
    if layout == "dense_n16":
        path = tmp_path / "dense.cfg"
        path.write_text(dense.layout(4, 1), encoding="utf-8")
    sc = load_scenario(path)
    want_conflicts, want_index = _pair_by_pair(sc)
    calls = {"conflict_points": 0, "_hold_margin": 0}
    for name in calls:
        real = getattr(runner, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(runner, name, counted)
    conflicts = pair_conflicts(sc)
    index = crossing_index(sc, conflicts)
    assert repr(conflicts) == repr(want_conflicts)
    assert repr(index) == repr(want_index)
    n = len(sc.routes)
    points = sum(len(points) for points in want_index)
    assert 0 < calls["conflict_points"] <= n * (n - 1) // 2 and 0 < calls["_hold_margin"] <= points
    if layout == "dense_n16":
        assert calls["conflict_points"] < n * (n - 1) // 2 and calls["_hold_margin"] < points


@pytest.mark.parametrize("layout, gating", [("case3", True), ("dense_n16", True), ("case3", False)])
def test_views_build_exactly_the_risk_fields_their_gates_read(layout, gating, dense, tmp_path, monkeypatch):
    """`build_views` builds a vehicle's risk field when a gate first reads
    it: over a run, every field built is read and none is built twice in a
    pass, and each pass's views equal those of a pass that builds every
    field first.  On case3 and the 16-vehicle `perfbench/dense.py` layout
    of seed 1 a gated run builds fewer fields than vehicles times passes;
    without risk gating it builds none."""
    path = SCENARIOS / "case3.cfg"
    if layout == "dense_n16":
        path = tmp_path / "dense.cfg"
        path.write_text(dense.layout(4, 1), encoding="utf-8")
    reads: dict = {}  # (pass, vehicle state) -> reads of the field built for it
    passes = []  # vehicles per pass

    class Eager(runner._Fields):
        def __init__(self, *args):
            super().__init__(*args)
            for i in range(len(self.states)):
                self[i]

    def counted_build(state, delta_f, kappa):
        field, key = build_field(state, delta_f, kappa), (len(passes), repr(state))
        assert key not in reads
        reads[key] = 0

        class Counted:
            def value(self, x, y):
                reads[key] += 1
                return field.value(x, y)

        return Counted()

    real_views = runner.build_views

    def checked_views(*args):
        views = real_views(*args)
        with monkeypatch.context() as m:
            m.setattr(runner, "build_field", build_field)
            m.setattr(runner, "_Fields", Eager)
            assert real_views(*args) == views
        passes.append(len(views))
        return views

    monkeypatch.setattr(runner, "build_field", counted_build)
    monkeypatch.setattr(runner, "build_views", checked_views)
    run(load_scenario(path), risk_gating=gating)
    assert len(passes) > 10
    if gating:
        assert 0 < len(reads) < sum(passes) and 0 not in reads.values()
    else:
        assert reads == {}


def _assert_order_free(simulate, text):
    """Listing the vehicles of `text` in reverse, which reverses every
    index but not the solver's name-ordered sweeps, leaves each vehicle's
    rows bit-identical by name.  Pooled values agree to 1e-12 relative;
    the group residual, a difference of two pools, to 1e-12 of the pool."""
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
    return res


def test_reversing_the_vehicle_sections_changes_no_vehicle_outcome(simulate):
    """The game has no privileged vehicle: case3 in reverse order."""
    _assert_order_free(simulate, (SCENARIOS / "case3.cfg").read_text(encoding="utf-8"))


def test_reversing_a_dense_layout_changes_no_vehicle_outcome(simulate, dense):
    """The 16-vehicle `perfbench/dense.py` layouts of seed 1, at its 3.5 s
    horizon, and of seed 2, at 4.1 s, and the 8- and 12-vehicle layouts of
    seed 1 at 3.5 s, in reverse order.  They have in-lane queues, resets
    and fallbacks, and their solvers replay `_responses` entries keyed by
    the controls of other vehicles, whose indices the reversal changes.  A
    search starts from the control its player holds, so each response
    reads those swept before it: swept in index order, every one of them
    but the 12-vehicle layout comes out differently reversed.
    In seed 2, two stopped partners queued in one lane cross a vehicle's
    route at the same point, so their points tie on partner arrival and
    own arc length, and the priced one must not be picked by the partner's
    index."""
    for per_arm, seed, t_end, steps in ((4, 1, 3.5, 35), (4, 2, 4.1, 41), (2, 1, 3.5, 35), (3, 1, 3.5, 35)):
        text = dense.layout(per_arm, seed).replace(f"t_end = {dense.HORIZON_S:g}", f"t_end = {t_end:g}")
        res = _assert_order_free(simulate, text)
        rows = [r for step_rows in res.rows for r in step_rows]
        assert len(res.names) == 4 * per_arm and len(res.steps) == steps
        assert any(r.lv is not None for r in rows) and any(r.reset for r in rows) and any(r.fallback for r in rows)


def _congested(dense, per_arm, seed):
    """The `perfbench/dense.py` layout of `per_arm` vehicles per arm and
    `seed`, run to 30 s."""
    return dense.layout(per_arm, seed).replace(f"t_end = {dense.HORIZON_S:g}", "t_end = 30")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_congested_dense_layouts_clear_within_30_s(simulate, dense, seed):
    """The 16-vehicle `perfbench/dense.py` layout of each seed, run to 30 s
    in fuzzy mode, ends before its last step, so every vehicle has
    cleared, and no step breaks a constraint.  Seed 2 gridlocked with 5
    vehicles uncleared before the step was taken in closed form, and
    again when a trial search ended its refinement at a coarser step
    (ROADMAP item 4)."""
    res = simulate(_congested(dense, 4, seed))
    assert len(res.steps) < round(30 / DT)
    assert max(s.max_residual for s in res.steps) <= 1e-6


def _bodies_overlap(a, b):
    """Whether the WHEELBASE x WIDTH rectangles centred on two states' CoGs
    and turned to their yaws overlap, by separating axes."""
    dx, dy = b.x - a.x, b.y - a.y
    if dx * dx + dy * dy >= WHEELBASE**2 + WIDTH**2:  # circumscribed circles apart
        return False
    headings = [(math.cos(s.phi), math.sin(s.phi)) for s in (a, b)]
    for ux, uy in headings + [(-hy, hx) for hx, hy in headings]:
        reach = sum(
            0.5 * WHEELBASE * abs(hx * ux + hy * uy) + 0.5 * WIDTH * abs(hx * uy - hy * ux) for hx, hy in headings
        )
        if abs(dx * ux + dy * uy) >= reach:
            return False
    return True


def _congested_counts(res):
    """(uncleared, fallback rows, breach steps, overlap rows) of a run:
    - vehicles the runner's next step would not see as cleared;
    - vehicle rows on the fallback brake;
    - steps whose `max_residual` exceeds 1e-6;
    - (step, pair) rows whose bodies overlap, neither on the fallback brake."""
    after = [integrate(r.state, ControlInput(r.a, r.delta)) for r in res.rows[-1]]
    uncleared = sum(
        classify_zone_role(route, route.project(st.x, st.y)[0]) is not ZoneRole.OV
        for route, st in zip(res.scenario.routes, after, strict=True)
    )
    fallback = sum(r.fallback for rows in res.rows for r in rows)
    breaches = sum(s.max_residual > 1e-6 for s in res.steps)
    overlaps = sum(
        _bodies_overlap(a.state, b.state)
        for rows in res.rows
        for k, a in enumerate(rows) if not a.fallback
        for b in rows[k + 1:] if not b.fallback
    )
    return uncleared, fallback, breaches, overlaps


# (vehicles, seed, mode) -> upper bounds on `_congested_counts`: uncleared,
# fallback rows, breach steps, overlap rows
_CONGESTED_PINS = {
    (8, 1, "noncoop"): (0, 6, 0, 0),
    (8, 1, "fuzzy"): (0, 3, 0, 0),
    (8, 1, "grand"): (0, 5, 0, 0),
    (8, 2, "noncoop"): (0, 6, 0, 0),
    (8, 2, "fuzzy"): (0, 3, 0, 0),
    (8, 2, "grand"): (0, 5, 0, 0),
    (8, 3, "noncoop"): (0, 6, 0, 0),
    (8, 3, "fuzzy"): (0, 3, 0, 0),
    (8, 3, "grand"): (0, 5, 0, 0),
    (12, 1, "noncoop"): (0, 2, 0, 0),
    (12, 1, "fuzzy"): (1, 68, 0, 0),
    (12, 1, "grand"): (6, 779, 0, 3),
    (12, 2, "noncoop"): (0, 2, 0, 0),
    (12, 2, "fuzzy"): (0, 2, 0, 0),
    (12, 2, "grand"): (0, 3, 0, 0),
    (12, 3, "noncoop"): (0, 2, 0, 0),
    (12, 3, "fuzzy"): (0, 6, 0, 0),
    (12, 3, "grand"): (0, 3, 0, 0),
    (16, 1, "noncoop"): (9, 1245, 1, 28),
    (16, 1, "fuzzy"): (0, 16, 0, 6),
    (16, 1, "grand"): (0, 4, 0, 0),
    (16, 2, "noncoop"): (9, 1247, 1, 28),
    (16, 2, "fuzzy"): (0, 16, 0, 5),
    (16, 2, "grand"): (0, 4, 0, 0),
    (16, 3, "noncoop"): (9, 1110, 1, 17),
    (16, 3, "fuzzy"): (0, 16, 0, 5),
    (16, 3, "grand"): (0, 5, 0, 0),
}


@pytest.mark.parametrize("key", sorted(_CONGESTED_PINS), ids=lambda key: "{2}-{0}-seed{1}".format(*key))
def test_congested_layouts_get_no_worse_in_any_mode(simulate, dense, key, capsys):
    """Each `perfbench/dense.py` layout of 8, 12 and 16 vehicles, seeds 1-3,
    run to 30 s in every mode, leaves no more vehicles uncleared, fallback
    rows, breach steps or body overlaps than `_CONGESTED_PINS` allows.  A
    change that lowers a count lowers its pin with it.  The pins hold the
    liveness that unwatched runs lost before this test (ROADMAP item 22):
    fuzzy with 12 vehicles, seed 1, once cleared in 253 steps with 6
    fallback rows."""
    n, seed, mode = key
    res = simulate(_congested(dense, n // 4, seed), mode)
    counts = _congested_counts(res)
    with capsys.disabled():
        print(f"\n{mode} {n} vehicles seed {seed}: {len(res.steps)} steps, counts {counts}")
    assert all(c <= pin for c, pin in zip(counts, _CONGESTED_PINS[key], strict=True)), (counts, _CONGESTED_PINS[key])


def test_a_run_leaves_nothing_for_the_cyclic_collector(dense, tmp_path):
    """With the collector disabled, a run of case3 and one of the 8-vehicle
    `perfbench/dense.py` layout of seed 1 leave no object in a reference
    cycle: each step's solver unlinks its vehicles, which link to it and
    to each other, before it returns."""
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(dense.layout(2, 1), encoding="utf-8")
    scenarios = [load_scenario(SCENARIOS / "case3.cfg"), load_scenario(cfg)]
    gc.collect()
    gc.disable()
    try:
        for sc in scenarios:
            run(sc)
            assert gc.collect() == 0, sc.name
    finally:
        gc.enable()


def _rotated(text):
    """`text` turned by 90 degrees counterclockwise: each start point
    (x, y) goes to (-y, x) and each road M1 -> M2 -> M3 -> M4 -> M1."""
    lines = []
    for line in text.splitlines():
        key, eq, value = line.partition(" = ")
        if key == "road":
            value = f"M{int(value[1:]) % 4 + 1}"
        elif key == "x":
            key = "y"
        elif key == "y":
            key, value = "x", repr(-float(value))
        lines.append(key + eq + value)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["case1_A", "case3"])
def test_turning_a_scenario_by_90_degrees_changes_no_vehicle_outcome(simulate, name):
    """The intersection is four-fold symmetric, so turning a scenario
    keeps each vehicle's role, leader and flags per step, and its arc
    length and speed to 1e-9.  The solver's memo keys follow each
    vehicle's crossing points in order, which the turn must not reorder."""
    text = (SCENARIOS / f"{name}.cfg").read_text(encoding="utf-8")
    turned = simulate(_rotated(text))
    res = simulate(text)
    assert turned.names == res.names
    assert len(turned.steps) == len(res.steps) > 1
    for step, turned_step, rows, turned_rows in zip(res.steps, turned.steps, res.rows, turned.rows):
        assert (turned_step.n_players, turned_step.any_reset, turned_step.all_rational) == (
            step.n_players, step.any_reset, step.all_rational
        )
        for row, turned_row in zip(rows, turned_rows, strict=True):
            assert (turned_row.role, turned_row.lv, turned_row.fallback, turned_row.reset) == (
                row.role, row.lv, row.fallback, row.reset
            )
            assert turned_row.s == pytest.approx(row.s, rel=0.0, abs=1e-9)
            assert turned_row.state.v_x == pytest.approx(row.state.v_x, rel=0.0, abs=1e-9)
