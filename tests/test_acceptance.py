"""Release gate: one test per shipped guarantee, each printing a PASS/FAIL
line that survives pytest's capture so the gate can be read off any log.

Simulation results come from the session's run cache (`simulate` in
conftest.py), so the criteria share their runs with each other and with
the golden digests.
"""

import math
import time
from pathlib import Path

from intersection_game.costs import (
    balance_weights,
    crossing_risk,
    efficiency,
    following_risk,
    lane_keeping,
)
from intersection_game.dynamics import (
    DT,
    L_R,
    WHEELBASE,
    ControlInput,
    VehicleState,
    path_curvature,
    sideslip,
    step,
)
from intersection_game.game import (
    BETA_MAX,
    CONV_TOL,
    LIMITS,
    SLEW,
    STEER_BOX,
    CostTerms,
    CpRef,
    PlayerView,
    _StepSolver,
    accel_residuals,
    coalition_costs,
    participation,
    pose_residuals,
)
from intersection_game.geometry import wrap_angle
from intersection_game.network import conflict_points, route_for
from intersection_game.risk import A0, build_field
from intersection_game.runner import emit, metrics, run
from intersection_game.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
CASE1_ALL = [f"case1_{k}" for k in "ABCDEF"]
ALL_SCENARIOS = CASE1_ALL + ["case2", "case3"]


def cfg(name):
    return (SCENARIOS / f"{name}.cfg").read_text(encoding="utf-8")


def _report(capsys, n, label, ok):
    # step outside pytest's capture so the gate lines always reach the log
    with capsys.disabled():
        print(f"[criterion {n}] {label}: {'PASS' if ok else 'FAIL'}", flush=True)


def close(got, want, tol=1e-9):
    assert abs(got - want) <= tol, f"{got} vs {want} (tol {tol})"


def test_criterion_1_unit_examples(capsys):
    ok = False
    t0 = time.perf_counter()
    try:
        # sideslip angle
        close(sideslip(0.0), 0.0)
        close(sideslip(math.radians(30.0)), 0.28103490150281357)
        close(sideslip(-0.3), -sideslip(0.3))

        # path curvature
        close(path_curvature(0.0), 0.0)
        close(path_curvature(math.radians(30.0)), 0.20619652471058064)
        close(path_curvature(-0.3), -path_curvature(0.3))

        # rear axle and turn center of the risk field's ridge
        straight = build_field(VehicleState(5.0, 0.0, 0.0, 0.0), 0.0, 0.0)
        close(straight.gx, -1.4)
        close(straight.gy, 0.0)
        assert straight.curvature == 0.0
        delta = math.atan(0.2 * WHEELBASE)
        turning = build_field(VehicleState(5.0, 0.0, 0.0, 0.0), delta, 0.0)
        close(turning.cx, turning.gx)
        close(turning.cy, turning.gy + 5.0)

        # ridge amplitude and spread of a field 3.75 m/s over the 4 s horizon
        ahead = VehicleState(3.75, 0.0, 0.0, 0.0)
        close(build_field(ahead, 0.0, 0.0).amplitude(15.0), 0.0)
        plain, bold = (build_field(ahead, 0.0, kappa) for kappa in (0.0, 1.0))
        close(plain.amplitude(0.0), 225.0 * A0, 1e-9 * A0)
        close(bold.amplitude(3.0) / plain.amplitude(3.0), math.e)
        close(build_field(ahead, 0.25, 0.0).sigma(0.0), 0.45)
        close(build_field(ahead, 0.0, 0.0).sigma(10.0), 0.95)
        close(build_field(ahead, 0.2, 0.0).sigma(10.0), 1.95)

        # field snapshot values
        f = build_field(VehicleState(3.75, 0.0, 0.0, 0.0), 0.0, 0.0)
        close(f.value(f.gx + 5.0, f.gy), 100.0 * A0, 1e-9 * A0)
        close(f.value(f.gx, f.gy), 225.0 * A0, 1e-9 * A0)
        close(f.value(f.gx + 5.0, f.gy - 1.4), 100.0 * A0 * math.exp(-2.0), 1e-9 * A0)
        close(f.value(f.gx - 1.0, f.gy), 0.0)

        # one-step motion: exact coasting, exact speed ramp, circle oracle
        s1 = step(VehicleState(5.0, 0.0, 0.0, 0.0), ControlInput(0.0, 0.0))
        close(s1.x, 0.5)
        close(s1.v_x, 5.0)
        s1 = step(VehicleState(5.0, 0.0, 0.0, 0.0), ControlInput(2.0, 0.0))
        close(s1.v_x, 5.2)
        v, d = 5.0, 0.2
        beta = sideslip(d)
        omega = v * math.tan(beta) / L_R
        radius = (v / math.cos(beta)) / omega
        st = VehicleState(v, 0.0, 0.0, 0.0)
        worst = 0.0
        for k in range(1, 101):
            st = step(st, ControlInput(0.0, d))
            t = k * DT
            xe = radius * (math.sin(beta + omega * t) - math.sin(beta))
            ye = radius * (math.cos(beta) - math.cos(beta + omega * t))
            worst = max(worst, math.hypot(st.x - xe, st.y - ye))
        assert worst <= 1e-6, f"circle oracle error {worst}"

        # participation and the safety/efficiency split
        close(participation(0.0), 1.0)
        close(participation(1.0), 0.04321391826377226)
        close(participation(0.5), participation(-0.5))
        k_s, k_e = balance_weights(0.0)
        close(k_s, 0.5)
        close(k_e, 0.5)
        k_s, k_e = balance_weights(1.0)
        close(k_s, 0.11920292202211757)
        close(k_e, 0.8807970779778825)
        m_s, m_e = balance_weights(-1.0)
        close(m_s, k_e)
        close(m_e, k_s)

        # risk and efficiency terms
        close(following_risk(4.0, 5.0, 10.0), 0.0)
        close(following_risk(6.0, 4.0, 10.0), 0.04)
        close(following_risk(5.0, 5.0, 10.0), 0.0)
        close(crossing_risk(2.0, 1.0, 2.0, 1.0), 100.0)
        close(crossing_risk(2.0, 1.0, 4.0, 1.0), 0.24937655860349128)
        close(crossing_risk(2.0, 1.0, 4.0, 0.0), 0.0)
        close(lane_keeping(0.0, 0.0), 0.0)
        close(lane_keeping(0.1, 0.01), 0.018)
        close(lane_keeping(0.2, 0.0), 0.04)
        close(efficiency(12.0, 6.0), 4.0)
        close(efficiency(12.0, 12.0), 1.0)
        close(efficiency(0.0, 6.0), 0.0)

        # sideslip bound and the induced steering box
        close(BETA_MAX, 0.1652492162701235)
        close(sideslip(STEER_BOX), BETA_MAX)
        assert STEER_BOX <= LIMITS.delta_max

        # pooled-loss split and the blended objective
        pooled, _, kept = coalition_costs((2.0, 4.0), (0.5, 0.25))
        close(pooled, 2.0)
        close(kept[0], 1.0)
        close(kept[1], 3.0)
        close(coalition_costs((2.0, 4.0), (0.0, 0.0))[0], 0.0)
        close(coalition_costs((2.0, 4.0), (1.0, 1.0))[0], 6.0)
        alloc = coalition_costs((2.0, 4.0), (0.5, 0.5))[1]
        close(alloc[0], 1.0)
        close(alloc[1], 2.0)
        close(CostTerms(0.0, 0.0, 2.0, 4.0, 0.0, 0.0, 0.5, 0.5).total, 3.0)
        close(CostTerms(5.0, 7.0, 1.5, 0.0, 0.0, 0.0, 0.5, 0.5).total, 0.75)
        close(CostTerms(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5).total, 0.0)

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"unit examples took {elapsed:.3f} s"
        ok = True
    finally:
        _report(capsys, 1, "closed-form and integrator unit examples", ok)


def _active_rows(res):
    return [r for step_rows in res.rows for r in step_rows if r.role != "OV"]


def test_criterion_2_degenerate_games_match_pure_modes(capsys, simulate):
    ok = False
    try:
        for name in ("case1_A", "case2", "case3"):
            runs = {mode: simulate(cfg(name), mode=mode) for mode in ("noncoop", "grand")}
            noncoop = _active_rows(runs["noncoop"])
            grand = _active_rows(runs["grand"])
            assert all(r.p == 0.0 and not r.reset for r in noncoop), f"{name}: noncoop row with p > 0 or a reset"
            # a player still infeasible after the sweeps leaves the coalition for that step
            assert all(r.p == 1.0 or (r.reset and r.p == 0.0) for r in grand), f"{name}: grand row off p = 1"
            # each run's own wall time, whichever test first made it
            for mode, res in runs.items():
                assert res.wall_time < 60.0, f"{name}/{mode}: took {res.wall_time:.1f} s"
        ok = True
    finally:
        _report(capsys, 2, "participation 0/1 reproduces the pure modes", ok)


def test_criterion_3_constraints_hold_everywhere(capsys, simulate):
    ok = False
    try:
        for name in ALL_SCENARIOS:
            for mode in ("noncoop", "fuzzy", "grand"):
                m = metrics(simulate(cfg(name), mode=mode))
                res = m["max_constraint_residual"]
                assert res <= 1e-6, f"{name}/{mode}: residual {res}"
                assert m["rationality"]["emergencies"] == 0, f"{name}/{mode}: emergency braking"
                for pair, rec in m["pairs"].items():
                    ttc = rec["min_ttc"]
                    assert ttc is None or ttc >= 1.5, f"{name}/{mode} {pair}: ttc {ttc}"
        ok = True
    finally:
        _report(capsys, 3, "hard-bound residuals and pair TTC floors on all scenarios", ok)


def test_criterion_4_qualitative_orderings(capsys, simulate):
    ok = False
    used = []

    def metrics_of(name, mode):
        res = simulate(cfg(name), mode=mode)
        used.append(res)
        return metrics(res)

    try:
        rms_e = metrics_of("case1_E", "fuzzy")["system_velocity_rms"]
        rms_f = metrics_of("case1_F", "fuzzy")["system_velocity_rms"]
        assert rms_f > rms_e, f"aggressive mix {rms_f} not above timid mix {rms_e}"

        by_mode = {m: metrics_of("case2", m)["system_velocity_rms"] for m in ("noncoop", "fuzzy", "grand")}
        assert by_mode["grand"] >= by_mode["fuzzy"] >= by_mode["noncoop"], by_mode

        v1_timid = metrics_of("case1_A", "fuzzy")["vehicles"]["V1"]["v_rms"]
        v1_bold = metrics_of("case1_C", "fuzzy")["vehicles"]["V1"]["v_rms"]
        assert v1_bold > v1_timid, f"V1 rms {v1_bold} not above {v1_timid}"

        # the runs' own wall times, whichever test first made them
        elapsed = sum(res.wall_time for res in used)
        assert elapsed < 300.0, f"ordering runs took {elapsed:.0f} s"
        ok = True
    finally:
        _report(capsys, 4, "style and mode orderings on system/vehicle velocity RMS", ok)


def _mean_evals(res):
    return sum(s.evals for s in res.steps) / len(res.steps)


def test_criterion_5_gating_speeds_up_the_solver(capsys, simulate):
    """Gating buys less decision-making work: fewer candidate evaluations
    per step, and fewer lateral risk terms priced.  The two variants drive
    different trajectories, so their solve times compare different runs,
    and wall time swings from run to run; so the check counts work.
    `intersection-game run` prints both the mean solve time and the mean
    evaluations per step (case1_A 395.8 gated, 451.5 ungated; case3 742.2
    and 1036.2), with and without `--no-risk-gating`; the crossing-risk
    terms priced are 12,417 against 40,338 on case1_A and 42,638 against
    140,139 on case3."""
    ok = False
    try:
        for name in ("case1_A", "case3"):
            gated = simulate(cfg(name))
            ungated = simulate(cfg(name), risk_gating=False)
            assert ungated.risk_gating is False
            assert _mean_evals(gated) < _mean_evals(ungated), f"{name}: evals per step"
            lateral = [sum(s.lateral_evals for s in res.steps) for res in (gated, ungated)]
            assert lateral[0] < lateral[1], f"{name}: lateral evals {lateral}"
        ok = True
    finally:
        _report(capsys, 5, "risk gating cuts decision-making work per step", ok)


def test_criterion_6_conflict_topology(capsys):
    ok = False
    try:
        sc = load_scenario(SCENARIOS / "case3.cfg")
        pairs = set()
        n = len(sc.routes)
        for i in range(n):
            for j in range(i + 1, n):
                if conflict_points(sc.routes[i], sc.routes[j]):
                    pairs.add((i, j))
        assert pairs == {
            (0, 2), (0, 5), (0, 6), (1, 2), (1, 3),
            (1, 4), (2, 4), (4, 6), (5, 6), (5, 7),
        }, pairs

        red = route_for(30.0, "M1", "left", "inner")
        occupied = tuple(
            route_for(30.0, arm, "straight", lane)
            for arm, lane in (("M4", "outer"), ("M4", "inner"), ("M3", "inner"), ("M3", "outer"), ("M2", "inner"))
        )
        found = [c for other in occupied for c in conflict_points(red, other)]
        n_cross = sum(1 for c in found if c.kind == "cross")
        n_follow = sum(1 for c in found if c.kind == "following")
        assert n_cross == 4, f"{n_cross} crossings"
        assert n_follow == 1, f"{n_follow} following conflicts"
        ok = True
    finally:
        _report(capsys, 6, "ten pairwise conflicts and the left-turn 4+1 pattern", ok)


def test_criterion_7_property_suite(capsys):
    ok = False
    try:
        # field support and on-vehicle level grow with speed
        for v1, v2 in ((1.0, 3.0), (3.0, 5.0), (5.0, 7.5)):
            f1 = build_field(VehicleState(v1, 0.0, 0.0, 0.0), 0.0, 0.0)
            f2 = build_field(VehicleState(v2, 0.0, 0.0, 0.0), 0.0, 0.0)
            assert f2.support > f1.support
            assert f2.value(f2.gx, f2.gy) > f1.value(f1.gx, f1.gy)

        # under steering, the field is maximal on the predicted arc
        f = build_field(VehicleState(5.0, 0.0, 0.0, 0.0), 0.3, 0.0)
        assert f.curvature != 0.0
        rho = f.curvature
        px, py = f.gx + math.sin(5.0 * rho) / rho, f.gy + (1.0 - math.cos(5.0 * rho)) / rho
        nx, ny = px - f.cx, py - f.cy
        nn = math.hypot(nx, ny)
        on_ridge = f.value(px, py)
        for t in (-1.0, -0.4, 0.4, 1.0):
            assert f.value(px + t * nx / nn, py + t * ny / nn) < on_ridge

        # the two blend weights always partition one
        for i in range(201):
            kappa = -1.0 + i / 100.0
            k_s, k_e = balance_weights(kappa)
            assert abs(k_s + k_e - 1.0) <= 1e-12

        # participation is symmetric with its peak at the neutral style
        for kappa in (0.1, 0.35, 0.7, 1.0):
            assert participation(kappa) == participation(-kappa)
            assert participation(kappa) < participation(0.0)

        # solved controls are local best responses for both players
        solver = _StepSolver(_toy_crossing_views(), True)
        sol = solver.solve()
        for i in (0, 1):
            a_star, d_star = sol.controls[i]
            v = solver.vehicles[i]
            _, scored, table = v._scored_for()
            base = v._rank(a_star, d_star, v.p, scored, table)
            assert base[0] == 0.0
            lo, hi = v._grid[:2]
            for da, dd in ((0.1, 0.0), (-0.1, 0.0), (0.0, 0.02), (0.0, -0.02)):
                a = min(max(a_star + da, lo), hi)
                d = min(max(d_star + dd, -STEER_BOX), STEER_BOX)
                if (a, d) == (a_star, d_star):
                    continue
                key = v._rank(a, d, v.p, scored, table)
                if key[0] == 0.0:
                    assert key[1] >= base[1] - CONV_TOL

        # identical inputs emit identical bytes
        sc = load_scenario(SCENARIOS / "case1_A.cfg")
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            a, b = Path(td) / "a", Path(td) / "b"
            emit(run(sc), a)
            emit(run(sc), b)
            for fname in (
                "trace.csv", "steps.csv", "series_path_length.csv",
                "series_velocity.csv", "metrics.json",
            ):
                assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname
        ok = True
    finally:
        _report(capsys, 7, "field, blend, participation, stability, determinism properties", ok)


def _toy_crossing_views():
    ra = route_for(30.0, "M1", "straight", "outer")
    rb = route_for(30.0, "M2", "straight", "outer")
    cp_a = CpRef(s_self=46.0, partner=1, s_other=34.0, x=6.0, y=-6.0, hold_self=3.5, hold_other=3.5)
    cp_b = CpRef(s_self=34.0, partner=0, s_other=46.0, x=6.0, y=-6.0, hold_self=3.5, hold_other=3.5)
    va = PlayerView(
        route=ra, state=VehicleState(5.0, 0.0, *ra.point_at(26.0)),
        kappa=0.0, p=1.0, a_prev=0.0, delta_prev=0.0, player=True, coast=(0.0, 0.0),
        cps=(cp_a,), cost_cp=cp_a,
    )
    vb = PlayerView(
        route=rb, state=VehicleState(4.0, 0.5 * math.pi, *rb.point_at(20.0)),
        kappa=0.0, p=1.0, a_prev=0.0, delta_prev=0.0, player=True, coast=(0.0, 0.0),
        cps=(cp_b,), cost_cp=cp_b,
    )
    return [va, vb]


SOLO_CFG = """\
[scenario]
version = 1
name = solo
t_end = 20
dt = 0.1

[vehicle.V1]
road = M1
maneuver = straight
lane = outer
x = -35
y = -6
v = 5
kappa = 0
"""


def test_criterion_8_single_vehicle_saturates_the_speed_limit(capsys, simulate):
    ok = False
    try:
        res = simulate(SOLO_CFG)
        sc = res.scenario
        m = metrics(res)
        v_max = m["vehicles"]["V1"]["v_max"]
        assert v_max <= 8.0 + 1e-9, f"speed limit broken: {v_max}"
        assert v_max >= 8.0 - 0.01, f"never saturated: {v_max}"
        tail = [sr[0].state.v_x for sr in res.rows[-10:]]
        assert all(v >= 8.0 - 0.01 for v in tail), tail
        assert m["max_constraint_residual"] <= 1e-6
        assert m["rationality"]["emergencies"] == 0

        # replay one accelerating step against an exhaustive control grid
        k = 10
        row, prev = res.rows[k][0], res.rows[k - 1][0]
        route = sc.routes[0]
        k_s, k_e = balance_weights(0.0)

        def cost_of(a, d):
            pred = step(row.state, ControlInput(a, d))
            s_pred, dy, heading = route.project(pred.x, pred.y)
            dphi = wrap_angle(pred.phi + sideslip(d) - heading)
            if max(accel_residuals(a, prev.a, pred.v_x) + pose_residuals(d, dy, dphi)) > 1e-9:
                return math.inf
            gap = max(min(route.total_length - s_pred, 50.0), 0.0)
            return k_s * lane_keeping(dy, dphi) + k_e * efficiency(gap, pred.v_x)

        best_cost, best_a = math.inf, None
        for ia in range(81):
            a = prev.a - SLEW + ia * (2.0 * SLEW / 80.0)
            for idg in range(-32, 33):
                c = cost_of(a, STEER_BOX * idg / 32.0)
                if c < best_cost:
                    best_cost, best_a = c, a
        got = cost_of(row.a, row.delta)
        assert got <= best_cost + 1e-9, f"solver {got} vs grid {best_cost}"
        assert abs(row.a - best_a) <= 2.0 * SLEW / 80.0 + 1e-9
        ok = True
    finally:
        _report(capsys, 8, "unobstructed vehicle reaches and holds the 8 m/s cap", ok)
