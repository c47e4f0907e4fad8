"""Participation, cost pooling, hard bounds, reachability, and the step solver."""

import csv
import dataclasses
import math
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intersection_game import game, geometry, runner
from intersection_game.costs import STOPPED, arrival_time, balance_weights, blended_loss, efficiency, lane_keeping
from intersection_game.dynamics import (
    WHEELBASE,
    ControlInput,
    VehicleState,
    sideslip,
    step,
    step_speed,
)
from intersection_game.game import (
    BOUND_NAMES,
    CONV_TOL,
    FEAS_SLACK,
    MAX_SWEEPS,
    BETA_MAX,
    LIMITS as L,
    STEER_BOX,
    TTC_GUARD,
    _SLACK_FLOOR,
    CpRef,
    PlayerView,
    _StepSolver,
    accel_residuals,
    brake_reach,
    closing_ttc,
    coalition_costs,
    follow_reach,
    participation,
    pose_residuals,
    solve_step,
    stop_distance,
    tracking_delta,
)
from intersection_game.geometry import Arc, wrap_angle
from intersection_game.network import Route, route_for
from intersection_game.scenario import load_scenario

APPROACH = 30.0  # m, the loader's default approach length


def test_participation_values():
    assert participation(0.0) == 1.0
    assert participation(1.0) == pytest.approx(0.04321391826377226, abs=1e-12)
    assert participation(0.5) == participation(-0.5) == pytest.approx(
        0.45593812776599624, abs=1e-12
    )


def test_participation_rejects_out_of_range():
    with pytest.raises(ValueError):
        participation(1.5)
    with pytest.raises(ValueError):
        participation(-1.01)


def test_coalition_costs_splits():
    pooled, shares, kept = coalition_costs((2.0, 4.0), (0.5, 0.25))
    assert pooled == pytest.approx(2.0)
    assert shares == pytest.approx([1.0, 1.0])
    assert kept == pytest.approx([1.0, 3.0])
    pooled, shares, kept = coalition_costs((2.0, 4.0), (0.0, 0.0))
    assert pooled == 0.0
    assert shares == [0.0, 0.0]
    assert kept == [2.0, 4.0]
    pooled, shares, kept = coalition_costs((2.0, 4.0), (1.0, 1.0))
    assert pooled == pytest.approx(6.0)
    assert shares == [2.0, 4.0]
    assert kept == [0.0, 0.0]


def test_coalition_costs_rejects_length_mismatch():
    with pytest.raises(ValueError):
        coalition_costs((1.0, 2.0), (0.5,))


def test_allocate_example():
    """Each member is charged back exactly the share it pooled."""
    assert coalition_costs((2.0, 4.0), (0.5, 0.5))[1] == pytest.approx([1.0, 2.0])


@given(
    values=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6),
    data=st.data(),
)
def test_allocation_sums_to_pool(values, data):
    p = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(values), max_size=len(values),
        )
    )
    pooled, shares, kept = coalition_costs(values, p)
    assert sum(shares) == pytest.approx(pooled, abs=1e-9)
    for vi, share, own in zip(values, shares, kept):
        assert share + own == pytest.approx(vi, abs=1e-9)


def test_sideslip_bound_and_steer_box():
    assert BETA_MAX == pytest.approx(0.1652492162701235, abs=1e-12)
    assert STEER_BOX <= L.delta_max
    # the box is exactly the steering that produces the sideslip bound
    assert sideslip(STEER_BOX) == pytest.approx(BETA_MAX, abs=1e-12)


def _bounds(a, delta, a_prev, v_next, dy, dphi):
    """Every bound's slack, ordered as BOUND_NAMES."""
    return accel_residuals(a, a_prev, v_next) + pose_residuals(delta, dy, dphi)


def test_bound_residuals_all_slack_when_coasting():
    res = _bounds(0.0, 0.0, 0.0, 4.0, 0.0, 0.0)
    assert len(res) == len(BOUND_NAMES) == 6
    assert all(r <= 0.0 for r in res)


def test_bound_residuals_flag_each_limit():
    i_acc = BOUND_NAMES.index("accel")
    i_jerk = BOUND_NAMES.index("jerk")
    i_steer = BOUND_NAMES.index("steer")
    i_speed = BOUND_NAMES.index("speed")
    i_lane = BOUND_NAMES.index("lane")
    i_course = BOUND_NAMES.index("course")

    res = _bounds(9.0, 0.0, 9.0, 5.0, 0.0, 0.0)
    assert res[i_acc] == pytest.approx(1.0)
    res = _bounds(0.3, 0.0, 0.0, 5.0, 0.0, 0.0)
    assert res[i_jerk] == pytest.approx(1.0)
    res = _bounds(0.0, 0.4, 0.0, 5.0, 0.0, 0.0)
    assert res[i_steer] == pytest.approx(0.4 - STEER_BOX)
    res = _bounds(0.0, 0.0, 0.0, 8.5, 0.0, 0.0)
    assert res[i_speed] == pytest.approx(0.5)
    res = _bounds(0.0, 0.0, 0.0, 5.0, 0.3, 0.0)
    assert res[i_lane] == pytest.approx(0.1)
    res = _bounds(0.0, 0.0, 0.0, 5.0, 0.0, math.radians(3.0))
    assert res[i_course] == pytest.approx(math.radians(1.0))


def test_speed_residual_guards_the_whole_ramp_down():
    # 7.9 m/s now, still pushing 1 m/s^2: the jerk-limited backout peaks at 8.1
    res = _bounds(1.0, 0.0, 1.0, 7.9, 0.0, 0.0)
    assert res[BOUND_NAMES.index("speed")] == pytest.approx(0.1, abs=1e-12)
    assert all(r <= 0.0 for k, r in enumerate(res) if k != BOUND_NAMES.index("speed"))


def test_closing_ttc_cases():
    assert closing_ttc(0.0, 0.0, 2.0, 0.0, 10.0, 0.0, 0.0, 0.0) == pytest.approx(5.0)
    assert closing_ttc(0.0, 0.0, 1.0, 0.0, 10.0, 0.0, 3.0, 0.0) == math.inf
    assert closing_ttc(1.0, 2.0, 1.0, 0.0, 1.0, 2.0, -1.0, 0.0) == 0.0


def test_stop_distance_values():
    assert stop_distance(0.0, 0.0) == 0.0
    assert stop_distance(5.5, 0.0) == pytest.approx(8.59909555967629, abs=1e-9)


@given(
    v0=st.floats(min_value=0.0, max_value=8.0),
    dv=st.floats(min_value=0.05, max_value=3.0),
    a0=st.floats(min_value=0.0, max_value=3.0),
    da=st.floats(min_value=0.05, max_value=2.0),
)
def test_stop_distance_monotone(v0, dv, a0, da):
    assert stop_distance(v0 + dv, a0) > stop_distance(v0, a0)
    assert stop_distance(v0, a0 + da) > stop_distance(v0, a0)


def test_brake_reach_is_margin_plus_stop():
    for v0, a0 in ((5.5, 0.0), (8.0, 1.0), (0.0, 0.0)):
        assert brake_reach(v0, a0, 3.5) == pytest.approx(3.5 + stop_distance(v0, a0))


def test_follow_reach_against_leader_speeds():
    # a parked leader needs at least the full braking room
    assert follow_reach(5.5, 0.0, 0.0, 1.5, 3.5) >= brake_reach(5.5, 0.0, 3.5)
    # a faster leader never closes: only the standstill margin remains
    assert follow_reach(5.0, 0.0, 10.0, 1.5, 3.5) == pytest.approx(3.5)


def _stop_state(v0, a0, tau):
    """(speed, distance) tau into the max-effort stop, written out here
    as the reference for follow_reach."""
    j, am = L.jerk_max, L.a_max
    tau_r = max((a0 + am) / j, 0.0)
    if tau <= tau_r:
        return v0 + a0 * tau - 0.5 * j * tau**2, v0 * tau + 0.5 * a0 * tau**2 - j * tau**3 / 6.0
    v_r = v0 + a0 * tau_r - 0.5 * j * tau_r**2
    x_r = v0 * tau_r + 0.5 * a0 * tau_r**2 - j * tau_r**3 / 6.0
    d = tau - tau_r
    return v_r - am * d, x_r + v_r * d - 0.5 * am * d * d


def _sampled_need(v0, a0, v_lead, ttc_floor, taus):
    need = -math.inf
    for tau in taus:
        v, x = _stop_state(v0, a0, tau)
        need = max(need, x - v_lead * tau + 3.5 + ttc_floor * max(max(v, 0.0) - v_lead, 0.0))
    return need


def _half_step_taus(v0, a0, dt):
    """Every dt/2 into the stop until the speed runs out."""
    tau = 0.0
    while tau == 0.0 or _stop_state(v0, a0, tau)[0] > 0.0:
        yield tau
        tau += 0.5 * dt


@given(
    v0=st.floats(min_value=0.0, max_value=8.0),
    a0=st.floats(min_value=-8.0, max_value=8.0),
    v_lead=st.floats(min_value=0.0, max_value=8.0),
    ttc_floor=st.sampled_from([0.0, 1.55]),
)
@example(v0=7.0, a0=-2.0, v_lead=0.0, ttc_floor=1.55)  # the dt/2 samples' worst shortfall at dt 0.1
@settings(max_examples=30, deadline=None)
def test_follow_reach_is_the_exact_maximum_over_the_stop(v0, a0, v_lead, ttc_floor):
    exact = follow_reach(v0, a0, v_lead, ttc_floor, 3.5)
    for dt in (0.1, 0.01, 0.001):
        assert exact >= _sampled_need(v0, a0, v_lead, ttc_floor, _half_step_taus(v0, a0, dt)) - 1e-12
    tau_s = game._stop_closed_form(v0, a0)[3]
    dense = [tau_s * k / 19_999 for k in range(20_000)]
    assert exact <= _sampled_need(v0, a0, v_lead, ttc_floor, dense) + 1e-6


def test_tracking_delta_straight_and_arc():
    straight = route_for(APPROACH, "M1", "straight", "outer")
    assert tracking_delta(straight, 20.0, 5.0) == 0.0
    left = route_for(APPROACH, "M1", "left")
    d = tracking_delta(left, 40.0, 0.0)
    assert d == pytest.approx(math.atan(WHEELBASE / left.elements[1].radius))


def test_tracking_delta_clipped_by_steer_box():
    # the fixed network's tightest turn, the 9 m right turn, stays inside
    # the box, so the clip is checked on a 7 m arc built here
    right = route_for(APPROACH, "M2", "right")
    assert abs(math.atan(WHEELBASE / right.elements[1].radius)) < STEER_BOX
    arc = Arc(0.0, 0.0, 7.0, 0.0, -0.5 * math.pi)
    r = Route("arc7", "outer", (arc,), (0.0,), arc.length, 0.0, arc.length)
    arc_mid = 0.5 * arc.length
    d = tracking_delta(r, arc_mid, 0.0)
    assert abs(d) == pytest.approx(STEER_BOX)
    assert abs(math.atan(r.curvature_at(arc_mid) * WHEELBASE)) > abs(d)


def _single_view(v=5.0, s=20.0):
    route = route_for(APPROACH, "M1", "straight", "outer")
    x, y = route.point_at(s)
    state = VehicleState(v, 0.0, x, y)
    return PlayerView(
        route=route, state=state, kappa=0.0, p=participation(0.0),
        a_prev=0.0, delta_prev=0.0, player=True, coast=(0.0, 0.0),
    )


def test_single_vehicle_accelerates_straight():
    sol = solve_step([_single_view()])
    a, d = sol.controls[0]
    # jerk slew allows 0.2 at most and the headway cost rewards speed
    assert a == pytest.approx(0.2, abs=1e-9)
    assert d == pytest.approx(0.0, abs=1e-9)
    assert not sol.emergency[0] and not sol.reset[0]
    assert sol.rational[0]
    assert sol.max_constraint_residual <= 1e-6


def test_single_vehicle_matches_exhaustive_grid():
    view = _single_view()
    sol = solve_step([view])
    sb = STEER_BOX
    k_s, k_e = balance_weights(0.0)
    best = math.inf
    for ia in range(-20, 21):
        a = 0.01 * ia
        for idg in range(-32, 33):
            d = sb * idg / 32.0
            pred = step(view.state, ControlInput(a, d))
            s_pred, dy, heading = view.route.project(pred.x, pred.y)
            dphi = wrap_angle(pred.phi + sideslip(d) - heading)
            if max(_bounds(a, d, 0.0, pred.v_x, dy, dphi)) > 1e-9:
                continue
            gap = max(min(view.route.total_length - s_pred, 50.0), 0.0)
            cost = k_s * lane_keeping(dy, dphi) + k_e * efficiency(gap, pred.v_x)
            best = min(best, cost)
    assert sol.terms[0].total == pytest.approx(best, abs=1e-9)


def test_search_ranks_a_small_seed_grid_then_polls_axis_neighbours(monkeypatch):
    """A fresh search ranks the control the player holds, then its seeds,
    at most 4 accelerations x 3 steers (0, the previous steer and the
    tracking steer) less the held control when it is one, and then only the
    incumbent's neighbours along one axis: each control its pattern step
    ranks differs from the incumbent in exactly one of a and delta, by
    that axis's step unless the box clamps it.  The first poll round uses
    the finest steps, 0.05 m/s^2 and 1 deg over 4^4.  After an accepted
    move the moved axis's step is 4 times the last, at most 0.05 m/s^2 or
    1 deg, and the other's is unchanged; after a round with no better
    control both are a quarter of the last, at least the finest, and the
    search ends on such a round at the finest steps.

    The follower, 10.95 m behind a slower leader with a heading error,
    moves along both axes and grows each step to its cap."""
    route = route_for(APPROACH, "M1", "straight", "outer")
    x, y = route.point_at(20.0)
    follower = PlayerView(
        route=route, state=VehicleState(5.0, 0.03, x, y), kappa=0.0, p=participation(0.0),
        a_prev=-1.0, delta_prev=0.01, player=True, coast=(0.0, -0.02), lv=1, lv_gated=True,
    )
    x, y = route.point_at(30.95)
    leader = PlayerView(
        route=route, state=VehicleState(3.0, 0.0, x, y), kappa=0.0, p=participation(0.0),
        a_prev=0.0, delta_prev=0.0, player=False, coast=(0.0, 0.0),
    )
    solver = _StepSolver([follower, leader], True)
    seeded, polled = [], []
    real_rank = solver._rank

    def recording_rank(i, a, d, *args):
        search = sys._getframe(1).f_locals  # `_best_response`'s frame
        if "da" in search:  # the pattern step has begun
            polled.append(((a, d), (search["ba"], search["bd"], search["da"], search["dd"], search["moves"])))
        else:
            seeded.append((a, d))
        return real_rank(i, a, d, *args)

    monkeypatch.setattr(solver, "_rank", recording_rank)
    held = solver.controls[0]
    found = solver._best_response(0, solver.p[0])[:2]
    a_lo, a_hi, seeds = solver._grid[0]
    assert held == (-1.0, 0.01) and held in seeds
    assert seeded == [held] + [seed for seed in seeds if seed != held]
    assert len(set(seeded)) == len(seeded) <= 12
    assert {d for _, d in seeded} == {0.0, 0.01, -0.02}
    for (a, d), (ba, bd, da, dd, _) in polled:
        assert (a != ba) + (d != bd) == 1
        if a != ba:
            assert a in (a_lo, a_hi) or abs(a - ba) == pytest.approx(da, rel=1e-9)
        else:
            assert d in (-STEER_BOX, STEER_BOX) or abs(d - bd) == pytest.approx(dd, rel=1e-9)
    # one entry per poll round: (incumbent a, incumbent delta, da, dd, moves
    # so far); a round whose polls the memo all answered would be missing
    # and break the chain of steps checked below
    rounds = list(dict.fromkeys(state for _, state in polled))
    fine = (0.05 * 0.25**4, math.radians(1.0) * 0.25**4)
    coarse = (0.05, math.radians(1.0))
    assert rounds[0][2:4] == fine
    grown, capped, shrunk = [0, 0], 0, 0
    for (ba, bd, da, dd, moves), (na, nd, nda, ndd, next_moves) in zip(rounds, rounds[1:]):
        if (na, nd) == (ba, bd):
            assert next_moves == moves
            assert (nda, ndd) == (max(0.25 * da, fine[0]), max(0.25 * dd, fine[1]))
            shrunk += 1
            continue
        assert next_moves == moves + 1
        axis = 0 if na != ba else 1
        last, step = (da, dd)[axis], (nda, ndd)[axis]
        assert step == min(4.0 * last, coarse[axis])
        assert (nda, ndd)[1 - axis] == (da, dd)[1 - axis]
        grown[axis] += 1
        capped += step == last
    assert min(grown) >= 3 and capped >= 1 and shrunk >= 3
    assert rounds[-1][2:4] == fine and rounds[-1][:2] == found and rounds[-1][4] < 200


def _crossing_views():
    ra = route_for(APPROACH, "M1", "straight", "outer")
    rb = route_for(APPROACH, "M2", "straight", "outer")
    sa, sb_ = 26.0, 20.0
    cp_a = CpRef(s_self=46.0, partner=1, s_other=34.0, x=6.0, y=-6.0, hold_self=3.5, hold_other=3.5)
    cp_b = CpRef(s_self=34.0, partner=0, s_other=46.0, x=6.0, y=-6.0, hold_self=3.5, hold_other=3.5)
    va = PlayerView(
        route=ra, state=VehicleState(5.0, 0.0, *ra.point_at(sa)),
        kappa=0.0, p=1.0, a_prev=0.0, delta_prev=0.0, player=True,
        coast=(0.0, 0.0), cps=(cp_a,), cost_cp=cp_a,
    )
    vb = PlayerView(
        route=rb, state=VehicleState(4.0, 0.5 * math.pi, *rb.point_at(sb_)),
        kappa=0.0, p=1.0, a_prev=0.0, delta_prev=0.0, player=True,
        coast=(0.0, 0.0), cps=(cp_b,), cost_cp=cp_b,
    )
    return [va, vb]


def test_crossing_pair_solves_cleanly():
    sol = solve_step(_crossing_views())
    assert sol.emergency == [False, False]
    assert sol.max_constraint_residual <= 1e-6
    assert sol.sweeps <= MAX_SWEEPS


def test_solved_controls_are_best_responses():
    solver = _StepSolver(_crossing_views(), True)
    sol = solver.solve()
    for i in (0, 1):
        a_star, d_star = sol.controls[i]
        _, scored, table = solver._scored_for(i)
        base = solver._rank(i, a_star, d_star, solver.p[i], scored, table)
        assert base[0] == 0.0
        lo, hi = solver._grid[i][:2]
        for da, dd in (
            (0.1, 0.0), (-0.1, 0.0), (0.0, math.radians(1.0)), (0.0, -math.radians(1.0)),
        ):
            a = min(max(a_star + da, lo), hi)
            d = min(max(d_star + dd, -STEER_BOX), STEER_BOX)
            if (a, d) == (a_star, d_star):
                continue
            key = solver._rank(i, a, d, solver.p[i], scored, table)
            if key[0] == 0.0:
                assert key[1] >= base[1] - CONV_TOL


def test_best_response_is_reused_until_a_partner_moves(monkeypatch):
    """Asking again against the same partner controls ranks nothing and
    adds no eval; once a partner moves, the search runs again, counts one
    eval per ranking and agrees with a fresh solver at those controls."""
    solver = _StepSolver(_crossing_views(), True)
    solver.solve()
    ranked = _count_ranks(monkeypatch, solver)

    def ask(s, i, p_i):
        evals, lateral, n = s.evals, s.lateral_evals, ranked[0]
        answer = s._best_response(i, p_i)
        return answer, s.evals - evals, s.lateral_evals - lateral, ranked[0] - n

    for i in (0, 1):
        for p_i in (solver.p[i], 0.0):
            first = ask(solver, i, p_i)
            assert first[1] == first[3]
            assert ask(solver, i, p_i) == (first[0], 0, 0, 0)

    for i, k in ((0, 1), (1, 0)):
        a_k, d_k = solver.controls[k]
        solver.controls[k] = (a_k - 0.1, d_k)
        solver._refresh_pred(k)
        fresh = _StepSolver(_crossing_views(), True)
        fresh.p = list(solver.p)
        fresh.controls = list(solver.controls)
        for j in range(fresh.n):
            fresh._refresh_pred(j)
        for p_i in (solver.p[i], 0.0):
            moved = ask(solver, i, p_i)
            assert moved[3] > 0 and moved[1] == moved[3]
            evals, lateral = fresh.evals, fresh.lateral_evals
            assert moved[0] == fresh._best_response(i, p_i)
            assert moved[1:3] == (fresh.evals - evals, fresh.lateral_evals - lateral)


def _near_and_far_views():
    """A host crossing the paths of two coasting non-players: one 3 m
    short of its point, whose row is kept, and one 25 m short at 6 m/s,
    which can stop well short of it, so its row is dropped."""
    host_route = route_for(APPROACH, "M1", "straight", "outer")
    views, cps = [], []
    for k, (road, s, v, ahead) in enumerate((("M2", 31.0, 4.0, 3.0), ("M3", 5.0, 6.0, 25.0)), start=1):
        route = route_for(APPROACH, road, "straight", "inner")
        x, y = route.point_at(s)
        views.append(PlayerView(
            route=route, state=VehicleState(v, route.project(x, y)[2], x, y), kappa=0.0, p=1.0,
            a_prev=0.0, delta_prev=0.0, player=False, coast=(0.0, 0.0),
        ))
        cps.append(CpRef(40.0 + k, k, s + ahead, *host_route.point_at(40.0 + k), 3.5, 2.0))
    host = PlayerView(
        route=host_route, state=VehicleState(5.0, 0.0, *host_route.point_at(26.0)), kappa=0.0, p=1.0,
        a_prev=0.0, delta_prev=0.0, player=True, coast=(0.0, 0.0), cps=tuple(cps),
    )
    return [host, *views]


def test_a_far_partner_moving_replays_and_a_near_one_opens_a_context(monkeypatch):
    """The far partner's row is dropped, so its control is not in the
    host's `_scored` key: after it moves, the host's search reuses that
    context and returns its `_responses` entry with no new ranking and no
    eval.  The near partner's control is in the key, so its move opens a
    context."""
    solver = _StepSolver(_near_and_far_views(), True)
    first = solver._best_response(0, solver.p[0])
    key, scored, _ = solver._scored_for(0)
    assert key == (None, None, (solver.controls[1], None))
    ranked = _count_ranks(monkeypatch, solver)

    def move(k):
        a, d = solver.controls[k]
        solver.controls[k] = (a - 0.5, d)
        solver._refresh_pred(k)
        return solver._best_response(0, solver.p[0])

    evals = solver.evals
    assert move(2) == first
    assert ranked[0] == 0 and solver.evals == evals
    assert solver._scored_for(0)[1] is scored and len(solver._scored[0]) == 1
    move(1)
    assert ranked[0] > 0 and len(solver._scored[0]) == 2


def _count_ranks(monkeypatch, solver):
    """A one-element list counting `solver._rank` calls from now on."""
    ranked = [0]
    real_rank = solver._rank

    def counting_rank(*args):
        ranked[0] += 1
        return real_rank(*args)

    monkeypatch.setattr(solver, "_rank", counting_rank)
    return ranked


def _uncoupled_views(case):
    """A member at p = 0.6 that no pooling vehicle depends on: alone, or
    with its crossing partner at p = 0."""
    if case == "no_dependents":
        return [dataclasses.replace(_single_view(), p=0.6)]
    host, partner = _crossing_views()
    return [dataclasses.replace(host, p=0.6), dataclasses.replace(partner, p=0.0)]


@pytest.mark.parametrize("case", ["no_dependents", "dependent_at_p0"])
def test_uncoupled_member_reads_its_lone_move_off_the_coalition_search(case, monkeypatch):
    """Its pooled objective is (1 - p + p^2) times its own loss plus
    constants, so it is ranked at p = 0 and its coalition search is its
    lone search: asked after it, the lone move ranks nothing, adds no eval
    and returns what a fresh solver's lone search returns."""
    views = _uncoupled_views(case)
    solver = _StepSolver(views, True)
    assert solver.p[0] == 0.6 and len(solver.dependents[0]) == (case == "dependent_at_p0")
    solver._best_response(0, solver.p[0])
    ranked = _count_ranks(monkeypatch, solver)
    evals, lateral = solver.evals, solver.lateral_evals
    lone = solver._best_response(0, 0.0)
    assert ranked[0] == 0 and (solver.evals, solver.lateral_evals) == (evals, lateral)
    fresh = _StepSolver(views, True)
    want = fresh._best_response(0, 0.0)
    assert want[2][0] == 0.0 and fresh.evals > 0
    assert lone == want
    if case == "dependent_at_p0":
        assert fresh.lateral_evals > 0


def test_member_with_a_pooling_dependent_searches_its_lone_move(monkeypatch):
    """Its pooled ranking carries the coupling term, which the lone move
    leaves out, so the lone move is a search of its own."""
    views = [dataclasses.replace(v, p=0.6) for v in _crossing_views()]
    solver = _StepSolver(views, True)
    assert solver.dependents[0] == [1]
    solver._best_response(0, solver.p[0])
    ranked = _count_ranks(monkeypatch, solver)
    lone = solver._best_response(0, 0.0)
    assert ranked[0] > 0
    assert lone == _StepSolver(views, True)._best_response(0, 0.0)


def test_uncoupled_member_makes_one_search(monkeypatch):
    """A member none of whose dependents pools is ranked at p = 0: its
    sweep move and the lone move of the rationality check are one
    `_responses` entry, and the check ranks nothing for it.  At
    kappa = 0.2, 1 - p + p^2 maps the own losses 1.9000000000000015 and
    1.9000000000000017 to one value.  With the first candidate scored at
    the lower one and every other at the higher, a search ranking
    c * own would tie them all and keep the least |a|; the member's
    control is the p = 0 search's, bit for bit."""
    p = participation(0.2)
    c = 1.0 - p + p * p
    assert c * 1.9000000000000015 == c * 1.9000000000000017 == 1.7021269716598657
    calls = [0]

    def first_loss_lower(*terms):
        calls[0] += 1
        return 1.9000000000000015 if calls[0] == 1 else 1.9000000000000017

    monkeypatch.setattr(game, "blended_loss", first_loss_lower)
    views = [dataclasses.replace(_single_view(), kappa=0.2, p=p)]
    solver = _StepSolver(views, True)
    solver._sweep_loop()
    assert list(solver._responses) == [(0, 0.0, solver._scored_for(0)[0])]
    ranked = _count_ranks(monkeypatch, solver)
    solver._rationality()
    assert ranked[0] == 0
    calls[0] = 0
    assert solver.controls[0] == _StepSolver(views, True)._best_response(0, 0.0)[:2]


def test_speed_cap_is_bisected_once_per_vehicle_per_step(monkeypatch):
    """The cap seed depends on the vehicle's start speed and acceleration
    box alone, so it is bisected while the solver builds the player's
    search grid, and no search of the step bisects it again."""
    capped = []
    real_cap = game._speed_cap

    def counting_cap(v0, a_lo, a_hi):
        capped.append(v0)
        return real_cap(v0, a_lo, a_hi)

    monkeypatch.setattr(game, "_speed_cap", counting_cap)
    views = _crossing_views()
    solver = _StepSolver(views, True)
    assert capped == [v.state.v_x for v in views]
    solver.solve()
    assert solver.sweeps > 1 and len(capped) == 2


@settings(deadline=None)
@given(v0=st.floats(0.0, L.v_max), a_prev=st.floats(-L.a_max, L.a_max))
@example(v0=7.99, a_prev=0.1)
def test_speed_cap_is_the_largest_in_box_acceleration_the_ramp_allows(v0, a_prev):
    """None exactly when the box's top keeps the speed ramp legal or its
    bottom does not; otherwise an in-box acceleration that keeps the ramp
    legal while one 2**-47 of the box above it breaks the ramp."""
    a_lo, a_hi = _StepSolver([dataclasses.replace(_single_view(v=v0), a_prev=a_prev)], True)._grid[0][:2]

    def over(a):
        return game._ramp_peak_speed(v0 + a * game.DT, a) > L.v_max

    cap = game._speed_cap(v0, a_lo, a_hi)
    assert (cap is None) == (not over(a_hi) or over(a_lo))
    if cap is not None:
        assert a_lo <= cap <= a_hi
        assert not over(cap) and over(cap + (a_hi - a_lo) * 2.0**-47)


def test_pooled_loss_identities():
    sol = solve_step(_crossing_views())
    assert sum(sol.h_alloc) == pytest.approx(sol.v_coalition, abs=1e-9)
    for i in (0, 1):
        v_total = sol.terms[i].total
        assert sol.h_alloc[i] == pytest.approx(sol.p_used[i] * v_total, abs=1e-9)
        want = sol.p_used[i] * sol.v_coalition + (1.0 - sol.p_used[i]) * v_total
        assert sol.j_value[i] == pytest.approx(want, abs=1e-9)


def _blocked_views():
    """A host at 8 m/s 4 m behind a parked car: no control is feasible."""
    route = route_for(APPROACH, "M1", "straight", "outer")
    host = PlayerView(
        route=route, state=VehicleState(8.0, 0.0, *route.point_at(20.0)),
        kappa=0.0, p=1.0, a_prev=0.0, delta_prev=0.0, player=True,
        coast=(0.0, 0.0), lv=1, lv_gated=True,
    )
    parked = PlayerView(
        route=route, state=VehicleState(0.0, 0.0, *route.point_at(24.0)),
        kappa=0.0, p=0.0, a_prev=0.0, delta_prev=0.0, player=False,
        coast=(0.0, 0.0),
    )
    return [host, parked]


def test_blocked_vehicle_falls_back_to_full_braking():
    sol = solve_step(_blocked_views())
    assert sol.reset[0] is True
    assert sol.emergency[0] is True
    assert sol.controls[0] == (-L.a_max, 0.0)
    assert sol.controls[1] == (0.0, 0.0)
    assert sol.emergency[1] is False


def _breaks_speed(v0, a):
    """Whether acceleration a from speed v0 breaks the speed ramp bound."""
    v_next = step_speed(v0, a)
    return accel_residuals(a, 0.0, v_next)[BOUND_NAMES.index("speed")] > FEAS_SLACK


def test_feasible_incumbent_skips_the_prediction_of_speed_breaking_candidates(monkeypatch):
    """At the speed limit every positive acceleration breaks the speed
    ramp.  Once the search holds a feasible control, those candidates are
    ranked as losers from `a` alone and never reach the step prediction."""
    solver = _StepSolver([_single_view(v=L.v_max)], True)
    integrated = []
    real_integrate = game.integrate

    def counting_integrate(state, u, *args, **kwargs):
        integrated.append(u.a_x)
        return real_integrate(state, u, *args, **kwargs)

    monkeypatch.setattr(game, "integrate", counting_integrate)
    a, d, key = solver._best_response(0, solver.p[0])
    assert key[0] == 0.0 and not _breaks_speed(L.v_max, a)
    scored = solver._scored_for(0)[1]
    skipped = [ad for ad in scored if _breaks_speed(L.v_max, ad[0])]
    assert skipped
    assert all(scored[ad] is game._UNSCORED for ad in skipped)
    assert integrated and not any(_breaks_speed(L.v_max, a) for a in integrated)


@settings(deadline=None, derandomize=True)
@given(
    st.floats(0.0, L.v_max),
    st.floats(-L.a_max, L.a_max),
    st.floats(-0.3, 0.3) | st.floats(-2.0 * L.a_max, 2.0 * L.a_max),  # a - a_prev
    st.floats(-STEER_BOX, STEER_BOX),
)
def test_score_skips_the_prediction_exactly_when_the_acceleration_alone_breaks_a_bound(v0, a_prev, step_a, d):
    """With a feasible control held, `_score` rules a candidate out before
    its step prediction (it stores none for it) exactly when its acceleration
    alone breaks a bound: accel, jerk or the speed ramp."""
    a = a_prev + step_a
    solver = _StepSolver([dataclasses.replace(_single_view(v=v0), a_prev=a_prev)], True)
    assume((a, d) not in solver._cand[0])
    entry = solver._score(0, a, d, solver._scored_for(0)[2], True)
    skipped = entry is game._UNSCORED and (a, d) not in solver._cand[0]
    assert skipped == (max(accel_residuals(a, a_prev, step_speed(v0, a))) > FEAS_SLACK)


def test_lazily_stored_candidate_ranks_by_its_exact_residual():
    """A direct `_rank` of a candidate stored as infeasible without its
    residual computes that residual, and the key equals the one a fresh
    solver ranks."""
    views = [_single_view(v=L.v_max)]
    solver = _StepSolver(views, True)
    solver._best_response(0, solver.p[0])
    _, scored, table = solver._scored_for(0)
    lazy = [ad for ad, entry in scored.items() if entry is game._UNSCORED]
    assert lazy
    fresh = _StepSolver(views, True)
    _, fresh_scored, fresh_table = fresh._scored_for(0)
    for a, d in lazy:
        key = solver._rank(0, a, d, solver.p[0], scored, table)
        pred, s_pred, _, _, slack = solver._candidate(0, a, d)
        residual = solver._constraint_residual(0, a, pred, s_pred, slack, TTC_GUARD, table)
        assert math.isfinite(residual) and residual > FEAS_SLACK
        assert key == (1.0, residual, abs(a), abs(d), a, d)
        assert key == fresh._rank(0, a, d, fresh.p[0], fresh_scored, fresh_table)
        assert scored[(a, d)] is not game._UNSCORED


def test_infeasible_search_ranks_by_exact_residuals():
    """A search that never holds a feasible control stores no candidate
    lazily, and its key carries the exact residual of its control."""
    solver = _StepSolver(_blocked_views(), True)
    a, d, key = solver._best_response(0, solver.p[0])
    assert key[0] == 1.0
    _, scored, table = solver._scored_for(0)
    assert game._UNSCORED not in scored.values()
    pred, s_pred, _, _, slack = solver._candidate(0, a, d)
    assert key[1] == solver._constraint_residual(0, a, pred, s_pred, slack, TTC_GUARD, table)


def test_rationality_without_a_feasible_lone_move_compares_nothing():
    """The blocked host pools at p = 1, but its lone search finds no
    feasible control: it counts as rational, with no lone loss recorded."""
    solver = _StepSolver(_blocked_views(), True)
    assert solver.p[0] == 1.0
    assert solver._best_response(0, 0.0)[2][0] == 1.0
    assert solver._rationality() == ([True, True], [0.0, 0.0])


def test_solve_step_deterministic():
    first = solve_step(_crossing_views())
    second = solve_step(_crossing_views())
    assert first.controls == second.controls
    assert first.v_coalition == second.v_coalition
    assert first.evals == second.evals


def test_step_solver_predicts_each_candidate_once_per_step(monkeypatch):
    """Within one step no (state, a, delta) reaches the step prediction
    twice, the run counts the evals committed under runs/, and it ranks
    more candidates than it predicts."""
    root = Path(__file__).resolve().parents[1]
    seen: set = set()
    repeats = []
    calls = [0]
    real_integrate = game.integrate
    real_solve = runner.solve_step

    def counting_integrate(state, u, *args, **kwargs):
        key = (state, u.a_x, u.delta_f)
        if key in seen:
            repeats.append(key)
        seen.add(key)
        calls[0] += 1
        return real_integrate(state, u, *args, **kwargs)

    def solve_one_step(*args, **kwargs):
        seen.clear()
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(game, "integrate", counting_integrate)
    monkeypatch.setattr(runner, "solve_step", solve_one_step)
    res = runner.run(load_scenario(root / "scenarios" / "case1_A.cfg"))
    assert calls[0] > 0
    assert repeats == []
    with open(root / "runs" / "case1_A_fuzzy" / "steps.csv", newline="") as fh:
        committed = sum(int(row["evals"]) for row in csv.DictReader(fh))
    assert sum(s.evals for s in res.steps) == committed
    assert calls[0] < committed  # rankings outnumber predictions
    # the count the run makes: a search that predicts more candidates, or
    # a shortcut that stops sparing predictions, fails here (without the
    # `_UNSCORED` skip of a candidate that cannot beat a held feasible
    # control, the run makes 4,989); a change that makes fewer lowers it
    assert calls[0] <= 4_575


def test_no_search_returns_worse_than_the_control_it_holds(dense, tmp_path, monkeypatch):
    """Over the 8 shipped fuzzy runs and the `perfbench/dense.py` layouts of
    seed 1, every `_best_response` whose player holds a control in its box
    returns a key no worse than `_rank` of that control in the same
    context, a replayed answer included.  Searches that ignored the held
    control returned a worse key in 4 of 6,153 such calls on the shipped
    runs and 6 of 6,387 on the layouts.  The check ranks on a copy of the
    context's scored candidates and puts the step's counters back."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "scenarios").glob("*.cfg"))
    for per_arm in dense.PER_ARM:
        paths.append(tmp_path / f"dense_{per_arm}.cfg")
        paths[-1].write_text(dense.layout(per_arm, 1), encoding="utf-8")
    checked, worse = [0], []
    real_search = _StepSolver._best_response

    def checked_search(self, i, p_i):
        held = self.controls[i]
        found = real_search(self, i, p_i)
        a_lo, a_hi, _ = self._grid[i]
        if a_lo <= held[0] <= a_hi and abs(held[1]) <= STEER_BOX:
            counters = self.evals, self.lateral_evals
            _, scored, table = self._scored_for(i)
            key = self._rank(i, *held, self._ranked_p(i, p_i), dict(scored), table)
            self.evals, self.lateral_evals = counters
            checked[0] += 1
            if found[2] > key:
                worse.append((i, held, found))
        return found

    monkeypatch.setattr(_StepSolver, "_best_response", checked_search)
    for path in paths:
        runner.run(load_scenario(path), mode="fuzzy")
    assert checked[0] > 12_000
    assert worse == []


@pytest.mark.parametrize("name", ["case1_C", "case1_D", "case1_F"])
def test_no_search_crawls_to_its_move_cap(name, monkeypatch):
    """No fresh search (one that ranks a candidate) ranks more
    than 200 candidates.  In these runs, while the pattern step only
    shrank, searches braking at 0.2 m/s walked a nearly flat slope one
    small step per round to the 200-move cap, 617 rankings each; with the
    step growing after a move the longest search over the shipped fuzzy
    runs ranks 153."""
    root = Path(__file__).resolve().parents[1]
    rankings = []
    real_search = _StepSolver._best_response

    def counting_search(self, *args):
        evals = self.evals
        found = real_search(self, *args)
        if self.evals > evals:
            rankings.append(self.evals - evals)
        return found

    monkeypatch.setattr(_StepSolver, "_best_response", counting_search)
    runner.run(load_scenario(root / "scenarios" / f"{name}.cfg"), mode="fuzzy")
    assert len(rankings) > 100
    assert max(rankings) <= 200


@pytest.mark.parametrize("name", ["case1_A", "case3"])
def test_step_counters_count_rankings_and_crossing_risk_terms(name, monkeypatch):
    """Each step's `evals` is the number of `_rank` calls its solver makes
    and its `lateral_evals` the number of `crossing_risk` calls: an answer
    read from `_scored` or `_responses` adds to neither."""
    root = Path(__file__).resolve().parents[1]
    calls = {"rank": 0, "risk": 0}
    per_step = []
    real_rank, real_risk, real_solve = _StepSolver._rank, game.crossing_risk, runner.solve_step

    def counting_rank(self, *args, **kwargs):
        calls["rank"] += 1
        return real_rank(self, *args, **kwargs)

    def counting_risk(*args):
        calls["risk"] += 1
        return real_risk(*args)

    def solve_one_step(*args, **kwargs):
        calls.update(rank=0, risk=0)
        sol = real_solve(*args, **kwargs)
        per_step.append((calls["rank"], calls["risk"]))
        return sol

    monkeypatch.setattr(_StepSolver, "_rank", counting_rank)
    monkeypatch.setattr(game, "crossing_risk", counting_risk)
    monkeypatch.setattr(runner, "solve_step", solve_one_step)
    res = runner.run(load_scenario(root / "scenarios" / f"{name}.cfg"))
    assert sum(risk for _, risk in per_step) > 0
    assert [(s.evals, s.lateral_evals) for s in res.steps] == per_step


def test_step_solver_windows_change_no_projection_and_mostly_visit_one_element(monkeypatch):
    """On case3, every projection the solver makes through an element
    window equals the one over every element, bit for bit, and at least
    half of the candidate projections on a multi-element route visit a
    single element: a window that silently widens fails here."""
    root = Path(__file__).resolve().parents[1]
    visits = [0]
    for cls in (geometry.Segment, geometry.Arc):
        real_el = cls.project

        def counted(self, x, y, _real=real_el):
            visits[0] += 1
            return _real(self, x, y)

        monkeypatch.setattr(cls, "project", counted)
    real_project = Route.project
    windowed = [0]
    last_visits = [0]  # elements the latest projection visited, the check's own excluded

    def checked_project(self, x, y, near=None):
        before = visits[0]
        got = real_project(self, x, y, near)
        last_visits[0] = visits[0] - before
        if near is not None:
            windowed[0] += 1
            full = real_project(self, x, y)
            assert [v.hex() for v in got] == [v.hex() for v in full], (self.name, x, y, near)
        return got

    real_lane = game.lane_errors
    candidate = {1: 0, "many": 0}  # candidate projections on multi-element routes, by elements visited

    def counted_lane(route, state, beta, near=None):
        got = real_lane(route, state, beta, near)
        if len(route.elements) > 1:
            candidate[1 if last_visits[0] == 1 else "many"] += 1
        return got

    monkeypatch.setattr(Route, "project", checked_project)
    monkeypatch.setattr(game, "lane_errors", counted_lane)
    runner.run(load_scenario(root / "scenarios" / "case3.cfg"), mode="fuzzy")
    assert windowed[0] > 0
    assert candidate[1] + candidate["many"] > 1000
    assert candidate[1] >= candidate["many"], candidate
    # the run's count, 6,599 of 9,467: a window widened even by 1 cm keeps
    # the arc 46 times more, 6,553
    assert candidate[1] >= 6_599, candidate


# the 8-vehicle layout of `perfbench/dense.py --seed 1`, cut to 16 steps
_CROWDED = """\
[scenario]
version = 1
t_end = 1.6

[network]
approach_length = 90

[field]
horizon = 4
omega0 = 60
""" + "".join(
    f"\n[vehicle.{name}]\nroad = {road}\nmaneuver = {man}\nlane = {lane}\n"
    f"x = {x}\ny = {y}\nv = {v}\nkappa = {kappa}\n"
    for name, road, man, lane, x, y, v, kappa in (
        ("A1Q1", "M1", "right", "outer", -18, -6, 4.3037, 0.1150),
        ("A1Q2", "M1", "straight", "outer", -42, -6, 4.7293, -0.1239),
        ("A2Q1", "M2", "straight", "outer", 6, -18, 5.3740, -0.5933),
        ("A2Q2", "M2", "right", "outer", 6, -42, 5.2049, 0.3282),
        ("A3Q1", "M3", "straight", "inner", 18, 2, 4.1687, -0.6443),
        ("A3Q2", "M3", "left", "inner", 42, 2, 3.6908, 0.4384),
        ("A4Q1", "M4", "left", "inner", -2, 18, 3.8918, 0.7037),
        ("A4Q2", "M4", "left", "inner", -2, 42, 4.8504, -0.3667),
    )
)


def test_fallback_rows_brake_at_full_effort(simulate):
    """Every row flagged as a fallback drives full braking.  The reset
    re-sweep after the rationality check moves players an earlier fallback
    braked; one still infeasible must be braked again, one feasible again
    must lose the flag."""
    res = simulate(_CROWDED)
    a_max = L.a_max
    fallback = [(k, r.a) for k, rows in enumerate(res.rows) for r in rows if r.fallback]
    assert fallback
    assert all(a == -a_max for _, a in fallback), fallback


def _rank_cases():
    """(views, player) per shape of the game key: p = 0 (with a
    dependent), the two uncoupled members of `_uncoupled_views`, which the
    search ranks at p = 0 too, and players with pooling dependents."""
    crossing = _crossing_views()
    shared = [dataclasses.replace(v, p=0.7) for v in crossing]
    return {
        "p0": ([dataclasses.replace(crossing[0], p=0.0), crossing[1]], 0),
        "no_dependents": (_uncoupled_views("no_dependents"), 0),
        "dependent_at_p0": (_uncoupled_views("dependent_at_p0"), 0),
        "dependents_0": (shared, 0),
        "dependents_1": (shared, 1),
    }


@pytest.mark.parametrize("case", ["p0", "no_dependents", "dependent_at_p0", "dependents_0", "dependents_1"])
def test_game_rank_key_is_the_pooled_objective_bit_for_bit(case, monkeypatch):
    """Each key the search ranks, at the p it ranks with, is that p's
    pooled objective: (1 - p + p^2) times the own loss plus the coupling
    term."""
    views, i = _rank_cases()[case]
    solver = _StepSolver(views, True)
    assert (solver.p[i] == 0.0) == (case == "p0")
    assert bool(solver.dependents[i]) == (case != "no_dependents")
    rank, ranked_at = solver._rank, set()

    def recording_rank(i, a, d, p_i, *rest):
        ranked_at.add(p_i)
        return rank(i, a, d, p_i, *rest)

    monkeypatch.setattr(solver, "_rank", recording_rank)
    solver._best_response(i, solver.p[i])
    (p_i,) = ranked_at
    assert p_i == (solver.p[i] if case.startswith("dependents") else 0.0)
    _, scored, table = solver._scored_for(i)
    lo, hi = solver._grid[i][:2]
    feasible = 0
    for a in (lo, 0.5 * (lo + hi), hi):
        for d in (-0.02, 0.0, 0.01):
            key = rank(i, a, d, p_i, scored, table)
            if key[0] != 0.0:
                continue
            feasible += 1
            pred, s_pred, dy, dphi, _ = solver._candidate(i, a, d)
            own = blended_loss(*solver._own_terms(i, pred, s_pred, dy, dphi))
            want = (1.0 - p_i + p_i * p_i) * own + solver._coupling(i, a, d)
            assert key == (0.0, want, abs(a), abs(d), a, d)
    assert feasible > 0


def _old_constraint_residual(solver, i, a, pred, s_pred, bound_slack, guard):
    """The per-point loop the crossing table and reach rows replaced,
    with the standoffs taken straight from brake_reach."""
    view = solver.views[i]
    res = bound_slack
    ttc_floor = L.ttc_min + guard
    margin = L.stop_margin + guard
    if view.lv is not None:
        gap = solver.lead_s[i] - s_pred
        need = follow_reach(pred.v_x, a, solver.pred[view.lv].v_x, ttc_floor, margin)
        res = max(res, need - gap)
    for cp in view.cps:
        d_self = cp.s_self - s_pred
        if d_self <= 0.0:
            continue
        d_other = cp.s_other - solver.pred_s[cp.partner]
        t_self = arrival_time(d_self, pred.v_x)
        t_other = arrival_time(d_other, solver.pred[cp.partner].v_x)
        if math.isinf(t_self) or math.isinf(t_other):
            sep = math.inf
        else:
            sep = ttc_floor - abs(t_other - t_self)
        partner_hold = cp.hold_other + solver.hold_dist[cp.partner] - d_other
        self_hold = brake_reach(pred.v_x, a, cp.hold_self + guard) - d_self
        res = max(res, min(self_hold, partner_hold, sep))
    return res


@settings(deadline=None)
@given(
    v0=st.floats(0.0, L.v_max),
    a_prev=st.floats(-L.a_max, L.a_max),
    s=st.floats(0.0, 80.0),
    road=st.sampled_from(["M1", "M2", "M3", "M4"]),
    maneuver=st.sampled_from(["left", "straight", "right"]),
    a_at=st.floats(0.0, 1.0),
    d=st.floats(-STEER_BOX, STEER_BOX),
)
def test_no_candidate_bound_slack_is_below_the_slack_floor(v0, a_prev, s, road, maneuver, a_at, d):
    """A crossing row at or under `_SLACK_FLOOR` never sets a residual,
    because every in-box candidate's bound slack is at least that floor."""
    route = route_for(APPROACH, road, maneuver)
    s = min(s, route.total_length)
    x, y = route.point_at(s)
    view = PlayerView(
        route=route, state=VehicleState(v0, route.project(x, y)[2], x, y), kappa=0.0, p=1.0,
        a_prev=a_prev, delta_prev=0.0, player=True, coast=(0.0, 0.0),
    )
    solver = _StepSolver([view], True)
    lo, hi = solver._grid[0][:2]
    assert solver._candidate(0, lo + a_at * (hi - lo), d)[4] >= _SLACK_FLOOR


_PARTNER_ROUTES = (("M2", "straight", "outer"), ("M4", "left", "inner"), ("M3", "straight", "inner"))
_speed = st.one_of(st.just(0.0), st.floats(0.0, 8.0))
_partner = st.tuples(
    _speed,  # speed
    st.floats(-8.0, 8.0),  # control acceleration; braking from rest keeps the partner stopped
    st.floats(5.0, 40.0),  # arc length
    st.floats(-2.0, 25.0),  # crossing point ahead of it (behind when negative)
    st.floats(2.0, 6.0),  # hold_other
)
_point = st.tuples(
    st.one_of(st.floats(-3.0, 30.0), st.just("at_pred")),  # host's distance to the point
    st.floats(2.0, 6.0),  # hold_self
)


@settings(max_examples=150, deadline=None)
@given(
    v_host=_speed,
    a_prev=st.floats(-1.0, 1.0),
    leader=st.one_of(st.none(), st.tuples(_speed, st.floats(6.0, 30.0))),
    partners=st.lists(_partner, min_size=1, max_size=3),
    points=st.lists(_point, min_size=3, max_size=3),
    candidates=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-0.1, 0.1)), min_size=1, max_size=4),
    guards=st.permutations([TTC_GUARD, 0.0]),
)
@example(
    v_host=0.0, a_prev=-0.2, leader=None, partners=[(0.0, -1.0, 20.0, 8.0, 3.5)],
    points=[(5.0, 3.5), (-1.0, 3.5), ("at_pred", 3.5)], candidates=[(-0.2, 0.0)], guards=[TTC_GUARD, 0.0],
)
@example(  # the first partner can stop well short of its points: their rows are dropped
    v_host=5.0, a_prev=0.0, leader=None, partners=[(6.0, 0.0, 5.0, 25.0, 2.0), (4.0, 0.0, 20.0, 3.0, 3.0)],
    points=[(6.0, 3.5), (8.0, 3.5), (4.0, 3.5)], candidates=[(0.2, 0.0), (-0.2, 0.01)], guards=[TTC_GUARD, 0.0],
)
@example(  # a stopped partner 0.01 m inside its backoff sets the residual just above the floor
    v_host=5.0, a_prev=0.0, leader=None, partners=[(0.0, -1.0, 20.0, 3.51, 3.5)],
    points=[(6.0, 3.5), (8.0, 3.5), (10.0, 3.5)], candidates=[(0.0, 0.0)], guards=[TTC_GUARD, 0.0],
)
def test_table_residual_equals_the_per_point_loop_bit_for_bit(
    v_host, a_prev, leader, partners, points, candidates, guards
):
    """`_constraint_residual` over the kept rows of a crossing table and
    reach rows equals the old per-point loop over every point exactly
    (float hex strings, so signed zeros count), for both guards, stopped
    partners (t_other = inf), stopped hosts and points the candidate
    reached or passed (d_self <= 0).  All candidates of one example, each
    under both guards, share one solver, so the reach rows and the table
    are reused across them."""
    host_route = route_for(APPROACH, "M1", "straight", "outer")
    s_host = 20.0
    host_state = VehicleState(v_host, 0.0, *host_route.point_at(s_host))
    partner_views = []
    for k, (v, a_j, s_j, ahead, hold_other) in enumerate(partners):
        route = route_for(APPROACH, *_PARTNER_ROUTES[k])
        x, y = route.point_at(s_j)
        state = VehicleState(v, route.project(x, y)[2], x, y)
        partner_views.append(PlayerView(
            route=route, state=state, kappa=0.0, p=1.0, a_prev=a_j, delta_prev=0.0,
            player=False, coast=(a_j, 0.0),
        ))
    lv = None
    if leader is not None:
        v_lead, gap = leader
        x, y = host_route.point_at(s_host + gap)
        lv = 1 + len(partners)
        lead_view = PlayerView(
            route=host_route, state=VehicleState(v_lead, 0.0, x, y), kappa=0.0, p=1.0,
            a_prev=0.0, delta_prev=0.0, player=False, coast=(0.0, 0.0),
        )
    # the host's points cycle over the partners; "at_pred" puts a point
    # exactly where the first candidate ends up
    a0, d0 = candidates[0]
    first = step(host_state, ControlInput(a0, d0))
    s_first = host_route.project(first.x, first.y)[0]
    cps = []
    for m, (dist, hold_self) in enumerate(points):
        k = m % len(partners)
        s_self = s_first if dist == "at_pred" else s_host + dist
        s_other = partners[k][2] + partners[k][3]
        cps.append(CpRef(s_self, 1 + k, s_other, *host_route.point_at(s_self), hold_self, partners[k][4]))
    host = PlayerView(
        route=host_route, state=host_state, kappa=0.0, p=1.0, a_prev=a_prev, delta_prev=0.0,
        player=True, coast=(0.0, 0.0), lv=lv, lv_gated=lv is not None, cps=tuple(cps),
    )
    views = [host, *partner_views] + ([lead_view] if leader is not None else [])
    solver = _StepSolver(views, True)
    table, tokens = solver._crossing_table(0)
    kept = []
    for k, cp in enumerate(cps):
        d_other = cp.s_other - solver.pred_s[cp.partner]
        if cp.hold_other + solver.hold_dist[cp.partner] - d_other > _SLACK_FLOOR:
            kept.append(k)
            assert tokens[k] == solver.controls[cp.partner]
        else:
            assert tokens[k] is None
    assert [row[0] for row in table] == kept
    assert any(math.isinf(t_other) for _, _, t_other, _ in table) == any(
        solver.pred[cps[k].partner].v_x <= STOPPED for k in kept
    )
    for a, d in candidates:
        pred, s_pred, _, _, slack = solver._candidate(0, a, d)
        for guard in guards:
            got = solver._constraint_residual(0, a, pred, s_pred, slack, guard, table)
            want = _old_constraint_residual(solver, 0, a, pred, s_pred, slack, guard)
            assert got.hex() == want.hex(), (a, d, guard)
