"""Cost terms: following and crossing risk, lane keeping, headway, blending."""

import math

import pytest
from hypothesis import given, strategies as st

from intersection_game.costs import (
    STOPPED,
    THW_CAP,
    CostTerms,
    arrival_time,
    balance_weights,
    crossing_risk,
    efficiency,
    following_risk,
    lane_errors,
    lane_keeping,
)
from intersection_game.dynamics import WHEELBASE, VehicleState, sideslip
from intersection_game.network import route_for


def test_balance_weights_values():
    assert balance_weights(0.0) == pytest.approx((0.5, 0.5), abs=1e-12)
    k_s, k_e = balance_weights(1.0)
    assert k_s == pytest.approx(0.11920292202211757, abs=1e-12)
    assert k_e == pytest.approx(0.8807970779778825, abs=1e-12)
    # mirrored aggressiveness swaps the two weights
    m_s, m_e = balance_weights(-1.0)
    assert (m_s, m_e) == pytest.approx((k_e, k_s), abs=1e-12)


def test_balance_weights_partition_unity():
    prev_e = -1.0
    for i in range(1000):
        kappa = -1.0 + 2.0 * i / 999.0
        k_s, k_e = balance_weights(kappa)
        assert k_s + k_e == pytest.approx(1.0, abs=1e-12)
        assert k_e > prev_e
        prev_e = k_e


def test_balance_weights_rejects_out_of_range():
    with pytest.raises(ValueError):
        balance_weights(1.2)
    with pytest.raises(ValueError):
        balance_weights(-1.2)


def test_following_risk_values():
    assert following_risk(4.0, 5.0, 10.0) == 0.0
    assert following_risk(6.0, 4.0, 10.0) == pytest.approx(0.04, abs=1e-12)
    assert following_risk(5.0, 5.0, 10.0) == 0.0


def test_following_risk_rejects_closed_gap():
    with pytest.raises(ValueError):
        following_risk(5.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        following_risk(5.0, 5.0, -2.0)


@given(
    v_host=st.floats(min_value=0.0, max_value=8.0),
    extra=st.floats(min_value=0.0, max_value=8.0),
    gap=st.floats(min_value=0.1, max_value=80.0),
)
def test_following_risk_zero_when_leader_escapes(v_host, extra, gap):
    assert following_risk(v_host, v_host + extra, gap) == 0.0


def test_crossing_risk_values():
    # both arrive after two seconds: regularizer alone bounds the penalty
    assert crossing_risk(2.0, 1.0, 2.0, 1.0) == pytest.approx(100.0, abs=1e-9)
    assert crossing_risk(2.0, 1.0, 4.0, 1.0) == pytest.approx(0.24937655860349128, abs=1e-12)
    assert crossing_risk(2.0, 1.0, 4.0, 0.0) == 0.0


def test_terms_switch_off_at_the_stopped_speed():
    """`arrival_time`, `crossing_risk` and `efficiency` agree on one
    threshold: at or below STOPPED a vehicle never arrives, and at the next
    float above it, it does."""
    above = math.nextafter(STOPPED, 1.0)
    for v in (0.0, STOPPED):
        assert arrival_time(3.0, v) == math.inf
        assert crossing_risk(STOPPED, v, 1.0, 1.0) == crossing_risk(1.0, 1.0, STOPPED, v) == 0.0
        # infinite headway: the cap plus the whole crawl term
        assert efficiency(STOPPED, v) == THW_CAP * THW_CAP + 1.0
    assert arrival_time(3.0, above) == 3.0 / above
    # STOPPED metres at just above STOPPED m/s take just under a second
    t = STOPPED / above
    assert crossing_risk(STOPPED, above, 1.0, 1.0) == crossing_risk(1.0, 1.0, STOPPED, above) > 99.0
    assert efficiency(STOPPED, above) == t * t


def test_crossing_risk_peaks_at_equal_arrival():
    # host arrives after 3 s; scan the partner's arrival over a grid
    best_d, best_v = None, 0.0
    for i in range(81):
        d = 1.0 + 0.05 * i
        v = crossing_risk(3.0, 1.0, d, 1.0)
        if v > best_v:
            best_d, best_v = d, v
    assert best_d == pytest.approx(3.0, abs=1e-9)
    assert best_v == pytest.approx(100.0, abs=1e-9)


def test_lane_keeping_values():
    assert lane_keeping(0.0, 0.0) == 0.0
    assert lane_keeping(0.1, 0.01) == pytest.approx(0.018, abs=1e-12)
    assert lane_keeping(0.2, 0.0) == pytest.approx(0.04, abs=1e-12)


def test_time_headway_cap():
    # squared headway, capped at THW_CAP = 10 s, plus the crawl slope past the cap
    assert efficiency(12.0, 6.0) == pytest.approx(4.0)
    assert efficiency(100.0, 1.0) == pytest.approx(100.009, abs=1e-12)
    assert efficiency(5.0, 0.0) == 101.0


def test_efficiency_values():
    assert efficiency(12.0, 6.0) == pytest.approx(4.0, abs=1e-12)
    assert efficiency(12.0, 12.0) == pytest.approx(1.0, abs=1e-12)
    assert efficiency(0.0, 6.0) == 0.0


def test_efficiency_saturated_branch_still_rewards_speed():
    # capped squared headway alone would be flat in v below gap/cap
    assert efficiency(12.0, 0.0) <= 101.0
    prev = efficiency(12.0, 0.01)
    for v in (0.1, 0.5, 1.0, 1.2, 2.0, 6.0, 12.0):
        cur = efficiency(12.0, v)
        assert cur < prev
        prev = cur


def test_lane_errors_on_and_off_centerline():
    r = route_for(30.0, "M1", "straight", "outer")
    s, dy, dphi = lane_errors(r, VehicleState(5.0, 0.0, 0.0, -6.0), 0.0)
    assert (dy, dphi) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert s == pytest.approx(r.project(0.0, -6.0)[0], abs=1e-12)
    _, dy, dphi = lane_errors(r, VehicleState(5.0, 0.0, 0.0, -5.7), 0.0)
    assert dy == pytest.approx(0.3, abs=1e-12)
    assert dphi == pytest.approx(0.0, abs=1e-12)


def test_lane_errors_vanish_in_steady_cornering():
    r = route_for(30.0, "M1", "left")
    s = 40.0  # mid arc
    delta = math.atan(r.curvature_at(s) * WHEELBASE)
    x, y = r.point_at(s)
    phi = r.project(x, y)[2] - sideslip(delta)
    s_back, dy, dphi = lane_errors(r, VehicleState(5.0, phi, x, y), sideslip(delta))
    assert s_back == pytest.approx(s, abs=1e-9)
    assert dy == pytest.approx(0.0, abs=1e-9)
    assert dphi == pytest.approx(0.0, abs=1e-9)


def test_cost_terms_blend():
    t = CostTerms(0.0, 0.0, 2.0, 4.0, 0.0, 0.0, 0.5, 0.5)
    assert t.total == pytest.approx(3.0)
    # switched-off gates leave only lane keeping in the safety group: 0.5 * 1.5
    gated_off = CostTerms(5.0, 7.0, 1.5, 0.0, 0.0, 0.0, 0.5, 0.5)
    assert gated_off.total == pytest.approx(0.75)
    # all weight on safety: the total is the gated safety group, 10*2 + 60*3 + 1
    weighted = CostTerms(2.0, 3.0, 1.0, 0.0, 10.0, 60.0, 1.0, 0.0)
    assert weighted.total == pytest.approx(201.0)
    assert CostTerms(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5).total == 0.0


@given(*[st.floats(0.0, 1e3)] * 4, st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.0, 1.0))
def test_cost_terms_total_is_the_safety_efficiency_blend_bit_for_bit(v_log, v_lat, v_lk, v_e, w_log, w_lat, k_s):
    k_e = 1.0 - k_s
    t = CostTerms(v_log, v_lat, v_lk, v_e, w_log, w_lat, k_s, k_e)
    safety = w_log * v_log + w_lat * v_lat + v_lk
    assert t.total == k_s * safety + k_e * v_e
