"""Bicycle model: sideslip, curvature, turn center, and the integrator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from intersection_game import dynamics
from intersection_game.dynamics import (
    DT,
    L_R,
    WHEELBASE,
    ControlInput,
    VehicleState,
    path_curvature,
    sideslip,
    step,
    velocity_vector,
)
from intersection_game.game import LIMITS, STEER_BOX
from intersection_game.geometry import wrap_angle
from intersection_game.risk import build_field


def _stage_rates(v, phi, a_x, beta, cos_beta, k_yaw):
    """(dv, dphi, dx, dy) at speed v and yaw phi; a negative speed counts as zero."""
    vv = v if v > 0.0 else 0.0
    return (
        a_x,
        vv * k_yaw,
        vv * math.cos(phi + beta) / cos_beta,
        vv * math.sin(phi + beta) / cos_beta,
    )


def rates(state, u):
    """Time derivative (dv, dphi, dx, dy) of the state under control u."""
    beta = sideslip(u.delta_f)
    return _stage_rates(state.v_x, state.phi, u.a_x, beta, math.cos(beta), math.tan(beta) / L_R)


def reference_step(state, u, dt):
    """Textbook RK4 over `_stage_rates`, one stage call per stage."""
    beta = sideslip(u.delta_f)
    k_yaw = math.tan(beta) / L_R
    cb = math.cos(beta)
    a = u.a_x
    v0, p0 = state.v_x, state.phi
    k1 = _stage_rates(v0, p0, a, beta, cb, k_yaw)
    k2 = _stage_rates(v0 + 0.5 * dt * k1[0], p0 + 0.5 * dt * k1[1], a, beta, cb, k_yaw)
    k3 = _stage_rates(v0 + 0.5 * dt * k2[0], p0 + 0.5 * dt * k2[1], a, beta, cb, k_yaw)
    k4 = _stage_rates(v0 + dt * k3[0], p0 + dt * k3[1], a, beta, cb, k_yaw)
    v1 = v0 + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
    p1 = p0 + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
    x1 = state.x + dt * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
    y1 = state.y + dt * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]) / 6.0
    if v1 < 0.0:
        v1 = 0.0
    return VehicleState(v1, wrap_angle(p1), x1, y1)


def _bits(state):
    """The state's floats as hex strings, so -0.0 and 0.0 differ."""
    return tuple(float(x).hex() for x in (state.v_x, state.phi, state.x, state.y))


@given(
    st.floats(-1.0, 10.0) | st.sampled_from([0.0, -0.0, -1.0]),
    st.floats(-math.pi, math.pi),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(-8.0, 8.0),
    st.floats(-STEER_BOX, STEER_BOX),
)
def test_step_equals_reference_rk4_bit_for_bit(v0, phi, x, y, a, delta):
    """The integrator's unrolled stages give exactly the textbook RK4's
    floats, speed floor and yaw wrap included."""
    s0 = VehicleState(v0, phi, x, y)
    u = ControlInput(a, delta)
    assert _bits(step(s0, u)) == _bits(reference_step(s0, u, DT))


@settings(deadline=None, derandomize=True)
@given(
    st.floats(-1.0, 10.0) | st.sampled_from([0.0, -0.0]),
    st.floats(-math.pi, math.pi) | st.sampled_from([0.0, -0.0]),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(-LIMITS.a_max, LIMITS.a_max),
    st.floats(-STEER_BOX, STEER_BOX) | st.sampled_from([0.0, -0.0, STEER_BOX, -STEER_BOX]),
)
def test_step_with_the_callers_sideslip_is_bit_identical(v0, phi, x, y, a, delta):
    """Over the whole control box, handing `step` the steer's own sideslip
    changes no bit of the result."""
    s0 = VehicleState(v0, phi, x, y)
    u = ControlInput(a, delta)
    assert _bits(step(s0, u, sideslip(delta))) == _bits(step(s0, u))


@settings(deadline=None, derandomize=True)
@given(
    st.floats(-1.0, 10.0) | st.sampled_from([0.0, -0.0]),
    st.floats(-math.pi, math.pi) | st.sampled_from([0.0, -0.0]),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0]),
    st.floats(-LIMITS.a_max, LIMITS.a_max),
)
def test_negative_zero_steer_with_the_memoized_positive_zero_sideslip(v0, phi, x, y, a):
    """A steer of -0.0 may be handed the sideslip +0.0 memoized for a steer
    of 0.0.  Speed and x come out bit-identical and yaw compares equal.  y
    is bit-identical too, except that when y and yaw both start at -0.0
    it may end at +0.0: the zero's sign is all that differs."""
    s0 = VehicleState(v0, phi, x, y)
    u = ControlInput(a, -0.0)
    got, want = step(s0, u, 0.0), step(s0, u)
    assert got.v_x.hex() == want.v_x.hex() and got.x.hex() == want.x.hex()
    assert got.phi == want.phi
    if y == phi == 0.0 and math.copysign(1.0, y) == math.copysign(1.0, phi) == -1.0:
        assert got.y == want.y
    else:
        assert got.y.hex() == want.y.hex()


def test_sideslip_values():
    assert sideslip(0.0) == 0.0
    # arctan(0.5 * tan(30 deg)), hand-computed
    assert sideslip(math.radians(30.0)) == pytest.approx(0.28103490150281357, abs=1e-12)
    assert sideslip(-0.3) == -sideslip(0.3)


def test_sideslip_rejects_right_angle_steer():
    with pytest.raises(ValueError):
        sideslip(0.5 * math.pi)
    with pytest.raises(ValueError):
        sideslip(-1.6)


@given(st.floats(-1.2, 1.2))
def test_sideslip_odd_and_bounded(delta):
    assert sideslip(-delta) == pytest.approx(-sideslip(delta), abs=1e-12)
    assert abs(sideslip(delta)) <= abs(delta) + 1e-12


def test_path_curvature_values():
    assert path_curvature(0.0) == 0.0
    assert path_curvature(math.radians(30.0)) == pytest.approx(0.20619652471058064, abs=1e-12)
    assert path_curvature(-0.2) == -path_curvature(0.2)


# the rear axle and the turn center are the anchor and the ridge circle
# center of the risk field (`risk.build_field`)


def test_rear_axle_point():
    f = build_field(VehicleState(5.0, 0.0, 0.0, 0.0), 0.1, 0.0)
    assert (f.gx, f.gy) == pytest.approx((-1.4, 0.0))


def test_turn_center_offset():
    # steering chosen so the rear-axle curvature is exactly 0.2; a left
    # steer turns about a center on the left of the heading
    delta = math.atan(0.2 * WHEELBASE)
    f = build_field(VehicleState(5.0, 0.0, 0.0, 0.0), delta, 0.0)
    assert f.curvature == pytest.approx(0.2, abs=1e-12)
    assert (f.cx, f.cy) == pytest.approx((f.gx, f.gy + 5.0), abs=1e-12)


def test_turn_center_straight_signal():
    f = build_field(VehicleState(5.0, 0.3, 1.0, 2.0), 0.0, 0.0)
    assert f.curvature == 0.0
    assert (f.cx, f.cy) == (f.gx, f.gy)


@given(
    st.floats(-0.5, 0.5).filter(lambda d: abs(d) > 1e-3),
    st.floats(-math.pi, math.pi),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
)
def test_turn_center_radius_matches_curvature(delta, phi, x, y):
    f = build_field(VehicleState(4.0, phi, x, y), delta, 0.0)
    assert f.curvature == path_curvature(delta)
    assert math.hypot(f.cx - f.gx, f.cy - f.gy) * abs(f.curvature) == pytest.approx(1.0, rel=1e-9)


def test_derivative_straight_axes():
    assert rates(VehicleState(5.0, 0.0, 0.0, 0.0), ControlInput(0.0, 0.0)) == pytest.approx(
        (0.0, 0.0, 5.0, 0.0)
    )
    d = rates(VehicleState(5.0, 0.5 * math.pi, 0.0, 0.0), ControlInput(1.0, 0.0))
    assert d == pytest.approx((1.0, 0.0, 0.0, 5.0), abs=1e-12)


def test_derivative_yaw_rate_composition():
    beta = sideslip(0.1)
    d = rates(VehicleState(5.0, 0.0, 0.0, 0.0), ControlInput(0.0, 0.1))
    assert d[1] == pytest.approx(5.0 * math.tan(beta) / 1.4, abs=1e-12)


def test_step_constant_velocity_exact():
    s1 = step(VehicleState(5.0, 0.0, 0.0, 0.0), ControlInput(0.0, 0.0))
    assert s1.x == pytest.approx(0.5, abs=1e-15)
    assert s1.v_x == 5.0
    assert s1.y == 0.0
    assert s1.phi == 0.0


def test_step_constant_acceleration_exact():
    s1 = step(VehicleState(5.0, 0.0, 0.0, 0.0), ControlInput(2.0, 0.0))
    assert s1.v_x == pytest.approx(5.2, abs=1e-15)
    assert s1.x == pytest.approx(0.51, abs=1e-15)


def test_step_circle_oracle():
    """100 integrator steps against the closed-form constant-curvature orbit."""
    v, delta = 5.0, 0.2
    beta = sideslip(delta)
    omega = v * math.tan(beta) / L_R
    speed = v / math.cos(beta)
    radius = speed / omega
    st0 = VehicleState(v, 0.0, 0.0, 0.0)
    u = ControlInput(0.0, delta)
    worst = 0.0
    cur = st0
    for k in range(1, 101):
        cur = step(cur, u)
        t = k * DT
        x = radius * (math.sin(beta + omega * t) - math.sin(beta))
        y = -radius * (math.cos(beta + omega * t) - math.cos(beta))
        worst = max(worst, math.hypot(cur.x - x, cur.y - y))
    assert worst < 1e-6


def test_step_velocity_floor():
    s1 = step(VehicleState(0.3, 0.0, 0.0, 0.0), ControlInput(-8.0, 0.0))
    assert s1.v_x == 0.0
    s2 = step(s1, ControlInput(-8.0, 0.0))
    assert s2.v_x == 0.0
    assert s2.x == pytest.approx(s1.x, abs=1e-9)


def test_step_speed_constant_without_acceleration():
    cur = VehicleState(4.0, 0.2, 0.0, 0.0)
    for _ in range(50):
        cur = step(cur, ControlInput(0.0, 0.15))
        assert cur.v_x == 4.0
        assert -math.pi < cur.phi <= math.pi


def test_derivative_matches_step_difference(monkeypatch):
    """Central difference of the integrator, at a period shortened to h,
    reproduces the stated rates."""
    s0 = VehicleState(5.0, 0.4, 1.0, -2.0)
    u = ControlInput(1.0, 0.15)
    h = 1e-4
    monkeypatch.setattr(dynamics, "DT", h)
    mid = step(s0, u)
    far = step(mid, u)
    d = rates(mid, u)
    assert (far.v_x - s0.v_x) / (2.0 * h) == pytest.approx(d[0], rel=1e-6)
    assert (far.phi - s0.phi) / (2.0 * h) == pytest.approx(d[1], rel=1e-6)
    assert (far.x - s0.x) / (2.0 * h) == pytest.approx(d[2], rel=1e-6)
    assert (far.y - s0.y) / (2.0 * h) == pytest.approx(d[3], rel=1e-6)


@given(
    st.floats(-math.pi, math.pi),
    st.floats(-0.3, 0.3),
    st.floats(-2.0, 2.0),
    st.floats(0.5, 8.0),
)
def test_step_rotation_equivariance(theta, delta, a, v):
    """Rotating the start rotates the whole step by the same angle."""
    u = ControlInput(a, delta)
    base = VehicleState(v, 0.2, 1.0, -1.0)
    ct, stheta = math.cos(theta), math.sin(theta)
    rotated = VehicleState(
        v,
        base.phi + theta,
        ct * base.x - stheta * base.y,
        stheta * base.x + ct * base.y,
    )
    out = step(base, u)
    out_r = step(rotated, u)
    assert out_r.x == pytest.approx(ct * out.x - stheta * out.y, abs=1e-9)
    assert out_r.y == pytest.approx(stheta * out.x + ct * out.y, abs=1e-9)
    assert math.cos(out_r.phi) == pytest.approx(math.cos(out.phi + theta), abs=1e-9)
    assert math.sin(out_r.phi) == pytest.approx(math.sin(out.phi + theta), abs=1e-9)


def test_velocity_vector_magnitude():
    s0 = VehicleState(6.0, 0.7, 0.0, 0.0)
    vx, vy = velocity_vector(s0, 0.2)
    assert math.hypot(vx, vy) == pytest.approx(6.0 / math.cos(sideslip(0.2)), abs=1e-12)
    assert math.atan2(vy, vx) == pytest.approx(s0.phi + sideslip(0.2), abs=1e-12)


def test_derivative_floors_negative_speed():
    # the same rates as the integrator's stages: a negative speed does not move the vehicle
    d = rates(VehicleState(-1.0, 0.3, 0.0, 0.0), ControlInput(0.5, 0.1))
    assert d == (0.5, 0.0, 0.0, 0.0)
