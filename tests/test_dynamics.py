"""Bicycle model: sideslip, curvature, turn center, and the integrator."""

import math

import pytest
from hypothesis import given, strategies as st

from intersection_game.dynamics import (
    DEFAULT_VEHICLE,
    ControlInput,
    VehicleParams,
    VehicleState,
    _rates,
    _yaw_gain,
    path_curvature,
    rear_axle_and_turn_center,
    sideslip,
    step,
    velocity_vector,
)


def rates(state, u, params=DEFAULT_VEHICLE):
    """Time derivative (dv, dphi, dx, dy) of the state under control u, from the integrator's stage rates."""
    beta = sideslip(u.delta_f, params)
    return _rates(state.v_x, state.phi, u.a_x, beta, math.cos(beta), _yaw_gain(beta, params))


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


@given(st.floats(-1.2, 1.2), st.floats(0.5, 2.5), st.floats(0.5, 2.5))
def test_sideslip_odd_and_bounded(delta, l_f, l_r):
    p = VehicleParams(l_f=l_f, l_r=l_r)
    assert sideslip(-delta, p) == pytest.approx(-sideslip(delta, p), abs=1e-12)
    assert abs(sideslip(delta, p)) <= abs(delta) + 1e-12


def test_path_curvature_values():
    assert path_curvature(0.0) == 0.0
    assert path_curvature(math.radians(30.0)) == pytest.approx(0.20619652471058064, abs=1e-12)
    assert path_curvature(-0.2) == -path_curvature(0.2)


def test_rear_axle_point():
    st0 = VehicleState(5.0, 0.0, 0.0, 0.0)
    (gx, gy), _ = rear_axle_and_turn_center(st0, 0.1)
    assert (gx, gy) == pytest.approx((-1.4, 0.0))


def test_turn_center_offset():
    # steering chosen so the rear-axle curvature is exactly 0.2
    delta = math.atan(0.2 * DEFAULT_VEHICLE.wheelbase)
    st0 = VehicleState(5.0, 0.0, 0.0, 0.0)
    (gx, gy), center = rear_axle_and_turn_center(st0, delta)
    assert center is not None
    assert center == pytest.approx((gx, gy - 5.0), abs=1e-12)


def test_turn_center_straight_signal():
    st0 = VehicleState(5.0, 0.3, 1.0, 2.0)
    _, center = rear_axle_and_turn_center(st0, 0.0)
    assert center is None


@given(
    st.floats(-0.5, 0.5).filter(lambda d: abs(d) > 1e-3),
    st.floats(-math.pi, math.pi),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
)
def test_turn_center_radius_matches_curvature(delta, phi, x, y):
    st0 = VehicleState(4.0, phi, x, y)
    (gx, gy), center = rear_axle_and_turn_center(st0, delta)
    rho = path_curvature(delta)
    assert center is not None
    assert math.hypot(center[0] - gx, center[1] - gy) * abs(rho) == pytest.approx(1.0, rel=1e-9)


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


def test_derivative_sin_variant_differs():
    u = ControlInput(0.0, 0.2)
    s0 = VehicleState(5.0, 0.0, 0.0, 0.0)
    d_tan = rates(s0, u, VehicleParams(yaw_form="tan"))
    d_sin = rates(s0, u, VehicleParams(yaw_form="sin"))
    assert d_tan[1] > d_sin[1] > 0.0
    with pytest.raises(ValueError):
        _yaw_gain(sideslip(u.delta_f), VehicleParams(yaw_form="euler"))


def test_step_constant_velocity_exact():
    s1 = step(VehicleState(5.0, 0.0, 0.0, 0.0), ControlInput(0.0, 0.0), 0.1)
    assert s1.x == pytest.approx(0.5, abs=1e-15)
    assert s1.v_x == 5.0
    assert s1.y == 0.0
    assert s1.phi == 0.0


def test_step_constant_acceleration_exact():
    s1 = step(VehicleState(5.0, 0.0, 0.0, 0.0), ControlInput(2.0, 0.0), 0.1)
    assert s1.v_x == pytest.approx(5.2, abs=1e-15)
    assert s1.x == pytest.approx(0.51, abs=1e-15)


def test_step_circle_oracle():
    """100 integrator steps against the closed-form constant-curvature orbit."""
    v, delta, dt = 5.0, 0.2, 0.1
    beta = sideslip(delta)
    omega = v * math.tan(beta) / DEFAULT_VEHICLE.l_r
    speed = v / math.cos(beta)
    radius = speed / omega
    st0 = VehicleState(v, 0.0, 0.0, 0.0)
    u = ControlInput(0.0, delta)
    worst = 0.0
    cur = st0
    for k in range(1, 101):
        cur = step(cur, u, dt)
        t = k * dt
        x = radius * (math.sin(beta + omega * t) - math.sin(beta))
        y = -radius * (math.cos(beta + omega * t) - math.cos(beta))
        worst = max(worst, math.hypot(cur.x - x, cur.y - y))
    assert worst < 1e-6


def test_step_velocity_floor():
    s1 = step(VehicleState(0.3, 0.0, 0.0, 0.0), ControlInput(-8.0, 0.0), 0.1)
    assert s1.v_x == 0.0
    s2 = step(s1, ControlInput(-8.0, 0.0), 0.1)
    assert s2.v_x == 0.0
    assert s2.x == pytest.approx(s1.x, abs=1e-9)


def test_step_speed_constant_without_acceleration():
    cur = VehicleState(4.0, 0.2, 0.0, 0.0)
    for _ in range(50):
        cur = step(cur, ControlInput(0.0, 0.15), 0.1)
        assert cur.v_x == 4.0
        assert -math.pi < cur.phi <= math.pi


def test_derivative_matches_step_difference():
    """Central difference of the integrator reproduces the stated rates."""
    s0 = VehicleState(5.0, 0.4, 1.0, -2.0)
    u = ControlInput(1.0, 0.15)
    h = 1e-4
    mid = step(s0, u, h)
    far = step(mid, u, h)
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
    out = step(base, u, 0.1)
    out_r = step(rotated, u, 0.1)
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
