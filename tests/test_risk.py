"""Projected risk field: ridge amplitude, spread, and the field snapshot."""

import math

import pytest
from hypothesis import given, strategies as st

from intersection_game.dynamics import L_R, VehicleState, path_curvature
from intersection_game.risk import A0, THRESHOLD, build_field

AHEAD = VehicleState(5.0, 0.0, 0.0, 0.0)


def test_ridge_amplitude_values():
    # zero exactly where the horizon ends
    assert build_field(AHEAD, 0.0, 0.0).amplitude(15.0) == pytest.approx(0.0, abs=1e-12)
    plain, bold = (build_field(AHEAD, 0.0, kappa) for kappa in (0.0, 1.0))
    assert plain.amplitude(0.0) == pytest.approx(225.0 * A0, abs=1e-9 * A0)
    assert bold.amplitude(0.0) / plain.amplitude(0.0) == pytest.approx(math.e, abs=1e-12)


def test_ridge_sigma_values():
    assert build_field(AHEAD, 0.7, 0.0).sigma(0.0) == pytest.approx(0.45, abs=1e-12)
    assert build_field(AHEAD, 0.0, 0.0).sigma(10.0) == pytest.approx(0.95, abs=1e-12)
    # steering widens the spread
    assert build_field(AHEAD, 0.2, 0.0).sigma(10.0) == pytest.approx(1.95, abs=1e-12)


@given(
    s=st.floats(min_value=0.0, max_value=50.0),
    ds=st.floats(min_value=1e-3, max_value=10.0),
    delta=st.floats(min_value=-0.5, max_value=0.5),
)
def test_ridge_sigma_strictly_increasing(s, ds, delta):
    f = build_field(AHEAD, delta, 0.0)
    assert f.sigma(s + ds) > f.sigma(s)


def field_anchor(state):
    return state.x - L_R * math.cos(state.phi), state.y - L_R * math.sin(state.phi)


def test_straight_field_on_ridge_values():
    st0 = VehicleState(5.0, 0.0, 3.0, -2.0)
    f = build_field(st0, 0.0, 0.0)
    gx, gy = field_anchor(st0)
    assert (f.gx, f.gy) == pytest.approx((gx, gy))
    assert f.value(gx + 5.0, gy) == pytest.approx(100.0 * A0, abs=1e-9 * A0)
    assert f.value(gx, gy) == pytest.approx(225.0 * A0, abs=1e-9 * A0)
    # two sigma off the ridge at s = 5, where sigma = 0.45 + 0.05 * 5
    assert f.value(gx + 5.0, gy + 1.4) == pytest.approx(100.0 * A0 * math.exp(-2.0), abs=1e-9 * A0)
    assert f.value(gx - 1.0, gy) == 0.0
    assert f.value(gx + 15.1, gy) == 0.0


def test_stationary_vehicle_projects_nothing():
    f = build_field(VehicleState(0.0, 0.0, 0.0, 0.0), 0.0, 0.0)
    for x, y in ((0.0, 0.0), (1.0, 0.0), (-3.0, 2.0)):
        assert f.value(x, y) == 0.0


@given(
    s=st.floats(min_value=0.1, max_value=14.9),
    r=st.floats(min_value=0.0, max_value=5.0),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_straight_field_symmetric_across_ridge(s, r, phi):
    f = build_field(VehicleState(5.0, phi, 1.0, -1.0), 0.0, 0.0)
    ct, stn = math.cos(phi), math.sin(phi)
    px, py = f.gx + s * ct, f.gy + s * stn
    left = f.value(px - r * stn, py + r * ct)
    right = f.value(px + r * stn, py - r * ct)
    assert left == pytest.approx(right, rel=1e-9, abs=1e-12 * A0)


def ridge_point(f, s):
    """The point s meters along the ridge of a field at heading 0 that curves left."""
    rho = f.curvature
    return f.gx + math.sin(s * rho) / rho, f.gy + (1.0 - math.cos(s * rho)) / rho


def test_curved_field_geometry():
    st0 = VehicleState(5.0, 0.0, 0.0, 0.0)
    f = build_field(st0, 0.3, 0.0)
    rho = path_curvature(0.3)
    assert rho > 0.0
    assert f.curvature == pytest.approx(rho)
    # center on the left of a left-steering vehicle
    assert (f.cx, f.cy) == pytest.approx((f.gx, f.gy + 1.0 / rho))
    for s in (2.0, 5.0, 10.0):
        px, py = ridge_point(f, s)
        assert py > f.gy
        s_back, r_back = f.ridge_arc_length(px, py)
        assert s_back == pytest.approx(s, abs=1e-9)
        assert r_back == pytest.approx(0.0, abs=1e-9)


def test_curved_field_peaks_on_the_ridge():
    f = build_field(VehicleState(5.0, 0.0, 0.0, 0.0), 0.3, 0.0)
    px, py = ridge_point(f, 5.0)
    nx, ny = px - f.cx, py - f.cy
    nn = math.hypot(nx, ny)
    nx, ny = nx / nn, ny / nn
    on_ridge = f.value(px, py)
    for t in (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0):
        assert f.value(px + t * nx, py + t * ny) < on_ridge


def test_curved_field_has_no_tail_behind():
    f = build_field(VehicleState(5.0, 0.0, 0.0, 0.0), 0.3, 0.0)
    radius = 1.0 / f.curvature
    ang0 = math.atan2(f.gy - f.cy, f.gx - f.cx)
    for back in (0.5, 2.0):
        ang = ang0 - back / radius
        bx, by = f.cx + radius * math.cos(ang), f.cy + radius * math.sin(ang)
        assert f.value(bx, by) == 0.0


@given(
    v1=st.floats(min_value=0.1, max_value=7.9),
    dv=st.floats(min_value=0.1, max_value=3.0),
    kappa=st.floats(min_value=-1.0, max_value=1.0),
)
def test_field_grows_with_speed(v1, dv, kappa):
    f1 = build_field(VehicleState(v1, 0.0, 0.0, 0.0), 0.0, kappa)
    f2 = build_field(VehicleState(v1 + dv, 0.0, 0.0, 0.0), 0.0, kappa)
    assert f2.support > f1.support
    assert f2.value(f2.gx, f2.gy) > f1.value(f1.gx, f1.gy)


def test_default_calibration_gates_close_traffic_only():
    # a vehicle straight ahead senses 0.25 at 10 m but nothing at 25 m
    f = build_field(VehicleState(5.0, 0.0, 0.0, 0.0), 0.0, 0.0)
    near = f.value(f.gx + 10.0, f.gy)
    far = f.value(f.gx + 25.0, f.gy)
    assert near == pytest.approx(0.25, abs=1e-9)
    assert far == 0.0
    assert near > THRESHOLD >= far


def test_build_field_rejects_out_of_range_aggressiveness():
    for kappa in (1.01, 1.5, -1.2):
        with pytest.raises(ValueError):
            build_field(VehicleState(5.0, 0.0, 0.0, 0.0), 0.0, kappa)


# (delta, (cx, cy), ((x, y), value) ...) for a vehicle at (12.5, -3.25),
# yaw 0.7, 6 m/s, kappa 0.3, default FieldParams, read from build_field as
# of the turn-centre rewrite: three points on the ridge, 2, 6 and 12 m
# ahead, each also 0.4 m outside and 0.9 m inside the circle
_CURVED_READINGS = (
    (0.3, (5.597995122715674, 2.7711704581143755), (
        ((12.805, -2.706), 3.4556971331815127),
        ((13.123, -2.948), 3.0934146555314053),
        ((12.088, -2.161), 1.9723711735255602),
        ((14.455, 0.903), 1.9436375795996956),
        ((14.846, 0.82), 1.8875228227608938),
        ((13.574, 1.088), 1.675222457988705),
        ((13.729, 6.748), 0.4860155477752888),
        ((14.088, 6.924), 0.48120401961620557),
        ((12.921, 6.353), 0.4623676710867142),
    )),
    (-0.3, (17.26044675288776, -11.074979982379912), (
        ((13.088, -3.042), 3.45568839121634),
        ((12.904, -2.687), 3.093076860780342),
        ((13.503, -3.841), 1.9727128342523756),
        ((16.924, -2.03), 1.94392366125203),
        ((16.91, -1.63), 1.8874187704264653),
        ((16.958, -2.929), 1.6750409772282024),
        ((22.562, -3.738), 0.4859591505784922),
        ((22.796, -3.414), 0.4812113098929717),
        ((22.035, -4.468), 0.46225475002986166),
    )),
)


@pytest.mark.parametrize("delta, center, readings", _CURVED_READINGS, ids=["left", "right"])
def test_curved_field_reproduces_recorded_values(delta, center, readings):
    """Exact turn centre and field values of a curved ridge.  The emitted
    field raster builds straight fields only, so this is what pins the
    curved branch of build_field bit for bit."""
    f = build_field(VehicleState(6.0, 0.7, 12.5, -3.25), delta, 0.3)
    assert (f.cx, f.cy) == center
    assert f.curvature == path_curvature(delta)
    for (x, y), value in readings:
        assert f.value(x, y) == value, (x, y)
