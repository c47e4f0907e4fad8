"""Kinematic bicycle model for the center of gravity of a vehicle.

State is (v_x, phi, x, y): longitudinal velocity, yaw, and planar position
of the CoG.  Controls are longitudinal acceleration and front steering
angle, both held constant over one control period `DT` (one RK4 step).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import wrap_angle

L_F = 1.4  # m, CoG to front axle
L_R = 1.4  # m, CoG to rear axle
WIDTH = 1.8  # m
WHEELBASE = L_F + L_R
DT = 0.1  # s, the control period: one RK4 step per decision


# immutable records without a per-instance dict: the solver builds one
# state and one control per candidate it predicts
class VehicleState(NamedTuple):
    v_x: float
    phi: float
    x: float
    y: float


class ControlInput(NamedTuple):
    a_x: float
    delta_f: float


def sideslip(delta_f: float) -> float:
    """Sideslip angle beta = arctan(l_r / (l_f + l_r) * tan(delta_f))."""
    if not -0.5 * math.pi < delta_f < 0.5 * math.pi:
        raise ValueError(f"steering angle out of range: {delta_f}")
    return math.atan(L_R / WHEELBASE * math.tan(delta_f))


def path_curvature(delta_f: float) -> float:
    """Signed curvature of the rear-axle path, tan(delta_f) / wheelbase."""
    return math.tan(delta_f) / WHEELBASE


def step_speed(v0: float, a: float) -> float:
    """Speed after one RK4 step at constant acceleration a, floored at
    zero: the weighted mean of the four stage rates, each of them a."""
    v1 = v0 + DT * (a + 2 * a + 2 * a + a) / 6.0
    return 0.0 if v1 < 0.0 else v1


def step(state: VehicleState, u: ControlInput, beta: float | None = None) -> VehicleState:
    """One RK4 step with the control held constant; velocity floors at zero.

    Each stage's rates are (dv, dphi, dx, dy) = (a_x, v k_yaw,
    v cos(phi + beta) / cos(beta), v sin(phi + beta) / cos(beta)), where
    a negative stage speed v counts as zero.  dv is a_x in every stage,
    so the stage speeds need no stage rates of their own.  A caller may
    pass `beta`, which must be `sideslip(u.delta_f)`.
    """
    beta = sideslip(u.delta_f) if beta is None else beta
    k_yaw = math.tan(beta) / L_R  # yaw rate per unit of speed
    cb = math.cos(beta)
    a = u.a_x
    cos, sin = math.cos, math.sin

    v0, p0 = state.v_x, state.phi
    v_half = v0 + 0.5 * DT * a
    v_full = v0 + DT * a

    vv = v0 if v0 > 0.0 else 0.0
    w1 = vv * k_yaw
    x1 = vv * cos(p0 + beta) / cb
    y1 = vv * sin(p0 + beta) / cb

    vv = v_half if v_half > 0.0 else 0.0
    p = p0 + 0.5 * DT * w1
    w2 = vv * k_yaw
    x2 = vv * cos(p + beta) / cb
    y2 = vv * sin(p + beta) / cb

    p = p0 + 0.5 * DT * w2
    w3 = vv * k_yaw
    x3 = vv * cos(p + beta) / cb
    y3 = vv * sin(p + beta) / cb

    vv = v_full if v_full > 0.0 else 0.0
    p = p0 + DT * w3
    w4 = vv * k_yaw
    x4 = vv * cos(p + beta) / cb
    y4 = vv * sin(p + beta) / cb

    p1 = p0 + DT * (w1 + 2 * w2 + 2 * w3 + w4) / 6.0
    return VehicleState(
        step_speed(v0, a),
        wrap_angle(p1),
        state.x + DT * (x1 + 2 * x2 + 2 * x3 + x4) / 6.0,
        state.y + DT * (y1 + 2 * y2 + 2 * y3 + y4) / 6.0,
    )


def velocity_vector(state: VehicleState, delta_f: float) -> tuple[float, float]:
    """CoG velocity (vx, vy); magnitude is v_x / cos(beta)."""
    beta = sideslip(delta_f)
    speed = state.v_x / math.cos(beta)
    return (speed * math.cos(state.phi + beta), speed * math.sin(state.phi + beta))
