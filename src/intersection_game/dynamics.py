"""Kinematic bicycle model for the center of gravity of a vehicle.

State is (v_x, phi, x, y): longitudinal velocity, yaw, and planar position
of the CoG.  Controls are longitudinal acceleration and front steering
angle, both held constant over one control period `DT`; `step` advances
the state by the exact solution over that period.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import wrap_angle

L_F = 1.4  # m, CoG to front axle
L_R = 1.4  # m, CoG to rear axle
WIDTH = 1.8  # m
WHEELBASE = L_F + L_R
DT = 0.1  # s, the control period: one decision, one closed-form step


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
    """Speed after one control period at constant acceleration a, floored
    at zero: the next speed of `step` and of the solver's speed limits."""
    v1 = v0 + a * DT
    return 0.0 if v1 < 0.0 else v1


def step(state: VehicleState, u: ControlInput, beta: float | None = None) -> VehicleState:
    """The exact state after one control period with the control held.

    The rates are (dv, dphi, dx, dy) = (a_x, v k, v cos(phi + beta) /
    cos(beta), v sin(phi + beta) / cos(beta)) with k = tan(beta) / l_r,
    and a speed that reaches zero stays there.  Under a held steer beta
    is constant, so the CoG moves on a circular arc of curvature
    sin(beta) / l_r (Kong et al., IEEE IV 2015; Rajamani, Vehicle Dynamics
    and Control, 2nd ed., sec. 2.2):

    - the distance D = integral of v is (v0 + a DT / 2) DT, or v0^2 / (-2a)
      when the vehicle stops within the period;
    - the yaw turns by D k;
    - the CoG moves along the arc's chord: length (D / cos(beta)) times
      sinc of half the turn, direction phi0 + beta + half the turn.

    The start speed must be nonnegative, as scenarios and the speed floor
    keep it.  A caller may pass `beta`, which must be
    `sideslip(u.delta_f)`.
    """
    beta = sideslip(u.delta_f) if beta is None else beta
    v0, a = state.v_x, u.a_x
    v1 = step_speed(v0, a)
    if v1 == 0.0 and a < 0.0:
        dist = v0 * v0 / (-2.0 * a)  # stops within the period
    else:
        dist = (v0 + 0.5 * a * DT) * DT
    turn = math.tan(beta) * dist / L_R
    half = 0.5 * turn
    # sin(half) / half; below 1e-4 its series is exact to rounding and
    # also covers a zero turn
    sinc = 1.0 - half * half / 6.0 if -1e-4 < half < 1e-4 else math.sin(half) / half
    chord = dist / math.cos(beta) * sinc
    heading = state.phi + beta + half
    return VehicleState(
        v1,
        wrap_angle(state.phi + turn),
        state.x + chord * math.cos(heading),
        state.y + chord * math.sin(heading),
    )


def velocity_vector(state: VehicleState, delta_f: float) -> tuple[float, float]:
    """CoG velocity (vx, vy); magnitude is v_x / cos(beta)."""
    beta = sideslip(delta_f)
    speed = state.v_x / math.cos(beta)
    return (speed * math.cos(state.phi + beta), speed * math.sin(state.phi + beta))
