"""Kinematic bicycle model for the center of gravity of a vehicle.

State is (v_x, phi, x, y): longitudinal velocity, yaw, and planar position
of the CoG.  Controls are longitudinal acceleration and front steering
angle, both held constant over an integration step (RK4, fixed dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import wrap_angle


@dataclass(frozen=True)
class VehicleParams:
    """Geometric parameters; l_f/l_r are CoG-to-axle distances."""

    l_f: float = 1.4
    l_r: float = 1.4
    width: float = 1.8

    @property
    def wheelbase(self) -> float:
        return self.l_f + self.l_r


@dataclass(frozen=True)
class VehicleState:
    v_x: float
    phi: float
    x: float
    y: float


@dataclass(frozen=True)
class ControlInput:
    a_x: float
    delta_f: float


DEFAULT_VEHICLE = VehicleParams()


def sideslip(delta_f: float, params: VehicleParams = DEFAULT_VEHICLE) -> float:
    """Sideslip angle beta = arctan(l_r / (l_f + l_r) * tan(delta_f))."""
    if not -0.5 * math.pi < delta_f < 0.5 * math.pi:
        raise ValueError(f"steering angle out of range: {delta_f}")
    return math.atan(params.l_r / params.wheelbase * math.tan(delta_f))


def path_curvature(delta_f: float, params: VehicleParams = DEFAULT_VEHICLE) -> float:
    """Signed curvature of the rear-axle path, tan(delta_f) / wheelbase."""
    return math.tan(delta_f) / params.wheelbase


def rear_axle_and_turn_center(
    state: VehicleState, delta_f: float, params: VehicleParams = DEFAULT_VEHICLE
) -> tuple[tuple[float, float], tuple[float, float] | None]:
    """Rear-axle point and the turn-center point, None center when driving straight.

    The center is the rear-axle point displaced by 1/curvature along
    (sin(phi), -cos(phi)); callers that need the center on the side the
    yaw rate actually turns toward must mirror it (see risk.build_field).
    """
    gx = state.x - params.l_r * math.cos(state.phi)
    gy = state.y - params.l_r * math.sin(state.phi)
    rho = path_curvature(delta_f, params)
    if abs(rho) < 1e-9:
        return (gx, gy), None
    cx = gx + math.sin(state.phi) / rho
    cy = gy - math.cos(state.phi) / rho
    return (gx, gy), (cx, cy)


def _rates(
    v: float, phi: float, a_x: float, beta: float, cos_beta: float, k_yaw: float
) -> tuple[float, float, float, float]:
    """(dv, dphi, dx, dy) at speed v and yaw phi; a negative speed counts as zero."""
    vv = v if v > 0.0 else 0.0
    return (
        a_x,
        vv * k_yaw,
        vv * math.cos(phi + beta) / cos_beta,
        vv * math.sin(phi + beta) / cos_beta,
    )


def step(
    state: VehicleState, u: ControlInput, dt: float, params: VehicleParams = DEFAULT_VEHICLE
) -> VehicleState:
    """One RK4 step with the control held constant; velocity floors at zero."""
    beta = sideslip(u.delta_f, params)
    k_yaw = math.tan(beta) / params.l_r  # yaw rate per unit of speed
    cb = math.cos(beta)
    a = u.a_x

    v0, p0 = state.v_x, state.phi
    k1 = _rates(v0, p0, a, beta, cb, k_yaw)
    k2 = _rates(v0 + 0.5 * dt * k1[0], p0 + 0.5 * dt * k1[1], a, beta, cb, k_yaw)
    k3 = _rates(v0 + 0.5 * dt * k2[0], p0 + 0.5 * dt * k2[1], a, beta, cb, k_yaw)
    k4 = _rates(v0 + dt * k3[0], p0 + dt * k3[1], a, beta, cb, k_yaw)

    v1 = v0 + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
    p1 = p0 + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
    x1 = state.x + dt * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
    y1 = state.y + dt * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]) / 6.0
    if v1 < 0.0:
        v1 = 0.0
    return VehicleState(v1, wrap_angle(p1), x1, y1)


def velocity_vector(
    state: VehicleState, delta_f: float, params: VehicleParams = DEFAULT_VEHICLE
) -> tuple[float, float]:
    """CoG velocity (vx, vy); magnitude is v_x / cos(beta)."""
    beta = sideslip(delta_f, params)
    speed = state.v_x / math.cos(beta)
    return (speed * math.cos(state.phi + beta), speed * math.sin(state.phi + beta))
