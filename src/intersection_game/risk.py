"""Gaussian risk field a vehicle projects along its predicted path.

The field ridge follows the rear-axle path under the currently applied
steering: a ray when driving straight, otherwise the circle the rear axle
is on.  Amplitude starts at its peak at the vehicle and decays
quadratically to zero at the prediction horizon; the cross-ridge profile
is Gaussian with a width that grows along the ridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import L_R, WIDTH, VehicleState, path_curvature


A0 = 0.01  # base amplitude per squared meter of remaining horizon
SPREAD_B = 0.05  # width growth per meter of ridge
SPREAD_C = 0.5  # extra width growth per radian of steering
THRESHOLD = 0.1  # field level that switches a risk weight on
HORIZON = 4.0  # s, prediction time the ridge covers


@dataclass(frozen=True)
class GaussianField:
    """Frozen snapshot of one vehicle's field; value() evaluates it."""

    gx: float  # rear-axle anchor, ridge arc length zero
    gy: float
    heading: float
    curvature: float  # signed ridge curvature, zero for a straight ridge
    cx: float  # ridge circle center (unused when straight)
    cy: float
    peak: float  # amplitude coefficient, already scaled by aggressiveness
    support: float  # ridge length covered by the prediction horizon
    sigma0: float
    sigma_slope: float

    def ridge_arc_length(self, x: float, y: float) -> tuple[float, float]:
        """(s, lateral deviation) of a point relative to the ridge.

        s is measured in the travel direction and can exceed the support;
        points behind a straight ridge get negative s, points behind a
        curved one wrap to large positive s and fall off the support.
        """
        if self.curvature == 0.0:
            dx = x - self.gx
            dy = y - self.gy
            ct, st = math.cos(self.heading), math.sin(self.heading)
            return dx * ct + dy * st, abs(-st * dx + ct * dy)
        radius = 1.0 / abs(self.curvature)
        sign = 1.0 if self.curvature > 0.0 else -1.0
        ang = math.atan2(y - self.cy, x - self.cx)
        ang0 = math.atan2(self.gy - self.cy, self.gx - self.cx)
        d = math.fmod(sign * (ang - ang0), 2.0 * math.pi)
        if d < 0.0:
            d += 2.0 * math.pi
        return radius * d, abs(math.hypot(x - self.cx, y - self.cy) - radius)

    def amplitude(self, s: float) -> float:
        """Field strength on the ridge s meters ahead, peaking at the vehicle
        and falling quadratically to zero where the prediction horizon ends."""
        return self.peak * (s - self.support) ** 2

    def sigma(self, s: float) -> float:
        """Cross-ridge spread s meters along the ridge."""
        return self.sigma0 + self.sigma_slope * s

    def value(self, x: float, y: float) -> float:
        if self.support <= 0.0 or self.peak <= 0.0:
            return 0.0
        s, r = self.ridge_arc_length(x, y)
        if s < 0.0 or s > self.support:
            return 0.0
        sigma = self.sigma(s)
        return self.amplitude(s) * math.exp(-r * r / (2.0 * sigma * sigma))


def build_field(state: VehicleState, delta_f: float, kappa: float) -> GaussianField:
    """Field snapshot for a vehicle at `state` holding steering `delta_f`."""
    if not -1.0 <= kappa <= 1.0:
        raise ValueError(f"aggressiveness {kappa} outside [-1, 1]")
    gx = state.x - L_R * math.cos(state.phi)
    gy = state.y - L_R * math.sin(state.phi)
    rho = path_curvature(delta_f)
    if abs(rho) < 1e-9:
        rho = 0.0
        cx, cy = gx, gy
    else:
        # the center sits 1/rho from the rear axle on the side the yaw
        # rate turns toward: left of the heading for a left steer
        cx = gx - math.sin(state.phi) / rho
        cy = gy + math.cos(state.phi) / rho
    return GaussianField(
        gx=gx,
        gy=gy,
        heading=state.phi,
        curvature=rho,
        cx=cx,
        cy=cy,
        peak=A0 * math.exp(kappa),
        support=max(state.v_x, 0.0) * HORIZON,
        sigma0=WIDTH / 4.0,
        sigma_slope=SPREAD_B + SPREAD_C * abs(delta_f),
    )
