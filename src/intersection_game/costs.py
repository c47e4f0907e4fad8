"""Per-vehicle cost terms and the aggressiveness-controlled blend.

All terms are losses (lower is better).  Safety covers car-following
closing speed, crossing-point arrival mismatch, and lane keeping;
efficiency is squared time headway.  An aggressiveness parameter kappa
shifts weight between the two groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import VehicleState
from .geometry import wrap_angle
from .network import Route

XI = 0.01  # regularizer keeping the crossing term finite at equal arrival times
HEADING_WEIGHT = 80.0
THW_CAP = 10.0  # headway saturates here when crawling
FREE_GAP = 50.0  # virtual gap when no leader is present
CRAWL_SLOPE = 1e-4  # residual speed incentive on the saturated branch
OMEGA0 = 60.0  # weight given to a risk term its field switches on


def balance_weights(kappa: float) -> tuple[float, float]:
    """(safety weight, efficiency weight); they sum to one."""
    if not -1.0 <= kappa <= 1.0:
        raise ValueError(f"aggressiveness {kappa} outside [-1, 1]")
    k_s = 1.0 / (1.0 + math.exp(2.0 * kappa))
    return k_s, 1.0 - k_s


def following_risk(v_host: float, v_leader: float, gap: float) -> float:
    """Squared closing rate over gap; zero when the leader pulls away."""
    if gap <= 0.0:
        raise ValueError(f"nonpositive gap: {gap}")
    dv = v_host - v_leader
    if dv < 0.0:
        return 0.0
    return (dv / gap) ** 2


def crossing_risk(d_host: float, v_host: float, d_other: float, v_other: float) -> float:
    """Penalty for arriving at a shared point at the same time.

    Arrival times are distance over speed; a stopped vehicle never
    arrives, which disarms the term.
    """
    if v_host <= 1e-9 or v_other <= 1e-9:
        return 0.0
    t_host = d_host / v_host
    t_other = d_other / v_other
    return 1.0 / ((t_host - t_other) ** 2 + XI)


def lane_errors(route: Route, state: VehicleState, beta: float) -> tuple[float, float, float]:
    """(arc length, lateral offset, course error) of the body frame against
    the route, for a vehicle moving at sideslip beta.

    The course error compares the direction of motion, yaw plus sideslip,
    with the local route tangent, so steady cornering carries no error.
    """
    s, dy, heading = route.project(state.x, state.y)
    return s, dy, wrap_angle(state.phi + beta - heading)


def lane_keeping(dy: float, dphi: float) -> float:
    return dy * dy + HEADING_WEIGHT * dphi * dphi


def efficiency(gap: float, v: float) -> float:
    raw = gap / v if v > 1e-9 else math.inf
    thw = min(raw, THW_CAP)
    cost = thw * thw
    # on the saturated branch the squared headway is flat in v, which
    # would make standstill a local optimum under the smallest-|a|
    # tie-break; keep a bounded slope so creeping forward still pays
    if raw > THW_CAP:
        cost += min(CRAWL_SLOPE * (raw - THW_CAP), 1.0)
    return cost


def blended_loss(
    v_log: float, v_lat: float, v_lk: float, v_e: float,
    omega_log: float, omega_lat: float, k_s: float, k_e: float,
) -> float:
    """k_s * (gated safety group) + k_e * efficiency: a vehicle's own loss."""
    return k_s * (omega_log * v_log + omega_lat * v_lat + v_lk) + k_e * v_e


@dataclass(frozen=True)
class CostTerms:
    v_log: float
    v_lat: float
    v_lk: float
    v_e: float
    omega_log: float
    omega_lat: float
    k_s: float
    k_e: float

    @property
    def total(self) -> float:
        return blended_loss(
            self.v_log, self.v_lat, self.v_lk, self.v_e, self.omega_log, self.omega_lat, self.k_s, self.k_e
        )
