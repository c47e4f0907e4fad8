"""Intersection layout: approach roads, lane-level routes, conflict points.

Four orthogonal arms, named M1..M4 (from west, south, east, north), meet at
a square conflict zone centered on the origin.  Each arm carries an inbound
and an outbound road, each with an inner and an outer lane, offset to the
right of the travel direction.  A route is an entry lane, a maneuver (left /
straight / right) and the implied exit lane, flattened to a polyline of
segments and circular arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import (
    Arc,
    Element,
    Segment,
    element_crossings,
    segment_overlap,
    wrap_angle,
)

ARM_NAMES = ("M1", "M2", "M3", "M4")
MANEUVERS = ("left", "straight", "right")
LANES = ("inner", "outer")

# exit arm index shift per maneuver (left of M1 leaves through M4's arm, etc.)
_EXIT_SHIFT = {"left": -1, "straight": 2, "right": 1}

# the one intersection's layout (m): zone half width, lane centerline
# offsets to the right of the travel direction, exit road length and
# turn radii, and how far past the zone's far edge a vehicle stays PV
CZ_HALF_WIDTH = 10.0
LANE_OFFSET_INNER = 2.0
LANE_OFFSET_OUTER = 6.0
EXIT_LENGTH = 30.0
RIGHT_TURN_RADIUS = 9.0
LEFT_TURN_RADIUS = CZ_HALF_WIDTH + LANE_OFFSET_INNER  # tangent to the entry lane exactly at the zone edge
OV_EXIT_MARGIN = 5.0

_DEDUP_TOL = 1e-6

# a vehicle drives the host's lane when it is this close to the centerline (m)
# and within this angle of the lane's heading
_LEAD_LATERAL_TOL = 1.5
_LEAD_HEADING_TOL = math.pi / 3.0


class ZoneRole(Enum):
    """Position of a vehicle relative to the conflict zone."""

    RV = "RV"  # remote, still on the approach
    PV = "PV"  # inside the zone (plus a short tail past the far edge)
    OV = "OV"  # cleared the zone


@dataclass(frozen=True)
class Route:
    name: str
    lane: str
    elements: tuple[Element, ...]
    cum_s: tuple[float, ...]
    total_length: float
    s_cz_entry: float
    s_cz_exit: float

    def _locate(self, s: float) -> tuple[int, float]:
        s = min(max(s, 0.0), self.total_length)
        for i in range(len(self.elements) - 1, 0, -1):
            if s >= self.cum_s[i]:
                return i, s - self.cum_s[i]
        return 0, s

    def point_at(self, s: float) -> tuple[float, float]:
        i, ds = self._locate(s)
        return self.elements[i].point_at(ds)

    def curvature_at(self, s: float) -> float:
        i, ds = self._locate(s)
        return self.elements[i].curvature_at(ds)

    def project(self, x: float, y: float) -> tuple[float, float, float]:
        """(s, lateral distance, heading) of the closest point on the route.

        The heading is the tangent of the element `_locate` picks at s: at
        a joint between two elements, the later one.
        """
        cum_s = self.cum_s
        best: tuple[float, float] | None = None
        k = 0
        for i, el in enumerate(self.elements):
            s_loc, dist = el.project(x, y)
            cand = (dist, cum_s[i] + s_loc)
            if best is None or cand < best:
                best, k = cand, i
        assert best is not None
        dist, s = best
        last = len(cum_s) - 1
        while k < last and s >= cum_s[k + 1]:
            k += 1
        return s, dist, self.elements[k].tangent_at(s - cum_s[k])


@dataclass(frozen=True)
class Conflict:
    """Point where two routes interact.

    cross: transversal intersection; confluence: the downstream join point
    where one route merges onto the other's lane; following: start of the
    stretch the two routes share.
    """

    kind: str
    x: float
    y: float
    s_a: float
    s_b: float


def _arm_heading(index: int) -> float:
    return wrap_angle(0.5 * math.pi * index)


def _lane_anchor(arm: int, lane: str, inbound: bool) -> tuple[float, tuple[float, float]]:
    """Heading of an arm's inbound or outbound road, and the point where
    the lane's centerline meets the conflict-zone edge."""
    psi = _arm_heading(arm)
    edge = -CZ_HALF_WIDTH
    if not inbound:
        psi = wrap_angle(psi + math.pi)
        edge = CZ_HALF_WIDTH
    off = LANE_OFFSET_INNER if lane == "inner" else LANE_OFFSET_OUTER
    ux, uy = math.cos(psi), math.sin(psi)
    nx, ny = math.sin(psi), -math.cos(psi)  # unit normal to the right
    return psi, (edge * ux + off * nx, edge * uy + off * ny)


def _boundary_segments(h: float) -> tuple[Segment, ...]:
    corners = [(h, h), (-h, h), (-h, -h), (h, -h)]
    segs = []
    for i in range(4):
        x0, y0 = corners[i]
        x1, y1 = corners[(i + 1) % 4]
        segs.append(Segment(x0, y0, math.atan2(y1 - y0, x1 - x0), math.hypot(x1 - x0, y1 - y0)))
    return tuple(segs)


def _zone_crossings(elements: tuple[Element, ...], cum_s: tuple[float, ...], h: float) -> list[float]:
    hits: list[float] = []
    for i, el in enumerate(elements):
        for bseg in _boundary_segments(h):
            for s_el, _ in element_crossings(el, bseg):
                hits.append(cum_s[i] + s_el)
    hits.sort()
    dedup: list[float] = []
    for s in hits:
        if not dedup or s - dedup[-1] > _DEDUP_TOL:
            dedup.append(s)
    return dedup


def route_for(approach_length: float, entry_road: str, maneuver: str, lane: str | None = None) -> Route:
    """Build the route from an inbound road, `approach_length` metres
    before the zone, through the zone to its exit lane."""
    if entry_road not in ARM_NAMES:
        raise ValueError(f"unknown entry road: {entry_road!r}")
    if maneuver not in MANEUVERS:
        raise ValueError(f"unknown maneuver: {maneuver!r}")
    if lane is None:
        lane = "inner" if maneuver == "left" else "outer"
    if lane not in LANES:
        raise ValueError(f"unknown lane: {lane!r}")
    if maneuver == "left" and lane != "inner":
        raise ValueError("left turns run from the inner lane")
    if maneuver == "right" and lane != "outer":
        raise ValueError("right turns run from the outer lane")

    k = ARM_NAMES.index(entry_road)
    psi_in, (ax, ay) = _lane_anchor(k, lane, inbound=True)
    psi_out, (ex, ey) = _lane_anchor((k + _EXIT_SHIFT[maneuver]) % 4, lane, inbound=False)
    u_in = (math.cos(psi_in), math.sin(psi_in))
    u_out = (math.cos(psi_out), math.sin(psi_out))
    p0 = (ax - approach_length * u_in[0], ay - approach_length * u_in[1])

    if maneuver == "straight":
        length = approach_length + 2.0 * CZ_HALF_WIDTH + EXIT_LENGTH
        elements: tuple[Element, ...] = (Segment(p0[0], p0[1], psi_in, length),)
    else:
        radius = LEFT_TURN_RADIUS if maneuver == "left" else RIGHT_TURN_RADIUS
        side = 1.0 if maneuver == "left" else -1.0
        m_in = (-u_in[1], u_in[0])
        m_out = (-u_out[1], u_out[0])
        # center sits at signed left distance side*radius from both lane lines
        c1 = side * radius + m_in[0] * ax + m_in[1] * ay
        c2 = side * radius + m_out[0] * ex + m_out[1] * ey
        det = m_in[0] * m_out[1] - m_in[1] * m_out[0]
        cx = (c1 * m_out[1] - c2 * m_in[1]) / det
        cy = (m_in[0] * c2 - m_out[0] * c1) / det
        t_in = (cx - side * radius * m_in[0], cy - side * radius * m_in[1])
        t_out = (cx - side * radius * m_out[0], cy - side * radius * m_out[1])
        approach_len = (t_in[0] - p0[0]) * u_in[0] + (t_in[1] - p0[1]) * u_in[1]
        sweep = wrap_angle(psi_out - psi_in)
        theta0 = math.atan2(t_in[1] - cy, t_in[0] - cx)
        arc = Arc(cx, cy, radius, theta0, sweep)
        end = (ex + EXIT_LENGTH * u_out[0], ey + EXIT_LENGTH * u_out[1])
        exit_len = (end[0] - t_out[0]) * u_out[0] + (end[1] - t_out[1]) * u_out[1]
        if approach_len <= 0.0 or exit_len <= 0.0:
            raise ValueError(f"turn arc does not fit the roads for {entry_road} {maneuver}")
        elements = (
            Segment(p0[0], p0[1], psi_in, approach_len),
            arc,
            Segment(t_out[0], t_out[1], psi_out, exit_len),
        )

    cum = [0.0]
    for el in elements[:-1]:
        cum.append(cum[-1] + el.length)
    total = cum[-1] + elements[-1].length
    crossings = _zone_crossings(elements, tuple(cum), CZ_HALF_WIDTH)
    if len(crossings) < 2:
        raise ValueError(f"route {entry_road} {maneuver} does not traverse the zone")
    return Route(
        name=f"{entry_road}-{lane}-{maneuver}",
        lane=lane,
        elements=elements,
        cum_s=tuple(cum),
        total_length=total,
        s_cz_entry=crossings[0],
        s_cz_exit=crossings[-1],
    )


def conflict_points(a: Route, b: Route) -> list[Conflict]:
    """All interaction points between two routes, sorted along route a."""
    out: list[Conflict] = []
    for i, ea in enumerate(a.elements):
        for j, eb in enumerate(b.elements):
            for s_ea, s_eb in element_crossings(ea, eb):
                x, y = ea.point_at(s_ea)
                out.append(Conflict("cross", x, y, a.cum_s[i] + s_ea, b.cum_s[j] + s_eb))

    # earliest stretch of shared lane, if any
    best: tuple[float, float, int, int, float, float] | None = None
    for i, ea in enumerate(a.elements):
        if not isinstance(ea, Segment):
            continue
        for j, eb in enumerate(b.elements):
            if not isinstance(eb, Segment):
                continue
            ov = segment_overlap(ea, eb)
            if ov is None:
                continue
            s_a = a.cum_s[i] + ov[0]
            if best is None or s_a < best[0]:
                best = (s_a, b.cum_s[j] + ov[1], i, j, ov[0], ov[1])
    if best is not None:
        s_a, s_b, i, j, loc_a, loc_b = best
        x, y = a.elements[i].point_at(loc_a)
        # a route that reaches the shared lane through a turn creates a merge
        joins_mid_route = (loc_a <= _DEDUP_TOL and i > 0) or (loc_b <= _DEDUP_TOL and j > 0)
        if joins_mid_route:
            out.append(Conflict("confluence", x, y, s_a, s_b))
        out.append(Conflict("following", x, y, s_a, s_b))

    out.sort(key=lambda c: (c.s_a, c.kind, c.s_b))
    return out


def classify_zone_role(route: Route, s: float) -> ZoneRole:
    if s < route.s_cz_entry:
        return ZoneRole.RV
    if s < route.s_cz_exit + OV_EXIT_MARGIN:
        return ZoneRole.PV
    return ZoneRole.OV


def lead_distance_on_route(route: Route, host_s: float, x: float, y: float, heading: float) -> float | None:
    """Arc length of a vehicle at (x, y) along `route` when it drives the same
    lane ahead of host_s; None when it is off the lane, behind, or opposing."""
    s, dist, lane_heading = route.project(x, y)
    if dist > _LEAD_LATERAL_TOL or s <= host_s + 1e-9:
        return None
    if abs(wrap_angle(heading - lane_heading)) > _LEAD_HEADING_TOL:
        return None
    return s

