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
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

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
# margin a `Route.near` window adds past 2 * reach, relative to the size
# of the coordinates and distances involved: ~1e7 units in the last place
_WINDOW_SLACK = 1e-9

# a vehicle drives the host's lane when it is this close to the centerline (m)
# and within this angle of the lane's heading
_LEAD_LATERAL_TOL = 1.5
_LEAD_HEADING_TOL = math.pi / 3.0


class Window(NamedTuple):
    """Elements of a route that `Route.near` keeps for points within
    `reach` of (x, y); `reach_sq` is that reach squared."""

    x: float
    y: float
    reach_sq: float
    elements: tuple[int, ...]


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
        """The element holding arc length s, clamped to the route, and the
        offset into it: at a joint between two elements, the later one."""
        s = min(max(s, 0.0), self.total_length)
        i = bisect_right(self.cum_s, s) - 1
        return i, s - self.cum_s[i]

    def point_at(self, s: float) -> tuple[float, float]:
        i, ds = self._locate(s)
        return self.elements[i].point_at(ds)

    def curvature_at(self, s: float) -> float:
        i, ds = self._locate(s)
        return self.elements[i].curvature_at(ds)

    def near(self, x: float, y: float, reach: float) -> Window:
        """The elements that can hold the closest route point of any point
        within `reach` of (x, y), for `project`'s `near`.

        The distance to an element is 1-Lipschitz in the query point.  An
        element e whose distance from P = (x, y) exceeds the least one by
        more than 2 * reach is farther, from every point Q within reach of
        P, than the element nearest P: Q is more than reach from e and at
        most that from the other.  So e is neither the nearest element
        from Q nor tied with it, and dropping it changes no projection from
        such a Q.  The margin is widened past the rounding of the computed
        distances by `_WINDOW_SLACK` times a bound on the magnitudes they
        are computed from.  The kept elements stay in route order.
        """
        if not reach >= 0.0:
            raise ValueError(f"reach must be a nonnegative number: {reach}")
        dists = [el.project(x, y)[1] for el in self.elements]
        scale = abs(x) + abs(y) + reach + max(dists) + self.total_length
        cut = min(dists) + 2.0 * reach + _WINDOW_SLACK * scale
        return Window(x, y, reach * reach, tuple(i for i, d in enumerate(dists) if d <= cut))

    def project(self, x: float, y: float, near: Window | None = None) -> tuple[float, float, float]:
        """(s, lateral distance, heading) of the closest point on the route.

        The closest point is the least (distance, s) over the elements;
        `near`, a window from `near`, limits the search to its elements
        when (x, y) lies within its reach and changes nothing otherwise:
        a farther point falls back to every element.  Either way the
        result is bit for bit that of the full search.  The heading is the
        tangent of the element `_locate` picks at s: at a joint between
        two elements, the later one.
        """
        elements = self.elements
        cum_s = self.cum_s
        search: Sequence[int] | None = None
        if near is not None:
            dx, dy = x - near.x, y - near.y
            if dx * dx + dy * dy <= near.reach_sq:
                search = near.elements
        best: tuple[float, float] | None = None
        for i in range(len(elements)) if search is None else search:
            s_loc, dist = elements[i].project(x, y)
            cand = (dist, cum_s[i] + s_loc)
            if best is None or cand < best:
                best = cand
        assert best is not None
        dist, s = best
        k = bisect_right(cum_s, s) - 1
        return s, dist, elements[k].tangent_at(s - cum_s[k])

    @cached_property
    def lead_boxes(self) -> tuple[tuple[float, float, float, float], ...]:
        """Each element's axis-aligned bounding box (x_lo, y_lo, x_hi, y_hi),
        widened on every side by `_LEAD_LATERAL_TOL` plus a rounding margin:
        `_WINDOW_SLACK` times a bound on the coordinates and distances
        involved, as in `near`.  Computed on first use and kept in the
        instance dict, like `Segment`'s direction."""
        boxes = [_element_box(el) for el in self.elements]
        scale = 2.0 * max(abs(v) for box in boxes for v in box) + self.total_length + 2.0 * _LEAD_LATERAL_TOL
        w = _LEAD_LATERAL_TOL + _WINDOW_SLACK * scale
        return tuple((x_lo - w, y_lo - w, x_hi + w, y_hi + w) for x_lo, y_lo, x_hi, y_hi in boxes)


def _element_box(el: Element) -> tuple[float, float, float, float]:
    """(x_lo, y_lo, x_hi, y_hi) of an element: a segment's end points, or
    an arc's end points and those of its circle's four axis extremes that
    lie on its span."""
    points = [el.point_at(0.0), el.point_at(el.length)]
    if isinstance(el, Arc):
        r = el.radius
        for px, py in ((el.cx + r, el.cy), (el.cx, el.cy + r), (el.cx - r, el.cy), (el.cx, el.cy - r)):
            if el.angle_offset(px, py) <= abs(el.sweep):
                points.append((px, py))
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


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


# the conflict zone's four edges, corner to corner counter-clockwise
_ZONE_CORNERS = ((CZ_HALF_WIDTH, CZ_HALF_WIDTH), (-CZ_HALF_WIDTH, CZ_HALF_WIDTH),
                 (-CZ_HALF_WIDTH, -CZ_HALF_WIDTH), (CZ_HALF_WIDTH, -CZ_HALF_WIDTH))
_ZONE_EDGES = tuple(
    Segment(x0, y0, math.atan2(y1 - y0, x1 - x0), math.hypot(x1 - x0, y1 - y0))
    for (x0, y0), (x1, y1) in zip(_ZONE_CORNERS, _ZONE_CORNERS[1:] + _ZONE_CORNERS[:1])
)


def _zone_crossings(elements: tuple[Element, ...], cum_s: tuple[float, ...]) -> list[float]:
    hits: list[float] = []
    for i, el in enumerate(elements):
        for bseg in _ZONE_EDGES:
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
    crossings = _zone_crossings(elements, tuple(cum))
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
    lane ahead of host_s; None when it is off the lane, behind, or opposing.

    A point outside every box of `Route.lead_boxes` is returned None without
    a projection, and that is exact: such a point is more than the box's
    widening from each element's every point, so the computed distance to
    each element, rounding included, exceeds `_LEAD_LATERAL_TOL`, and the
    projection's distance is one of those.
    """
    for x_lo, y_lo, x_hi, y_hi in route.lead_boxes:
        if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
            break
    else:
        return None
    s, dist, lane_heading = route.project(x, y)
    if dist > _LEAD_LATERAL_TOL or s <= host_s + 1e-9:
        return None
    if abs(wrap_angle(heading - lane_heading)) > _LEAD_HEADING_TOL:
        return None
    return s
