"""Planar path primitives: directed line segments and circular arcs.

Routes through the intersection are chains of these two primitives,
parameterized by arc length.  Everything here is pure geometry; tolerances
are absolute (coordinates are metres and stay within ~1e2 of the origin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

TWO_PI = 2.0 * math.pi

# below this, a discriminant is treated as a tangential graze, not a crossing
_TANGENT_TOL = 1e-6
_TOL = 1e-9
# largest offset of a segment's start from another's line that still counts as collinear
_COLLINEAR_TOL = 1e-7


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class Segment:
    """Directed straight piece starting at (x0, y0) with constant heading.

    The unit direction (ux, uy) is computed on first use and kept in the
    instance dict; equality, hashing and repr see only the four fields.
    """

    x0: float
    y0: float
    heading: float
    length: float

    @cached_property
    def ux(self) -> float:
        return math.cos(self.heading)

    @cached_property
    def uy(self) -> float:
        return math.sin(self.heading)

    def point_at(self, s: float) -> tuple[float, float]:
        return (self.x0 + s * self.ux, self.y0 + s * self.uy)

    def tangent_at(self, s: float) -> float:
        return self.heading

    def curvature_at(self, s: float) -> float:
        return 0.0

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Return (s, distance) of the closest point, s clamped to [0, length]."""
        ux, uy = self.ux, self.uy
        t = (x - self.x0) * ux + (y - self.y0) * uy
        if t < 0.0:
            t = 0.0
        elif t > self.length:
            t = self.length
        return t, math.hypot(x - (self.x0 + t * ux), y - (self.y0 + t * uy))


@dataclass(frozen=True)
class Arc:
    """Circular piece; sweep is signed, positive for counter-clockwise travel.

    The sweep's sign and the end points are computed on first use and kept
    like Segment's direction.
    """

    cx: float
    cy: float
    radius: float
    theta0: float
    sweep: float

    @property
    def length(self) -> float:
        return self.radius * abs(self.sweep)

    @cached_property
    def _sign(self) -> float:
        return 1.0 if self.sweep >= 0.0 else -1.0

    @cached_property
    def _ends(self) -> tuple[float, float, float, float]:
        """Start and end points, (sx, sy, ex, ey)."""
        return (*self.point_at(0.0), *self.point_at(self.length))

    def _theta(self, s: float) -> float:
        return self.theta0 + self._sign * s / self.radius

    def point_at(self, s: float) -> tuple[float, float]:
        th = self._theta(s)
        return (self.cx + self.radius * math.cos(th), self.cy + self.radius * math.sin(th))

    def tangent_at(self, s: float) -> float:
        return wrap_angle(self._theta(s) + self._sign * 0.5 * math.pi)

    def curvature_at(self, s: float) -> float:
        return self._sign / self.radius

    def angle_offset(self, x: float, y: float) -> float:
        """Angular distance from theta0 to (x, y) measured in the travel
        direction, in [0, 2*pi)."""
        ang = math.atan2(y - self.cy, x - self.cx)
        d = self._sign * (ang - self.theta0)
        d = math.fmod(d, TWO_PI)
        if d < 0.0:
            d += TWO_PI
        return d

    def project(self, x: float, y: float) -> tuple[float, float]:
        r = math.hypot(x - self.cx, y - self.cy)
        d = self.angle_offset(x, y)
        if d <= abs(self.sweep):
            return self.radius * d, abs(r - self.radius)
        # off the angular span: closest endpoint wins
        sx, sy, ex, ey = self._ends
        d0 = math.hypot(x - sx, y - sy)
        d1 = math.hypot(x - ex, y - ey)
        return (0.0, d0) if d0 <= d1 else (self.length, d1)


Element = Segment | Arc


def _on_segment(seg: Segment, t: float) -> bool:
    return -_TOL <= t <= seg.length + _TOL


def _arc_param(arc: Arc, x: float, y: float) -> float | None:
    """Arc-length of (x, y) on the arc, or None if outside the angular span."""
    d = arc.angle_offset(x, y)
    if d <= abs(arc.sweep) + _TOL / max(arc.radius, 1e-6):
        return min(arc.radius * d, arc.length)
    # points an epsilon before theta0 wrap to ~2*pi
    if TWO_PI - d < _TOL:
        return 0.0
    return None


def seg_seg_crossings(a: Segment, b: Segment) -> list[tuple[float, float]]:
    """Transversal intersections as (s_on_a, s_on_b).  Parallel pairs give none."""
    denom = a.ux * b.uy - a.uy * b.ux
    if abs(denom) < 1e-12:
        return []
    dx = b.x0 - a.x0
    dy = b.y0 - a.y0
    ta = (dx * b.uy - dy * b.ux) / denom
    tb = (dx * a.uy - dy * a.ux) / denom
    if _on_segment(a, ta) and _on_segment(b, tb):
        return [(min(max(ta, 0.0), a.length), min(max(tb, 0.0), b.length))]
    return []


def seg_arc_crossings(seg: Segment, arc: Arc) -> list[tuple[float, float]]:
    """Transversal line/circle intersections; tangential grazes are dropped."""
    # foot of the circle center on the segment's supporting line
    tc = (arc.cx - seg.x0) * seg.ux + (arc.cy - seg.y0) * seg.uy
    fx = seg.x0 + tc * seg.ux
    fy = seg.y0 + tc * seg.uy
    d2 = (arc.cx - fx) ** 2 + (arc.cy - fy) ** 2
    disc = arc.radius * arc.radius - d2
    if disc < _TANGENT_TOL:
        return []
    h = math.sqrt(disc)
    out = []
    for t in (tc - h, tc + h):
        if not _on_segment(seg, t):
            continue
        px, py = seg.point_at(min(max(t, 0.0), seg.length))
        sa = _arc_param(arc, px, py)
        if sa is not None:
            out.append((min(max(t, 0.0), seg.length), sa))
    return out


def arc_arc_crossings(a: Arc, b: Arc) -> list[tuple[float, float]]:
    """Transversal circle/circle intersections restricted to both spans."""
    dx = b.cx - a.cx
    dy = b.cy - a.cy
    d = math.hypot(dx, dy)
    if d < 1e-9:
        return []  # concentric: either disjoint or coincident, never transversal
    if d > a.radius + b.radius - _TANGENT_TOL:
        return []
    if d < abs(a.radius - b.radius) + _TANGENT_TOL:
        return []
    # standard two-circle intersection
    h = 0.5 + (a.radius * a.radius - b.radius * b.radius) / (2.0 * d * d)
    px = a.cx + h * dx
    py = a.cy + h * dy
    r2 = a.radius * a.radius - h * h * d * d
    if r2 <= 0.0:
        return []
    w = math.sqrt(r2) / d
    out = []
    for sgn in (1.0, -1.0):
        qx = px + sgn * w * dy
        qy = py - sgn * w * dx
        sa = _arc_param(a, qx, qy)
        sb = _arc_param(b, qx, qy)
        if sa is not None and sb is not None:
            out.append((sa, sb))
    return out


def element_crossings(ea: Element, eb: Element) -> list[tuple[float, float]]:
    if isinstance(ea, Segment) and isinstance(eb, Segment):
        return seg_seg_crossings(ea, eb)
    if isinstance(ea, Segment) and isinstance(eb, Arc):
        return seg_arc_crossings(ea, eb)
    if isinstance(ea, Arc) and isinstance(eb, Segment):
        return [(sa, sb) for (sb, sa) in seg_arc_crossings(eb, ea)]
    return arc_arc_crossings(ea, eb)


def collinear_same_direction(a: Segment, b: Segment) -> bool:
    """True when the two segments lie on one line and point the same way."""
    if abs(wrap_angle(a.heading - b.heading)) > 1e-9:
        return False
    # b's start must sit on a's supporting line
    off = (b.x0 - a.x0) * (-a.uy) + (b.y0 - a.y0) * a.ux
    return abs(off) < _COLLINEAR_TOL


def segment_overlap(a: Segment, b: Segment) -> tuple[float, float] | None:
    """Overlap of two collinear same-direction segments.

    Returns (s_on_a, s_on_b) of the overlap start, or None.  The overlap
    start is the later of the two segment starts along the shared line.
    """
    if not collinear_same_direction(a, b):
        return None
    tb0 = (b.x0 - a.x0) * a.ux + (b.y0 - a.y0) * a.uy  # b start along a
    lo = max(0.0, tb0)
    hi = min(a.length, tb0 + b.length)
    if hi - lo < 1e-9:
        return None
    return lo, lo - tb0
