"""Path primitives: segments, arcs, and their crossings."""

import math

import pytest
from hypothesis import given, strategies as st

from intersection_game.geometry import (
    Arc,
    Segment,
    arc_arc_crossings,
    collinear_same_direction,
    element_crossings,
    seg_arc_crossings,
    seg_seg_crossings,
    segment_overlap,
    wrap_angle,
)


def test_wrap_angle_basics():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # half-open on the left
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.5) == pytest.approx(-0.5)


@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
def test_wrap_angle_period_and_range(a, k):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi + 1e-12
    assert math.isclose(
        math.cos(w), math.cos(a + 2.0 * math.pi * k), abs_tol=1e-9
    )
    assert math.isclose(
        math.sin(w), math.sin(a + 2.0 * math.pi * k), abs_tol=1e-9
    )


def test_segment_point_and_tangent():
    seg = Segment(1.0, 2.0, math.pi / 2.0, 10.0)
    assert seg.point_at(0.0) == pytest.approx((1.0, 2.0))
    assert seg.point_at(4.0) == pytest.approx((1.0, 6.0))
    assert seg.point_at(seg.length) == pytest.approx((1.0, 12.0))
    assert seg.tangent_at(3.0) == math.pi / 2.0
    assert seg.curvature_at(3.0) == 0.0


def test_segment_project_clamps_to_ends():
    seg = Segment(0.0, 0.0, 0.0, 10.0)
    s, d = seg.project(4.0, 3.0)
    assert s == pytest.approx(4.0)
    assert d == pytest.approx(3.0)
    s, d = seg.project(-2.0, 0.0)
    assert s == 0.0
    assert d == pytest.approx(2.0)
    s, d = seg.project(13.0, 4.0)
    assert s == 10.0
    assert d == pytest.approx(5.0)


def test_arc_parameterization():
    # quarter circle, counter-clockwise from the +x axis
    arc = Arc(0.0, 0.0, 2.0, 0.0, math.pi / 2.0)
    assert arc.length == pytest.approx(math.pi)
    assert arc.point_at(0.0) == pytest.approx((2.0, 0.0))
    assert arc.point_at(arc.length) == pytest.approx((0.0, 2.0))
    assert arc.tangent_at(0.0) == pytest.approx(math.pi / 2.0)
    assert arc.curvature_at(1.0) == pytest.approx(0.5)

    cw = Arc(0.0, 0.0, 2.0, math.pi / 2.0, -math.pi / 2.0)
    assert cw.curvature_at(0.0) == pytest.approx(-0.5)
    assert cw.point_at(cw.length) == pytest.approx((2.0, 0.0), abs=1e-12)


def test_arc_project_on_and_off_span():
    arc = Arc(0.0, 0.0, 2.0, 0.0, math.pi / 2.0)
    s, d = arc.project(3.0 * math.cos(0.5), 3.0 * math.sin(0.5))
    assert s == pytest.approx(2.0 * 0.5)
    assert d == pytest.approx(1.0)
    # behind the span: nearest endpoint wins
    s, d = arc.project(2.0, -1.0)
    assert s == 0.0
    assert d == pytest.approx(1.0)


def test_seg_seg_crossing():
    a = Segment(-5.0, 0.0, 0.0, 10.0)
    b = Segment(0.0, -5.0, math.pi / 2.0, 10.0)
    hits = seg_seg_crossings(a, b)
    assert len(hits) == 1
    sa, sb = hits[0]
    assert sa == pytest.approx(5.0)
    assert sb == pytest.approx(5.0)


def test_seg_seg_parallel_and_disjoint():
    a = Segment(0.0, 0.0, 0.0, 10.0)
    assert seg_seg_crossings(a, Segment(0.0, 1.0, 0.0, 10.0)) == []
    # crossing lines but the hit lies beyond b's length
    b = Segment(20.0, -5.0, math.pi / 2.0, 2.0)
    assert seg_seg_crossings(a, b) == []


def test_seg_arc_crossings_chord():
    arc = Arc(0.0, 0.0, 5.0, -math.pi, math.pi)  # lower half circle, CCW
    seg = Segment(-10.0, -3.0, 0.0, 20.0)
    hits = seg_arc_crossings(seg, arc)
    assert len(hits) == 2
    for t, sa in hits:
        x, y = seg.point_at(t)
        assert math.hypot(x, y) == pytest.approx(5.0)
        px, py = arc.point_at(sa)
        assert (px, py) == pytest.approx((x, y), abs=1e-9)


def test_seg_arc_tangential_graze_dropped():
    arc = Arc(0.0, 0.0, 5.0, -math.pi, math.pi)
    graze = Segment(-10.0, -5.0, 0.0, 20.0)
    assert seg_arc_crossings(graze, arc) == []


def test_arc_arc_crossings():
    a = Arc(0.0, 0.0, 5.0, -math.pi / 2.0, math.pi)
    b = Arc(6.0, 0.0, 5.0, math.pi / 2.0, math.pi)
    hits = arc_arc_crossings(a, b)
    assert len(hits) >= 1
    for sa, sb in hits:
        pa = a.point_at(sa)
        pb = b.point_at(sb)
        assert pa == pytest.approx(pb, abs=1e-9)
    # concentric circles never cross transversally
    assert arc_arc_crossings(a, Arc(0.0, 0.0, 3.0, 0.0, math.pi)) == []
    # far apart
    assert arc_arc_crossings(a, Arc(100.0, 0.0, 5.0, 0.0, math.pi)) == []
    # one circle strictly inside the other, off its centre
    assert arc_arc_crossings(a, Arc(1.0, 0.5, 2.0, 0.0, 2.0 * math.pi)) == []
    assert arc_arc_crossings(Arc(1.0, 0.5, 2.0, 0.0, 2.0 * math.pi), a) == []
    # inside and within 1e-6 m of touching: a graze, not two crossings
    assert arc_arc_crossings(a, Arc(3.0 + 5e-7, 0.0, 2.0, -math.pi / 2.0, math.pi)) == []


def test_element_crossings_swaps_parameters():
    arc = Arc(0.0, 0.0, 5.0, -math.pi, math.pi)
    seg = Segment(-10.0, -3.0, 0.0, 20.0)
    fwd = element_crossings(seg, arc)
    rev = element_crossings(arc, seg)
    assert sorted(fwd) == sorted((b, a) for a, b in rev)


def test_collinear_same_direction():
    a = Segment(0.0, 0.0, 0.0, 10.0)
    assert collinear_same_direction(a, Segment(4.0, 0.0, 0.0, 10.0))
    assert not collinear_same_direction(a, Segment(4.0, 0.5, 0.0, 10.0))
    assert not collinear_same_direction(a, Segment(4.0, 0.0, math.pi, 10.0))


def test_segment_overlap():
    a = Segment(0.0, 0.0, 0.0, 10.0)
    b = Segment(4.0, 0.0, 0.0, 10.0)
    assert segment_overlap(a, b) == pytest.approx((4.0, 0.0))
    assert segment_overlap(b, a) == pytest.approx((0.0, 4.0))
    # same line but no shared stretch
    assert segment_overlap(a, Segment(11.0, 0.0, 0.0, 5.0)) is None


@given(
    st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
    st.floats(-math.pi, math.pi), st.floats(1.0, 30.0),
    st.floats(-25.0, 25.0), st.floats(-25.0, 25.0),
)
def test_segment_projection_is_nearest(x0, y0, heading, length, qx, qy):
    seg = Segment(x0, y0, heading, length)
    s, d = seg.project(qx, qy)
    assert 0.0 <= s <= length
    px, py = seg.point_at(s)
    assert d == pytest.approx(math.hypot(qx - px, qy - py), abs=1e-9)
    # no sampled point on the segment is closer
    for t in (0.0, 0.25 * length, 0.5 * length, 0.75 * length, length):
        tx, ty = seg.point_at(t)
        assert d <= math.hypot(qx - tx, qy - ty) + 1e-9


@given(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
    st.floats(1.0, 10.0), st.floats(-math.pi, math.pi),
    st.floats(0.3, 2.0 * math.pi - 0.3),
    st.floats(0.0, 1.0),
)
def test_arc_point_round_trip(cx, cy, radius, theta0, sweep, frac):
    arc = Arc(cx, cy, radius, theta0, sweep)
    s = frac * arc.length
    x, y = arc.point_at(s)
    s_back, d = arc.project(x, y)
    assert d == pytest.approx(0.0, abs=1e-9)
    assert s_back == pytest.approx(s, abs=1e-6)


@given(
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(-math.pi, math.pi),
    st.floats(0.1, 60.0),
    st.floats(-80.0, 80.0),
    st.floats(-80.0, 80.0),
)
def test_segment_project_equals_point_at_formula_bit_for_bit(x0, y0, heading, length, qx, qy):
    seg = Segment(x0, y0, heading, length)
    t = min(max((qx - x0) * seg.ux + (qy - y0) * seg.uy, 0.0), length)
    px, py = seg.point_at(t)
    assert seg.project(qx, qy) == (t, math.hypot(qx - px, qy - py))


def test_cached_direction_leaves_equality_and_hash_alone():
    a = Segment(1.0, -2.0, 0.3, 7.0)
    b = Segment(1.0, -2.0, 0.3, 7.0)
    a.project(4.0, 1.0)  # fills a's cached ux, uy
    assert (a.ux, a.uy) == (math.cos(0.3), math.sin(0.3))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    arc_a = Arc(0.0, 0.0, 9.0, 0.5, -1.2)
    arc_b = Arc(0.0, 0.0, 9.0, 0.5, -1.2)
    assert arc_a.curvature_at(0.0) == -1.0 / 9.0  # fills arc_a's cached sign
    assert arc_a == arc_b and hash(arc_a) == hash(arc_b) and repr(arc_a) == repr(arc_b)
