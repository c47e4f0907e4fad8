"""Intersection layout, routes, conflict detection, and role labels."""

import math
from pathlib import Path

import pytest

from intersection_game.geometry import Arc
from intersection_game.network import (
    ARM_NAMES,
    CZ_HALF_WIDTH,
    LANE_OFFSET_INNER,
    LANE_OFFSET_OUTER,
    OV_EXIT_MARGIN,
    RIGHT_TURN_RADIUS,
    ZoneRole,
    classify_zone_role,
    conflict_points,
    lead_distance_on_route,
    route_for,
)
from intersection_game.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

APPROACH = 30.0  # m, the loader's default approach length
# the sixteen lane-respecting routes, keyed by name
LANE_MANEUVERS = (("inner", "left"), ("inner", "straight"), ("outer", "straight"), ("outer", "right"))
ROUTES = {
    r.name: r for r in (route_for(APPROACH, arm, maneuver, lane) for arm in ARM_NAMES for lane, maneuver in LANE_MANEUVERS)
}


def heading_at(route, s):
    """Route heading at the point s along it, as `Route.project` reports it."""
    return route.project(*route.point_at(s))[2]


def test_network_rejects_oversized_right_turn():
    # the right turn's arc starts 6 + 9 - 10 = 5 m before the zone edge,
    # which must lie on the approach road
    edge = LANE_OFFSET_OUTER + RIGHT_TURN_RADIUS - CZ_HALF_WIDTH
    for arm in ARM_NAMES:
        with pytest.raises(ValueError, match=f"turn arc does not fit the roads for {arm} right"):
            route_for(edge - 0.1, arm, "right")
        assert route_for(edge + 0.5, arm, "right").elements[0].length == pytest.approx(0.5)


def test_published_start_positions_lie_on_centerlines():
    # all shipped initial positions must sit on a generated lane centerline
    for pos, route in (
        ((-18.0, -2.0), ROUTES["M1-inner-left"]),
        ((2.0, -15.0), ROUTES["M2-inner-left"]),
        ((20.0, 6.0), ROUTES["M3-outer-straight"]),
        ((-15.0, -6.0), ROUTES["M1-outer-straight"]),
        ((6.0, -20.0), ROUTES["M2-outer-right"]),
    ):
        dist = route.project(*pos)[1]
        assert dist == pytest.approx(0.0, abs=1e-9)


def test_zone_boundary_crossings_on_square_edge():
    for route in ROUTES.values():
        for s in (route.s_cz_entry, route.s_cz_exit):
            x, y = route.point_at(s)
            assert max(abs(x), abs(y)) == pytest.approx(CZ_HALF_WIDTH, abs=1e-6)
        assert route.s_cz_entry < route.s_cz_exit


def test_straight_route_runs_through_aligned_arm():
    r = route_for(APPROACH, "M1", "straight", "outer")
    assert len(r.elements) == 1
    assert r.total_length == pytest.approx(80.0)
    # constant heading, no curvature anywhere
    for s in (0.0, 40.0, 79.0, r.total_length):
        assert r.curvature_at(s) == 0.0
        assert heading_at(r, s) == pytest.approx(0.0)
    # leaves eastward on the outer outbound lane of M3's arm
    assert r.point_at(r.total_length) == pytest.approx((40.0, -6.0))


def test_left_turn_arc_geometry():
    r = route_for(APPROACH, "M1", "left")
    arc = next(el for el in r.elements if isinstance(el, Arc))
    assert abs(arc.sweep) == pytest.approx(0.5 * math.pi)
    # radius forced by tangency to both inner lanes
    assert arc.radius == pytest.approx(CZ_HALF_WIDTH + LANE_OFFSET_INNER)
    # heading turns a quarter to the left overall
    assert heading_at(r, 0.0) == pytest.approx(0.0)
    assert heading_at(r, r.total_length) == pytest.approx(0.5 * math.pi)
    # and leaves northward on the inner outbound lane of M4's arm
    assert r.point_at(r.total_length) == pytest.approx((2.0, 40.0))


def test_right_turn_uses_configured_radius():
    r = route_for(APPROACH, "M2", "right")
    arc = next(el for el in r.elements if isinstance(el, Arc))
    assert arc.radius == pytest.approx(RIGHT_TURN_RADIUS)
    assert abs(arc.sweep) == pytest.approx(0.5 * math.pi)
    # leaves eastward on the outer outbound lane of M3's arm
    assert heading_at(r, r.total_length) == pytest.approx(0.0)
    assert r.point_at(r.total_length) == pytest.approx((40.0, -6.0))


def _old_tangent_at(route, s):
    """The heading lookup `Route.project` replaced: `_locate` picks the
    last element starting at or before s, then its tangent at the offset."""
    s = min(max(s, 0.0), route.total_length)
    for i in range(len(route.elements) - 1, -1, -1):
        if s >= route.cum_s[i]:
            return route.elements[i].tangent_at(s - route.cum_s[i])
    return route.elements[0].tangent_at(0.0)


@pytest.mark.parametrize(
    "approach_length",
    [APPROACH, 90.0, 6.0],
    ids=["default", "approach_90", "approach_6"],
)
def test_project_heading_equals_locate_then_tangent_bit_for_bit(approach_length):
    """The heading `Route.project` returns is the tangent `_locate` would
    look up at the returned s, compared with ==, on points along, beside,
    before and past all 16 routes, and exactly at every element joint."""
    routes = [route_for(approach_length, arm, maneuver, lane) for arm in ARM_NAMES for lane, maneuver in LANE_MANEUVERS]
    assert len(routes) == 16
    checked = 0
    for r in routes:
        arc_lengths = [k * r.total_length / 97.0 for k in range(98)] + list(r.cum_s)
        arc_lengths += [c + e for c in r.cum_s[1:] for e in (-1e-12, 1e-12, -1e-7, 1e-7)]
        points = [r.point_at(s) for s in arc_lengths]
        # the joints as the elements themselves end and start
        for el, nxt in zip(r.elements, r.elements[1:]):
            points += [el.point_at(el.length), nxt.point_at(0.0)]
        for x, y in list(points):
            points += [(x + 0.7, y - 0.4), (x - 1.3, y + 0.9)]
        x0, y0 = r.point_at(0.0)
        x1, y1 = r.point_at(r.total_length)
        points += [(x0 - 5.0, y0 - 5.0), (x1 + 5.0, y1 + 5.0)]
        for x, y in points:
            s, _, heading = r.project(x, y)
            assert heading == _old_tangent_at(r, s), (r.name, x, y, s)
            checked += 1
    assert checked > 16 * 300


def test_route_for_rejects_bad_input():
    with pytest.raises(ValueError):
        route_for(APPROACH, "M9", "left")
    with pytest.raises(ValueError):
        route_for(APPROACH, "M1", "u_turn")
    with pytest.raises(ValueError):
        route_for(APPROACH, "M1", "left", "outer")
    with pytest.raises(ValueError):
        route_for(APPROACH, "M1", "right", "inner")


def test_crossing_left_turns_conflict():
    cps = conflict_points(ROUTES["M1-inner-left"], ROUTES["M2-inner-left"])
    assert any(c.kind == "cross" for c in cps)


def test_same_lane_routes_only_follow():
    a = route_for(APPROACH, "M1", "straight", "inner")
    b = route_for(APPROACH, "M1", "straight", "inner")
    cps = conflict_points(a, b)
    assert [c.kind for c in cps] == ["following"]
    assert cps[0].s_a == pytest.approx(0.0)


def test_conflict_symmetry():
    names = ["M1-inner-left", "M2-inner-straight", "M3-outer-straight", "M4-outer-right"]
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            fwd = conflict_points(ROUTES[na], ROUTES[nb])
            rev = conflict_points(ROUTES[nb], ROUTES[na])
            fwd_set = sorted((c.kind, round(c.x, 6), round(c.y, 6)) for c in fwd)
            rev_set = sorted((c.kind, round(c.x, 6), round(c.y, 6)) for c in rev)
            assert fwd_set == rev_set
            fwd_s = sorted((round(c.s_a, 6), round(c.s_b, 6)) for c in fwd)
            rev_s = sorted((round(c.s_b, 6), round(c.s_a, 6)) for c in rev)
            assert fwd_s == rev_s


def test_point_conflicts_stay_inside_merge_reach():
    """Crossings only happen inside the zone; confluences can sit on the exit
    lane up to the right-turn tangent point just past the zone edge."""
    reach = LANE_OFFSET_OUTER + RIGHT_TURN_RADIUS - CZ_HALF_WIDTH
    names = sorted(ROUTES)
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            for c in conflict_points(ROUTES[na], ROUTES[nb]):
                if c.kind == "following":
                    continue
                bound = CZ_HALF_WIDTH + (reach if c.kind == "confluence" else 0.0)
                assert abs(c.x) <= bound + 1e-6, c
                assert abs(c.y) <= bound + 1e-6, c


def test_left_turner_against_occupied_network():
    """A left turn from the west against the five occupied lanes it can meet:
    four transversal crossings plus the car-following conflict where it
    merges onto the northbound inner lane."""
    red = ROUTES["M1-inner-left"]
    occupied = [
        ROUTES["M4-outer-straight"],
        ROUTES["M4-inner-straight"],
        ROUTES["M3-inner-straight"],
        ROUTES["M3-outer-straight"],
        ROUTES["M2-inner-straight"],
    ]
    found = []
    for other in occupied:
        found.extend(conflict_points(red, other))
    crosses = sorted((c.x, c.y) for c in found if c.kind == "cross")
    assert len(crosses) == 4
    expected = sorted(
        [(-6.0, -1.3137085), (-2.0, 1.0557281), (-1.0557281, 2.0), (1.3137085, 6.0)]
    )
    for got, want in zip(crosses, expected):
        assert got == pytest.approx(want, abs=1e-6)
    follows = [c for c in found if c.kind == "following"]
    assert len(follows) == 1
    assert (follows[0].x, follows[0].y) == pytest.approx((2.0, 10.0))
    # the same join point is a merge conflict from the receiving lane's side
    conf = [c for c in found if c.kind == "confluence"]
    assert len(conf) == 1
    assert (conf[0].x, conf[0].y) == (follows[0].x, follows[0].y)


def test_straight_driver_against_occupied_network():
    """The northbound inner straight against its occupied counterparts:
    four crossings, one merge onto its lane, one following conflict."""
    blue = ROUTES["M2-inner-straight"]
    occupied = [
        ROUTES["M1-inner-straight"],
        ROUTES["M1-outer-straight"],
        ROUTES["M3-inner-straight"],
        ROUTES["M3-outer-straight"],
        ROUTES["M1-inner-left"],
    ]
    found = []
    for other in occupied:
        found.extend(conflict_points(blue, other))
    kinds = sorted(c.kind for c in found)
    assert kinds == ["confluence", "cross", "cross", "cross", "cross", "following"]


def test_case3_pairwise_conflict_topology():
    sc = load_scenario(SCENARIOS / "case3.cfg")
    pairs = {}
    n = len(sc.routes)
    for i in range(n):
        for j in range(i + 1, n):
            cps = conflict_points(sc.routes[i], sc.routes[j])
            if cps:
                pairs[(i, j)] = cps
    assert len(pairs) == 10
    assert set(pairs) == {
        (0, 2), (0, 5), (0, 6), (1, 2), (1, 3),
        (1, 4), (2, 4), (4, 6), (5, 6), (5, 7),
    }


def test_zone_role_examples():
    r = ROUTES["M1-inner-left"]
    s = r.project(-18.0, -2.0)[0]
    assert classify_zone_role(r, s) is ZoneRole.RV
    s_mid = r.project(0.0, 0.0)[0]
    assert classify_zone_role(r, s_mid) is ZoneRole.PV
    assert classify_zone_role(r, r.s_cz_exit + OV_EXIT_MARGIN + 25.0) is ZoneRole.OV


def test_zone_role_monotone_along_every_route():
    order = {ZoneRole.RV: 0, ZoneRole.PV: 1, ZoneRole.OV: 2}
    for route in ROUTES.values():
        prev = -1
        s = 0.0
        while s <= route.total_length:
            cur = order[classify_zone_role(route, s)]
            assert cur >= prev
            prev = cur
            s += 0.5


def test_lead_vehicle_detection():
    r = ROUTES["M2-inner-straight"]
    host_s = 20.0
    x, y = r.point_at(28.0)
    assert lead_distance_on_route(r, host_s, x, y, heading_at(r, 28.0)) == pytest.approx(28.0)
    # behind the host
    bx, by = r.point_at(12.0)
    assert lead_distance_on_route(r, host_s, bx, by, heading_at(r, 12.0)) is None
    # off the lane
    assert lead_distance_on_route(r, host_s, x + 3.0, y, heading_at(r, 28.0)) is None
    # opposing traffic on the same line
    assert lead_distance_on_route(r, host_s, x, y, heading_at(r, 28.0) + math.pi) is None


def test_route_for_deterministic():
    assert len(ROUTES) == 16
    for arm in ARM_NAMES:
        for lane, maneuver in LANE_MANEUVERS:
            again = route_for(APPROACH, arm, maneuver, lane)
            assert again.total_length == ROUTES[again.name].total_length
            assert again.s_cz_entry == ROUTES[again.name].s_cz_entry
