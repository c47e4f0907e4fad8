"""Receding-horizon loop: classify, gate, solve, apply, repeat.

Each decision step rebuilds the interaction picture (who leads whom,
which crossing points are close enough to matter), solves one joint
control step, applies it to every vehicle, and records the step.  The
loop ends when every vehicle has cleared the zone or time runs out.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .costs import CostTerms, arrival_time
from .dynamics import DT, ControlInput, VehicleState, step as integrate, velocity_vector
from .game import LIMITS, SLEW, CpRef, PlayerView, StepSolution, closing_ttc, participation, solve_step, tracking_delta
from .network import CZ_HALF_WIDTH, Conflict, ZoneRole, classify_zone_role, conflict_points, lead_distance_on_route
from .risk import THRESHOLD, build_field
from .scenario import Scenario

MODES = ("fuzzy", "noncoop", "grand")

_PASS_MARGIN = 2.0  # m past a crossing point before the conflict is considered cleared


@dataclass
class VehicleRow:
    """One vehicle at one step, as recorded before integration."""

    state: VehicleState
    a: float
    delta: float
    jerk: float
    role: str
    s: float
    lv: int | None
    p: float
    terms: CostTerms | None
    j_value: float | None
    h_alloc: float
    fallback: bool
    reset: bool


@dataclass
class StepRow:
    step: int
    t: float
    n_players: int
    sweeps: int
    evals: int
    lateral_evals: int
    v_coalition: float
    group_residual: float
    max_residual: float
    any_reset: bool
    all_rational: bool
    solve_time: float


@dataclass
class SimResult:
    scenario: Scenario
    mode: str
    risk_gating: bool
    names: list[str]
    steps: list[StepRow]
    rows: list[list[VehicleRow]]  # [step][vehicle]
    conflicts: dict[tuple[int, int], list[Conflict]]
    wall_time: float


def _route_classes(routes: list) -> list[int]:
    """Each route's index of the first route equal to it, so that vehicles
    on equal routes share one key."""
    first: dict = {}
    return [first.setdefault(r, i) for i, r in enumerate(routes)]


def pair_conflicts(scenario: Scenario) -> dict[tuple[int, int], list[Conflict]]:
    """Typed conflicts for every route pair that has any.  Vehicles on equal
    routes share them: `conflict_points` runs once per distinct pair of
    routes."""
    out: dict[tuple[int, int], list[Conflict]] = {}
    routes = scenario.routes
    cls = _route_classes(routes)
    found: dict[tuple[int, int], list[Conflict]] = {}
    n = len(routes)
    for i in range(n):
        for j in range(i + 1, n):
            key = (cls[i], cls[j])
            cps = found.get(key)
            if cps is None:
                cps = found[key] = conflict_points(routes[i], routes[j])
            if cps:
                out[(i, j)] = cps
    return out


def _hold_margin(route_a, route_b, s_a: float, s_b: float) -> float:
    """Backoff along route_a from its conflict point so that a vehicle
    stopped there keeps `LIMITS.stop_margin` metres of straight-line room
    from the partner route's stretch around the point.  For near-perpendicular
    crossings this is barely more than that margin; for shallow merges the
    paths separate only quadratically, so the backoff grows accordingly."""
    clearance = LIMITS.stop_margin
    step = 0.5
    lo = max(s_b - 12.0, 0.0)
    hi = min(s_b + 12.0, route_b.total_length)
    pts = [route_b.point_at(lo + k * step) for k in range(int((hi - lo) / step) + 1)]
    c2 = clearance * clearance
    m = clearance
    while m < clearance + 15.0:
        x, y = route_a.point_at(s_a - m)
        if all((x - px) ** 2 + (y - py) ** 2 >= c2 for px, py in pts):
            return m
        m += 0.25
    return m


def crossing_index(
    scenario: Scenario, conflicts: dict[tuple[int, int], list[Conflict]]
) -> list[list[CpRef]]:
    """Every point conflict of each vehicle, as seen from that vehicle,
    sorted by (s_self, partner, s_other).  The holds are the per-side
    standstill backoffs of `_hold_margin`, computed once per distinct
    (route pair, point) and shared by vehicles on equal routes.  Built once
    per run; the views of every step hold these same records."""
    routes = scenario.routes
    cls = _route_classes(routes)
    holds: dict[tuple[int, int, float, float], float] = {}

    def hold(a: int, b: int, s_a: float, s_b: float) -> float:
        key = (cls[a], cls[b], s_a, s_b)
        m = holds.get(key)
        if m is None:
            m = holds[key] = _hold_margin(routes[a], routes[b], s_a, s_b)
        return m

    index: list[list[CpRef]] = [[] for _ in routes]
    for (ia, ib), cps in conflicts.items():
        for c in cps:
            if c.kind == "following":
                continue
            ha = hold(ia, ib, c.s_a, c.s_b)
            hb = hold(ib, ia, c.s_b, c.s_a)
            index[ia].append(CpRef(c.s_a, ib, c.s_b, c.x, c.y, ha, hb))
            index[ib].append(CpRef(c.s_b, ia, c.s_a, c.x, c.y, hb, ha))
    for points in index:
        points.sort(key=lambda c: (c.s_self, c.partner, c.s_other))
    return index


def _coast_accel(a_prev: float) -> float:
    if a_prev > 0.0:
        return max(0.0, a_prev - SLEW)
    return min(0.0, a_prev + SLEW)


class _Fields(dict):
    """Vehicle index -> its risk field at the step start, built when a
    gate first reads it: a field no gate reads costs nothing, and without
    `risk_gating` none is built.  A field is a function of the vehicle's
    state, steer and style alone, so when it is built changes no view."""

    def __init__(self, scenario: Scenario, states: list[VehicleState], controls: list[tuple[float, float]]):
        self.scenario, self.states, self.controls = scenario, states, controls

    def __missing__(self, i: int):
        field = self[i] = build_field(self.states[i], self.controls[i][1], self.scenario.vehicles[i].kappa)
        return field


def build_views(
    scenario: Scenario,
    states: list[VehicleState],
    s_now: list[float],
    controls: list[tuple[float, float]],
    roles: list[ZoneRole],
    p0: list[float],
    index: list[list[CpRef]],
    risk_gating: bool = True,
) -> list[PlayerView]:
    """What each vehicle sees at the start of a step: its nearest leader on
    its own lane, the crossing points it has not yet cleared, and the one of
    those its cost prices.  A leader is gated on when the vehicle's risk
    field strictly exceeds the threshold there, a point when either
    vehicle's field does, and everything is without `risk_gating`.  Only a
    gated point can be priced.

    `controls` holds each vehicle's previous (acceleration, steer), the
    one its field is built on and its slew bound starts from; `index`
    comes from crossing_index; `roles`, `p0` and the per-vehicle lists are
    index-aligned with the scenario's vehicles.  A vehicle that has
    cleared the zone (OV) is no player and sees nothing.
    """
    routes = scenario.routes
    n = len(scenario.vehicles)
    fields = _Fields(scenario, states, controls)

    views: list[PlayerView] = []
    for i in range(n):
        a_prev, d_prev = controls[i]
        coast = (
            _coast_accel(a_prev),
            tracking_delta(routes[i], s_now[i], states[i].v_x),
        )
        common = dict(
            name=scenario.vehicles[i].name,
            route=routes[i],
            state=states[i],
            kappa=scenario.vehicles[i].kappa,
            a_prev=a_prev,
            delta_prev=d_prev,
            coast=coast,
        )
        if roles[i] is ZoneRole.OV:
            views.append(PlayerView(p=0.0, player=False, **common))
            continue

        lv = None
        lv_s = math.inf
        for j in range(n):
            if j == i:
                continue
            sj = lead_distance_on_route(routes[i], s_now[i], states[j].x, states[j].y, states[j].phi)
            if sj is not None and sj < lv_s:
                lv, lv_s = j, sj
        lv_gated = lv is not None and (
            not risk_gating or fields[i].value(states[lv].x, states[lv].y) > THRESHOLD
        )

        # crossing/merging points not yet cleared by both vehicles.  The
        # cost prices the gated one whose partner arrives soonest at the
        # step-start states; a tie goes to the point nearer along the own
        # route, then along the partner's, then to the partner's name, so
        # the pick does not depend on the order the vehicles are listed in.
        # Picking by own distance instead would anchor the risk term to a
        # conflict already being won while the one actually being yielded
        # to goes unpriced.  A point whose key cannot beat the best gated
        # one so far could not be priced, so its gate is not evaluated.
        cps = []
        cost_cp = best = None
        for c in index[i]:
            j = c.partner
            if s_now[i] >= c.s_self + _PASS_MARGIN or s_now[j] >= c.s_other + _PASS_MARGIN:
                continue
            cps.append(c)
            d_other = c.s_other - s_now[j]
            key = (arrival_time(d_other, states[j].v_x), c.s_self, d_other, scenario.vehicles[j].name)
            if (best is None or key < best) and (
                not risk_gating or fields[i].value(c.x, c.y) > THRESHOLD or fields[j].value(c.x, c.y) > THRESHOLD
            ):
                best, cost_cp = key, c
        views.append(
            PlayerView(p=p0[i], player=True, lv=lv, lv_gated=lv_gated, cps=tuple(cps), cost_cp=cost_cp, **common)
        )
    return views


def initial_states(scenario: Scenario) -> tuple[list[VehicleState], list[float]]:
    """Each vehicle's start state, heading along its lane, and its arc length on its route."""
    states: list[VehicleState] = []
    s0: list[float] = []
    for spec, route in zip(scenario.vehicles, scenario.routes):
        s, _, heading = route.project(spec.x, spec.y)
        states.append(VehicleState(v_x=spec.v, phi=heading, x=spec.x, y=spec.y))
        s0.append(s)
    return states, s0


def run(
    scenario: Scenario,
    mode: str | None = None,
    risk_gating: bool = True,
) -> SimResult:
    """Simulate `scenario` in `mode` (fuzzy when None) until every vehicle
    has cleared the zone or `t_end` is reached."""
    mode = "fuzzy" if mode is None else mode
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not one of {MODES}")

    routes = scenario.routes
    n = len(scenario.vehicles)
    names = [v.name for v in scenario.vehicles]
    allow_reset = mode == "fuzzy"

    conflicts = pair_conflicts(scenario)
    index = crossing_index(scenario, conflicts)
    states, s_now = initial_states(scenario)
    controls = [(0.0, 0.0)] * n  # each vehicle's previous (a, delta)

    if mode == "noncoop":
        p0 = [0.0] * n
    elif mode == "grand":
        p0 = [1.0] * n
    else:
        p0 = [participation(v.kappa) for v in scenario.vehicles]

    steps: list[StepRow] = []
    rows: list[list[VehicleRow]] = []
    wall_start = time.perf_counter()
    # round(t_end / DT) rounds half to even, so a t_end of 0.05 s runs no step
    n_steps = round(scenario.t_end / DT)

    for k in range(n_steps):
        t = k * DT
        roles = [classify_zone_role(routes[i], s_now[i]) for i in range(n)]
        if all(r is ZoneRole.OV for r in roles):
            break

        views = build_views(scenario, states, s_now, controls, roles, p0, index, risk_gating)

        t0 = time.perf_counter()
        sol: StepSolution = solve_step(views, allow_reset=allow_reset)
        solve_time = time.perf_counter() - t0

        step_rows: list[VehicleRow] = []
        for i in range(n):
            a, d = sol.controls[i]
            step_rows.append(
                VehicleRow(
                    state=states[i],
                    a=a,
                    delta=d,
                    jerk=(a - controls[i][0]) / DT,
                    role=roles[i].name,
                    s=s_now[i],
                    lv=views[i].lv,
                    p=sol.p_used[i],
                    terms=sol.terms[i],
                    j_value=sol.j_value[i],
                    h_alloc=sol.h_alloc[i],
                    fallback=sol.emergency[i],
                    reset=sol.reset[i],
                )
            )
            states[i] = integrate(states[i], ControlInput(a, d))
            s_now[i] = routes[i].project(states[i].x, states[i].y)[0]
        rows.append(step_rows)
        steps.append(
            StepRow(
                step=k,
                t=t,
                n_players=sum(1 for r in roles if r is not ZoneRole.OV),
                sweeps=sol.sweeps,
                evals=sol.evals,
                lateral_evals=sol.lateral_evals,
                v_coalition=sol.v_coalition,
                group_residual=sol.group_residual,
                max_residual=sol.max_constraint_residual,
                any_reset=any(sol.reset),
                all_rational=all(sol.rational),
                solve_time=solve_time,
            )
        )
        controls = sol.controls

    return SimResult(
        scenario=scenario,
        mode=mode,
        risk_gating=risk_gating,
        names=names,
        steps=steps,
        rows=rows,
        conflicts=conflicts,
        wall_time=time.perf_counter() - wall_start,
    )


# -- metrics ---------------------------------------------------------------


def _sum_in_order(xs: Iterable[float]) -> float:
    """Left-to-right float sum.  From Python 3.12 on, `sum()` compensates
    rounding, so its last bits would depend on the Python version."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _rms(xs: list[float]) -> float:
    if not xs:
        return 0.0
    return math.sqrt(_sum_in_order(x * x for x in xs) / len(xs))


def metrics(result: SimResult) -> dict:
    """Aggregate report: per-vehicle kinematics over the active lifetime,
    pooled system velocity, and per-conflicting-pair minima."""
    sc = result.scenario
    names = result.names
    n = len(names)

    per_vehicle = {}
    pooled_v: list[float] = []
    for i in range(n):
        vs, accs, jerks = [], [], []
        for step_rows in result.rows:
            r = step_rows[i]
            if r.role == "OV":
                continue
            vs.append(r.state.v_x)
            accs.append(r.a)
            jerks.append(r.jerk)
        pooled_v.extend(vs)
        per_vehicle[names[i]] = {
            "steps_active": len(vs),
            "v_max": max(vs, default=0.0),
            "v_rms": _rms(vs),
            "a_max": max((abs(a) for a in accs), default=0.0),
            "a_rms": _rms(accs),
            "jerk_max": max((abs(j) for j in jerks), default=0.0),
            "jerk_rms": _rms(jerks),
        }

    pairs = {}
    for (i, j), cps in sorted(result.conflicts.items()):
        min_dist = math.inf
        min_ttc = math.inf
        for step_rows in result.rows:
            ri, rj = step_rows[i], step_rows[j]
            if ri.role == "OV" or rj.role == "OV":
                continue
            si, sj = ri.state, rj.state
            dist = math.hypot(sj.x - si.x, sj.y - si.y)
            min_dist = min(min_dist, dist)
            # crossing/merging points not yet reached by either vehicle:
            # record the later arriver's time to the point.  The pair
            # constraint keeps the arrival gap |t_a - t_b| above the floor
            # instead, or relies on a stop (ROADMAP item 1, "Vehicles have
            # bodies").  Once one vehicle has passed, the point is vacated
            # and the other's countdown no longer measures anything
            # collision-shaped.
            for c in cps:
                if c.kind == "following":
                    continue
                if ri.s < c.s_a and rj.s < c.s_b:
                    later_t = max(arrival_time(c.s_a - ri.s, si.v_x), arrival_time(c.s_b - rj.s, sj.v_x))
                    if math.isfinite(later_t):
                        min_ttc = min(min_ttc, later_t)
            # closing time only under an actual leader-follower relation
            if ri.lv == j or rj.lv == i:
                vi = velocity_vector(si, ri.delta)
                vj = velocity_vector(sj, rj.delta)
                min_ttc = min(min_ttc, closing_ttc(si.x, si.y, vi[0], vi[1], sj.x, sj.y, vj[0], vj[1]))
        pairs[f"{names[i]}-{names[j]}"] = {
            "kinds": sorted({c.kind for c in cps}),
            "min_distance": None if math.isinf(min_dist) else min_dist,
            "min_ttc": None if math.isinf(min_ttc) else min_ttc,
        }

    n_emergency = sum(1 for sr in result.rows for r in sr if r.fallback)
    n_reset = sum(1 for sr in result.rows for r in sr if r.reset)
    return {
        "scenario": sc.name,
        "mode": result.mode,
        "risk_gating": result.risk_gating,
        "n_steps": len(result.steps),
        "duration": len(result.steps) * DT,
        "vehicles": per_vehicle,
        "system_velocity_rms": _rms(pooled_v),
        "pairs": pairs,
        "max_constraint_residual": max((s.max_residual for s in result.steps), default=0.0),
        "rationality": {
            "steps_all_rational": sum(1 for s in result.steps if s.all_rational),
            "max_group_residual": max((s.group_residual for s in result.steps), default=0.0),
            "resets": n_reset,
            "emergencies": n_emergency,
        },
    }


def timing(result: SimResult) -> dict:
    ts = [s.solve_time for s in result.steps]
    return {
        "n_solves": len(ts),
        "total_solve_time": sum(ts),
        "mean_solve_time": sum(ts) / len(ts) if ts else 0.0,
        "wall_time": result.wall_time,
    }


# -- emission --------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return None
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


TRACE_COLUMNS = (
    "time,vehicle,x,y,phi,v,a,delta,jerk,role,s,lv,gate_log,gate_lat,p,"
    "v_log,v_lat,v_lk,v_e,v_total,j_value,h_alloc,feasible,fallback,reset"
)
STEP_COLUMNS = (
    "step,time,n_players,sweeps,evals,lateral_evals,v_coalition,"
    "group_residual,max_residual,any_reset,all_rational"
)


def _row(values) -> str:
    return ",".join([_fmt(v) for v in values])


def _write(out: Path, name: str, lines: list[str]) -> Path:
    """Write lines, each ended by a newline, to out/name."""
    path = out / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def emit(result: SimResult, out_dir: str | Path, field_raster: bool = False) -> list[Path]:
    """Write the run to out_dir; everything except timing.json is
    byte-deterministic for identical inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = [TRACE_COLUMNS]
    for step, step_rows in zip(result.steps, result.rows):
        for name, r in zip(result.names, step_rows):
            t, st = r.terms, r.state
            lines.append(_row((
                step.t, name, st.x, st.y, st.phi, st.v_x, r.a, r.delta, r.jerk, r.role,
                r.s, result.names[r.lv] if r.lv is not None else None,
                t.omega_log if t else 0.0, t.omega_lat if t else 0.0, r.p,
                t.v_log if t else None, t.v_lat if t else None,
                t.v_lk if t else None, t.v_e if t else None,
                t.total if t else None, r.j_value, r.h_alloc, not r.fallback, r.fallback, r.reset,
            )))
    written = [_write(out, "trace.csv", lines)]

    lines = [STEP_COLUMNS]
    for s in result.steps:
        lines.append(_row((
            s.step, s.t, s.n_players, s.sweeps, s.evals, s.lateral_evals,
            s.v_coalition, s.group_residual, s.max_residual, s.any_reset, s.all_rational,
        )))
    written.append(_write(out, "steps.csv", lines))

    n = len(result.names)
    s0 = [result.rows[0][i].s for i in range(n)] if result.rows else []
    for fname, getter in (
        ("series_path_length.csv", lambda r, i: r.s - s0[i]),
        ("series_velocity.csv", lambda r, i: r.state.v_x),
    ):
        lines = [_row(["time", *result.names])]
        for step, step_rows in zip(result.steps, result.rows):
            lines.append(_row([step.t] + [getter(step_rows[i], i) for i in range(n)]))
        written.append(_write(out, fname, lines))

    for fname, report in (("metrics.json", metrics(result)), ("timing.json", timing(result))):
        written.append(_write(out, fname, [json.dumps(_round_floats(report), indent=2, sort_keys=True)]))

    if field_raster:
        written.append(_emit_field_raster(result, out))
    return written


def _emit_field_raster(result: SimResult, out: Path) -> Path:
    """Sampled sum of all vehicles' initial risk fields on a coarse grid."""
    sc = result.scenario
    states, _ = initial_states(sc)
    fields = [build_field(state, 0.0, spec.kappa) for state, spec in zip(states, sc.vehicles)]
    half = CZ_HALF_WIDTH + 15.0
    ticks = [round(-half + 0.5 * k, 1) for k in range(int(4 * half) + 1)]
    lines = ["x,y,value"]
    for y in ticks:
        for x in ticks:
            lines.append(_row((x, y, _sum_in_order(f.value(x, y) for f in fields))))
    return _write(out, "field_raster.csv", lines)
