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
from dataclasses import dataclass
from pathlib import Path

from .costs import CostTerms
from .dynamics import DT, ControlInput, VehicleState, step as integrate, velocity_vector
from .game import LIMITS, CpRef, PlayerView, StepSolution, closing_ttc, participation, solve_step, tracking_delta
from .network import CZ_HALF_WIDTH, Conflict, ZoneRole, classify_zone_role, conflict_points, lead_distance_on_route
from .risk import THRESHOLD, build_field
from .scenario import Scenario

MODES = ("fuzzy", "noncoop", "grand")

_PASS_MARGIN = 2.0  # m past a crossing point before the conflict is considered cleared


@dataclass
class VehicleRow:
    """One vehicle at one step, as recorded before integration."""

    x: float
    y: float
    phi: float
    v: float
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


def pair_conflicts(scenario: Scenario) -> dict[tuple[int, int], list[Conflict]]:
    """Typed conflicts for every route pair that has any."""
    out: dict[tuple[int, int], list[Conflict]] = {}
    n = len(scenario.routes)
    for i in range(n):
        for j in range(i + 1, n):
            cps = conflict_points(scenario.routes[i], scenario.routes[j])
            if cps:
                out[(i, j)] = cps
    return out


def _hold_margin(route_a, route_b, s_a: float, s_b: float, clearance: float) -> float:
    """Backoff along route_a from its conflict point so that a vehicle
    stopped there keeps `clearance` metres of straight-line room from the
    partner route's stretch around the point.  For near-perpendicular
    crossings this is barely more than `clearance`; for shallow merges the
    paths separate only quadratically, so the backoff grows accordingly."""
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
) -> list[list[tuple]]:
    """Every point conflict of each vehicle, as seen from that vehicle:
    (s_self, partner, s_other, x, y, hold_self, hold_other), sorted by
    (s_self, partner, s_other).  The holds are the per-side standstill
    backoffs of `_hold_margin`."""
    routes = scenario.routes
    margin = LIMITS.stop_margin
    index: list[list[tuple]] = [[] for _ in routes]
    for (ia, ib), cps in conflicts.items():
        for c in cps:
            if c.kind == "following":
                continue
            ha = _hold_margin(routes[ia], routes[ib], c.s_a, c.s_b, margin)
            hb = _hold_margin(routes[ib], routes[ia], c.s_b, c.s_a, margin)
            index[ia].append((c.s_a, ib, c.s_b, c.x, c.y, ha, hb))
            index[ib].append((c.s_b, ia, c.s_a, c.x, c.y, hb, ha))
    for points in index:
        points.sort(key=lambda e: e[:3])
    return index


def _coast_accel(a_prev: float) -> float:
    slew = LIMITS.jerk_max * DT
    if a_prev > 0.0:
        return max(0.0, a_prev - slew)
    return min(0.0, a_prev + slew)


def build_views(
    scenario: Scenario,
    states: list[VehicleState],
    s_now: list[float],
    a_prev: list[float],
    d_prev: list[float],
    roles: list[ZoneRole],
    p0: list[float],
    index: list[list[tuple]],
    risk_gating: bool = True,
) -> list[PlayerView]:
    """What each vehicle sees at the start of a step: its nearest leader on
    its own lane and the crossing points it has not yet cleared, each
    gated on when a risk field strictly exceeds the threshold there.

    `index` comes from crossing_index; `roles`, `p0` and the per-vehicle
    lists are index-aligned with the scenario's vehicles.  A vehicle that
    has cleared the zone (OV) is no player and sees nothing.
    """
    routes = scenario.routes
    n = len(scenario.vehicles)
    fields = [build_field(states[i], d_prev[i], scenario.vehicles[i].kappa) for i in range(n)]

    views: list[PlayerView] = []
    for i in range(n):
        coast = (
            _coast_accel(a_prev[i]),
            tracking_delta(routes[i], s_now[i], states[i].v_x),
        )
        common = dict(
            route=routes[i],
            state=states[i],
            s=s_now[i],
            kappa=scenario.vehicles[i].kappa,
            a_prev=a_prev[i],
            delta_prev=d_prev[i],
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

        # crossing/merging points not yet cleared by both vehicles;
        # constraints see every live point, costs only gated ones
        cps = []
        for s_self, j, s_other, x, y, h_self, h_other in index[i]:
            if s_now[i] >= s_self + _PASS_MARGIN or s_now[j] >= s_other + _PASS_MARGIN:
                continue
            gated = not risk_gating or fields[i].value(x, y) > THRESHOLD or fields[j].value(x, y) > THRESHOLD
            cps.append(CpRef(j, s_self, s_other, gated, h_self, h_other))
        views.append(
            PlayerView(p=p0[i], player=True, lv=lv, lv_gated=lv_gated, cps=tuple(cps), **common)
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
    a_prev = [0.0] * n
    d_prev = [0.0] * n

    if mode == "noncoop":
        p0 = [0.0] * n
    elif mode == "grand":
        p0 = [1.0] * n
    else:
        p0 = [participation(v.kappa) for v in scenario.vehicles]

    steps: list[StepRow] = []
    rows: list[list[VehicleRow]] = []
    wall_start = time.perf_counter()
    n_steps = round(scenario.t_end / DT)

    for k in range(n_steps):
        t = k * DT
        roles = [classify_zone_role(routes[i], s_now[i]) for i in range(n)]
        if all(r is ZoneRole.OV for r in roles):
            break

        views = build_views(scenario, states, s_now, a_prev, d_prev, roles, p0, index, risk_gating)

        t0 = time.perf_counter()
        sol: StepSolution = solve_step(views, allow_reset=allow_reset)
        solve_time = time.perf_counter() - t0

        step_rows: list[VehicleRow] = []
        for i in range(n):
            a, d = sol.controls[i]
            step_rows.append(
                VehicleRow(
                    x=states[i].x,
                    y=states[i].y,
                    phi=states[i].phi,
                    v=states[i].v_x,
                    a=a,
                    delta=d,
                    jerk=(a - a_prev[i]) / DT,
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

        for i in range(n):
            a, d = sol.controls[i]
            states[i] = integrate(states[i], ControlInput(a, d))
            s_now[i] = routes[i].project(states[i].x, states[i].y)[0]
            a_prev[i] = a
            d_prev[i] = d

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


def _rms(xs: list[float]) -> float:
    if not xs:
        return 0.0
    return math.sqrt(sum(x * x for x in xs) / len(xs))


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
            vs.append(r.v)
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
            dist = math.hypot(rj.x - ri.x, rj.y - ri.y)
            min_dist = min(min_dist, dist)
            # crossing/merging points not yet reached by either vehicle:
            # record the later arriver's time to the point, the quantity
            # the pair constraint keeps above the floor.  Once one vehicle
            # has passed, the point is vacated and the countdown of the
            # other no longer measures anything collision-shaped.
            for c in cps:
                if c.kind == "following":
                    continue
                if ri.s < c.s_a and rj.s < c.s_b:
                    ta = (c.s_a - ri.s) / ri.v if ri.v > 1e-9 else math.inf
                    tb = (c.s_b - rj.s) / rj.v if rj.v > 1e-9 else math.inf
                    later_t = max(ta, tb)
                    if math.isfinite(later_t):
                        min_ttc = min(min_ttc, later_t)
            # closing time only under an actual leader-follower relation
            if ri.lv == j or rj.lv == i:
                vi = velocity_vector(VehicleState(ri.v, ri.phi, ri.x, ri.y), ri.delta)
                vj = velocity_vector(VehicleState(rj.v, rj.phi, rj.x, rj.y), rj.delta)
                min_ttc = min(min_ttc, closing_ttc(ri.x, ri.y, vi[0], vi[1], rj.x, rj.y, vj[0], vj[1]))
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


def emit(result: SimResult, out_dir: str | Path, field_raster: bool = False) -> list[Path]:
    """Write the run to out_dir; everything except timing.json is
    byte-deterministic for identical inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    lines = [TRACE_COLUMNS]
    for step, step_rows in zip(result.steps, result.rows):
        for name, r in zip(result.names, step_rows):
            t = r.terms
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        step.t, name, r.x, r.y, r.phi, r.v, r.a, r.delta, r.jerk, r.role,
                        r.s, result.names[r.lv] if r.lv is not None else None,
                        t.omega_log if t else 0.0, t.omega_lat if t else 0.0, r.p,
                        t.v_log if t else None, t.v_lat if t else None,
                        t.v_lk if t else None, t.v_e if t else None,
                        t.total if t else None, r.j_value, r.h_alloc, not r.fallback, r.fallback, r.reset,
                    )
                )
            )
    path = out / "trace.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    lines = [STEP_COLUMNS]
    for s in result.steps:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    s.step, s.t, s.n_players, s.sweeps, s.evals, s.lateral_evals,
                    s.v_coalition, s.group_residual, s.max_residual, s.any_reset, s.all_rational,
                )
            )
        )
    path = out / "steps.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path)

    s0 = [result.rows[0][i].s for i in range(len(result.names))] if result.rows else []
    for fname, getter in (
        ("series_path_length.csv", lambda r, i: r.s - s0[i]),
        ("series_velocity.csv", lambda r, i: r.v),
    ):
        lines = ["time," + ",".join(result.names)]
        for step, step_rows in zip(result.steps, result.rows):
            vals = [getter(step_rows[i], i) for i in range(len(result.names))]
            lines.append(",".join([_fmt(step.t)] + [_fmt(v) for v in vals]))
        path = out / fname
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    path = out / "metrics.json"
    path.write_text(json.dumps(_round_floats(metrics(result)), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(path)

    path = out / "timing.json"
    path.write_text(json.dumps(_round_floats(timing(result)), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append(path)

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
            total = sum(f.value(x, y) for f in fields)
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(total)}")
    path = out / "field_raster.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
