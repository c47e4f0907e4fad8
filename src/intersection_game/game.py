"""One decision step of the constrained coalitional negotiation.

Each non-cleared vehicle picks acceleration and steering for the next
interval.  A participation level p in [0, 1], derived from driving style,
blends the vehicle's own loss with the participation-weighted losses of
the others; p = 0 for everyone degenerates to independent best responses
and p = 1 to minimizing the common sum.  The joint problem is solved by
cyclic best response with a deterministic pattern search per vehicle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .costs import (
    FREE_GAP,
    OMEGA0,
    STOPPED,
    CostTerms,
    balance_weights,
    blended_loss,
    crossing_risk,
    efficiency,
    following_risk,
    lane_errors,
    lane_keeping,
)
from .dynamics import (
    DT,
    L_R,
    WHEELBASE,
    ControlInput,
    VehicleState,
    sideslip,
    step as integrate,
    step_speed,
)
from .network import Route, Window

GRAVITY = 9.81
GAP_FLOOR = 0.01  # clamp for degenerate gaps during candidate evaluation
# numerics of the cyclic best response, not model parameters
MAX_SWEEPS = 20  # sweeps per solve before the step is taken as is
CONV_TOL = 1e-3  # a sweep that moves no control by this much ends the solve
FEAS_SLACK = 1e-9  # largest constraint residual a candidate may keep
RATIONALITY_TOL = 1e-6  # pooled loss a member may give up against its lone move
TTC_GUARD = 0.05  # enforcement slack so recorded residuals stay negative
# `_scored` entry of a candidate known infeasible whose residual is not computed
_UNSCORED = (math.inf, None, 0)


def participation(kappa: float) -> float:
    """exp(-pi kappa^2): full for a neutral style, fading for extreme ones."""
    if not -1.0 <= kappa <= 1.0:
        raise ValueError(f"aggressiveness {kappa} outside [-1, 1]")
    return math.exp(-math.pi * kappa * kappa)


def coalition_costs(values: Sequence[float], p: Sequence[float]) -> tuple[float, list[float], list[float]]:
    """(pool, shares, kept): split each member's loss into a pooled share
    and a kept share.

    The pool collects the share p_i * v_i of member i's loss; the
    remainder stays private.  Each member is charged back exactly the
    share it pooled, so no loss moves between members.
    """
    pooled = 0.0
    shares = []
    kept = []
    for vi, pi in zip(values, p, strict=True):
        share = pi * vi
        pooled += share
        shares.append(share)
        kept.append((1.0 - pi) * vi)
    return pooled, shares, kept


@dataclass(frozen=True)
class Limits:
    """Hard bounds checked on the one-step-ahead predicted state; every
    vehicle drives under the one set `LIMITS`."""

    v_max: float = 8.0
    a_max: float = 8.0
    jerk_max: float = 2.0
    delta_max: float = math.radians(30.0)
    mu: float = 0.85
    ttc_min: float = 1.5
    lane_dev_max: float = 0.2
    course_dev_max: float = math.radians(2.0)
    stop_margin: float = 3.5  # standstill clearance kept from any hazard point


LIMITS = Limits()
BETA_MAX = math.atan(0.02 * LIMITS.mu * GRAVITY)
# effective steering bound: the plain box or the sideslip bound, whichever
# binds first
STEER_BOX = min(LIMITS.delta_max, math.atan(math.tan(BETA_MAX) * WHEELBASE / L_R))
SLEW = LIMITS.jerk_max * DT  # largest change of acceleration in one step


@dataclass(frozen=True)
class CpRef:
    """One crossing point, at (x, y), as seen from a single vehicle."""

    s_self: float
    partner: int
    s_other: float
    x: float
    y: float
    # along-route backoffs that keep a stopped vehicle clear of the other
    # path; computed from the crossing geometry, so shallow merges get a
    # longer one than right-angle crossings
    hold_self: float
    hold_other: float


@dataclass(frozen=True)
class PlayerView:
    """Everything the solver needs to know about one vehicle this step."""

    route: Route
    state: VehicleState
    kappa: float
    p: float
    a_prev: float
    delta_prev: float
    player: bool
    # control applied when not a player: the decaying acceleration and the
    # tracking steer, which also seeds a player's steering search
    coast: tuple[float, float]
    lv: int | None = None
    lv_gated: bool = False
    cps: tuple[CpRef, ...] = ()  # live crossing points; constraints see all
    cost_cp: CpRef | None = None  # the one of them the cost prices


@dataclass
class StepSolution:
    controls: list[tuple[float, float]]
    terms: list[CostTerms | None]
    j_value: list[float | None]
    h_alloc: list[float]
    v_coalition: float
    p_used: list[float]
    rational: list[bool]
    group_residual: float
    sweeps: int
    evals: int
    lateral_evals: int
    emergency: list[bool]
    reset: list[bool]
    max_constraint_residual: float


def tracking_delta(route: Route, s: float, v: float) -> float:
    """Feedforward steering for the route curvature just ahead, clipped."""
    rho = route.curvature_at(s + max(v, 0.0) * DT)
    return min(max(math.atan(rho * WHEELBASE), -STEER_BOX), STEER_BOX)


def _step_reach(v0: float) -> float:
    """Farthest one RK4 step from speed v0 can move a vehicle under any
    control within |a| <= a_max and the steering box: every stage speed is
    at most max(v0, 0) + DT * a_max and moves the CoG at that over
    cos(beta), with |beta| <= BETA_MAX.  The width of a solver window: a
    prediction that lands farther away costs a full projection, nothing
    more."""
    return DT * (max(v0, 0.0) + DT * LIMITS.a_max) / math.cos(BETA_MAX)


def _ramp_peak_speed(v_next: float, a: float) -> float:
    """Highest speed reachable if deceleration starts at full jerk now.

    One step at `a` is already inside v_next; the tail assumes the
    acceleration shrinks by SLEW every following step.
    """
    if a <= 0.0:
        return v_next
    k = int(a / SLEW)
    return v_next + DT * (k * a - SLEW * k * (k + 1) / 2.0)


BOUND_NAMES = ("accel", "jerk", "speed", "steer", "lane", "course")  # accel_residuals + pose_residuals


def accel_residuals(a: float, a_prev: float, v_next: float) -> tuple[float, float, float]:
    """Signed slack of the limits that acceleration a alone sets, ordered as
    the first three BOUND_NAMES; v_next is `step_speed` under a.

    Nonpositive means satisfied.  The speed entry guards the whole
    jerk-limited ramp-down, not just the next sample, so a vehicle never
    commits to a speed it cannot back out of.
    """
    return (
        abs(a) - LIMITS.a_max,
        abs(a - a_prev) / DT - LIMITS.jerk_max,
        _ramp_peak_speed(v_next, a) - LIMITS.v_max,
    )


def pose_residuals(delta: float, dy: float, dphi: float) -> tuple[float, float, float]:
    """Signed slack of the steering box and of the predicted lane offset and
    course error, ordered as the last three BOUND_NAMES."""
    return abs(delta) - STEER_BOX, dy - LIMITS.lane_dev_max, abs(dphi) - LIMITS.course_dev_max


def closing_ttc(
    x_a: float, y_a: float, vx_a: float, vy_a: float,
    x_b: float, y_b: float, vx_b: float, vy_b: float,
) -> float:
    """Separation over closing speed between two moving points.

    Infinite when the pair is separating or holding distance, zero when
    the points coincide.  Meaningful for same-direction (car-following)
    geometry; crossing paths are handled by point-arrival standoffs.
    """
    rx, ry = x_b - x_a, y_b - y_a
    dist = math.hypot(rx, ry)
    if dist < 1e-9:
        return 0.0
    closing = -(rx * (vx_b - vx_a) + ry * (vy_b - vy_a)) / dist
    if closing <= 1e-12:
        return math.inf
    return dist / closing


def _ramp(v0: float, a0: float, tau: float) -> tuple[float, float]:
    """(speed, distance) tau into a ramp from speed v0 and acceleration a0
    whose acceleration falls at the jerk bound."""
    j = LIMITS.jerk_max
    return v0 + a0 * tau - 0.5 * j * tau * tau, v0 * tau + 0.5 * a0 * tau * tau - j * tau**3 / 6.0


def _stop_closed_form(v0: float, a0: float) -> tuple[float, float, float, float, float]:
    """(tau_r, v_r, x_r, tau_s, x_s) of the max-effort stop from speed v0
    and acceleration a0.

    Acceleration ramps down at the jerk bound until it saturates at
    -a_max after tau_r, reaching speed v_r and distance x_r, then holds
    until standstill at time tau_s and distance x_s.  When the speed runs
    out during the ramp, the stop ends on the ramp.
    """
    j, am = LIMITS.jerk_max, LIMITS.a_max
    tau_r = max((a0 + am) / j, 0.0)
    v_r, x_r = _ramp(v0, a0, tau_r)
    disc = a0 * a0 + 2.0 * j * v0
    tau_s = (a0 + math.sqrt(disc)) / j if disc > 0.0 else 0.0
    if tau_s <= tau_r or v_r <= 0.0:
        x_s = _ramp(v0, a0, tau_s)[1]
    else:
        tau_s = tau_r + v_r / am
        x_s = x_r + 0.5 * v_r * v_r / am
    return tau_r, v_r, x_r, tau_s, x_s


def stop_distance(v0: float, a0: float) -> float:
    """Distance covered by the committed max-effort stop from (v0, a0)."""
    if v0 <= 0.0 and a0 <= 0.0:
        return 0.0
    return _stop_closed_form(v0, a0)[4]


def brake_reach(v0: float, a0: float, margin: float) -> float:
    """Standoff a hazard point must keep ahead of state (v0, a0): room for
    the committed max-effort stop plus the standstill margin.

    Because the jerk-bounded stop is gradual, holding this standoff also
    keeps distance-over-speed to the point above two seconds throughout,
    so no separate time floor is needed on this branch.
    """
    return margin + stop_distance(v0, a0)


def follow_reach(v0: float, a0: float, v_lead: float, ttc_floor: float, margin: float) -> float:
    """Headway a constant-speed leader must keep ahead of (v0, a0).

    Same committed-stop construction as brake_reach, in the leader frame:
    the standstill margin plus the maximum over the stop of
    rel_x + ttc_floor * max(rel_v, 0).  That is a cubic on the ramp and a
    quadratic after it, so the maximum lies at the start, the ramp end,
    standstill, or a zero of rel_v + k * accel, k in {0, ttc_floor}.
    """
    j, am = LIMITS.jerk_max, LIMITS.a_max
    tau_r, v_r, x_r, tau_s, x_s = _stop_closed_form(v0, a0)
    taus = [0.0, tau_r]
    for k in (0.0, ttc_floor):
        # on the ramp the zeros are a quadratic's roots, after it a line's
        b = a0 - k * j
        disc = b * b + 2.0 * j * (v0 - v_lead + k * a0)
        if disc >= 0.0:
            root = math.sqrt(disc)
            taus += [(b - root) / j, (b + root) / j]
        taus.append(tau_r + (v_r - v_lead - k * am) / am)
    reach = x_s - v_lead * tau_s + margin  # standstill, where rel_v = -v_lead
    for tau in taus:
        if not 0.0 <= tau < tau_s:
            continue
        if tau <= tau_r:
            v, x = _ramp(v0, a0, tau)
        else:
            d = tau - tau_r
            v, x = v_r - am * d, x_r + v_r * d - 0.5 * am * d * d
        reach = max(reach, x - v_lead * tau + margin + ttc_floor * max(v - v_lead, 0.0))
    return reach


class _AccelSlack(dict):
    """a -> worst `accel_residuals` of one vehicle this step, on first read."""

    def __init__(self, view: PlayerView):
        self.a_prev, self.v0 = view.a_prev, view.state.v_x

    def __missing__(self, a: float) -> float:
        slack = self[a] = max(accel_residuals(a, self.a_prev, step_speed(self.v0, a)))
        return slack


class _StepSolver:
    """Cyclic best response for one control step.

    Within a step every vehicle's start state is fixed, so work that
    depends only on one vehicle's own control is shared rather than
    redone per candidate:

    - `_candidate(i, a, d)` memoizes vehicle i's predicted state, route
      projection, course error and worst bound slack per (i, a, d);
    - the sideslip, which the steer alone sets in the one shared model, is
      computed once per distinct steer (`_beta`) for RK4 and course error;
    - the worst slack of the limits that the acceleration alone sets
      (`accel_residuals`) is computed once per (i, a) (`_accel_slack[i]`);
      a candidate's bound slack is the larger of it and `pose_residuals`;
    - `_refresh_pred(j)` computes, once per change of j's control, what
      other vehicles read off j: its committed stop distance and its arc
      length on each follower's route;
    - that arc length, for any candidate (a, d) of j's leader, is
      projected once per step (`_leader_arc[j]`): `_refresh_pred` and the
      coupling term of the leader's rankings both read it there;
    - each player's route elements that its candidates can project onto
      are found once per step (`_near[i]`, a `Route.near` window around
      its start point, `_step_reach` wide), and so are those of each
      follower's route that its leader's candidates can (`_lead_near[j]`,
      around the leader's start point).  `Route.project` then visits only
      those, or every element for a prediction that lands outside the
      window's reach, and returns what the full search would;
    - `_reach_rows[i]` holds the standoff `brake_reach` asks of i per
      (a, guard) and crossing point, and `_reach_lon[i]` the headway
      `follow_reach` asks per (a, leader speed, time floor); a alone sets
      i's predicted speed.  The points, in order, and their backoffs come
      from `runner.crossing_index`, built once per run.

    A ranking of vehicle i reads, besides i's own candidate, only what
    `_refresh_pred` sets from the controls of `reads[i]` (i's leader and
    every live crossing partner), and the share p_i of its loss that i
    pools.  At p_i = 0 the ranking is i's own loss: the move of a player
    outside the coalition and the lone move the rationality check compares
    against are one and the same search.  At p_i != 0 it also reads the
    controls and p of `dependents[i]`.  So two more memos key on exactly
    those:

    - `_scored[i]` maps the controls of `reads[i]` to a map
      (a, d) -> (constraint residual, own cost or None if infeasible,
      lateral_evals increment) or `_UNSCORED` (below), shared by every
      p_i, and to i's crossing table: per live crossing point, (s_self,
      t_other, partner_hold), the part of each crossing check that only
      the partner's control moves.
      A candidate's residual then computes just its own distance and
      arrival time to each point; only the coupling term is computed per
      ranking, and only at p_i != 0;
    - `_responses` keeps each `_best_response` result with the evals and
      lateral_evals it added, so asking again against the same partner
      controls (a converged sweep, a re-sweep, the second rationality
      check, the lone move of a player already at p_i = 0) replays the
      counts instead of searching.

    Each shared value comes from the same call with the same arguments
    that would otherwise be repeated, so results are bit-for-bit those of
    recomputing it.  Memo keys compare as floats, so a control of -0.0
    reuses the entry of 0.0; nothing read from an entry depends on the
    sign of that zero.  So a steer of -0.0 may take the sideslip 0.0 of a
    steer of 0.0: predicted yaw, y and course error then differ at most in
    the sign of a zero, which enters only through sums, abs and squares.
    The memos live only as long as this solver, one step.

    The hot loop is the pair of candidate loops in `_best_response`: a
    fresh search ranks about 93 candidates, and each `_rank` that misses
    `_scored` costs one `_candidate` (RK4 and route projection), one
    `_constraint_residual` and one own loss.  Every feasible key sorts
    before every infeasible one, so once a search holds a feasible control
    (`held`) an infeasible candidate cannot win, and `_score` stops at the
    cheapest evidence: an acceleration that alone breaks a bound
    (`_accel_slack`) rules the candidate out before RK4, and a bound slack
    over FEAS_SLACK before `_constraint_residual`.  Such a candidate
    is stored as `_UNSCORED`, infeasible with its residual not computed;
    a search without a feasible control, or a direct `_rank` call, that
    reads it computes the exact residual in its place.  So searches with
    no feasible candidate, as on the emergency path, rank by exact
    residuals, and the counts are those of scoring every candidate.
    `_rank` takes the own loss from `blended_loss` over the `_own_terms`
    fields without building a CostTerms, skips `_coupling` where it is
    zero, and the search, its pattern step and the constraint loops keep
    the best in a running comparison rather than call min/max.  Some call
    sites stay as they are because `perfbench/tracing.py` wraps them by
    name: the RK4 goes through the module global `integrate(state,
    ControlInput(a, d), beta)`, projections through `Route.project`, and
    `crossing_risk`, `efficiency`, `lane_keeping`, `following_risk`,
    `stop_distance`, `brake_reach` and `follow_reach` are looked up as
    module globals at each call, never bound to locals or inlined.
    """

    def __init__(self, views: list[PlayerView], allow_reset: bool):
        self.views = views
        self.allow_reset = allow_reset
        self.n = len(views)
        self.players = [i for i in range(self.n) if views[i].player]
        self.p = [v.p for v in views]
        self.balance = [balance_weights(v.kappa) for v in views]
        self.evals = 0
        self.lateral_evals = 0
        self.sweeps = 0
        # who else's loss moves when vehicle i moves, and the players whose
        # leader is vehicle i
        self.dependents: list[list[int]] = [[] for _ in range(self.n)]
        self.followers: list[list[int]] = [[] for _ in range(self.n)]
        # the route elements a player's candidates, and a follower's
        # leader's candidates, can project onto this step
        self._near: list[Window | None] = [None] * self.n
        self._lead_near: list[Window | None] = [None] * self.n
        for j in self.players:
            vj = views[j]
            st = vj.state
            self._near[j] = vj.route.near(st.x, st.y, _step_reach(st.v_x))
            if vj.lv is not None:
                self.dependents[vj.lv].append(j)
                self.followers[vj.lv].append(j)
                st = views[vj.lv].state
                self._lead_near[j] = vj.route.near(st.x, st.y, _step_reach(st.v_x))
            cj = vj.cost_cp
            if cj is not None and cj.partner != vj.lv:
                self.dependents[cj.partner].append(j)
        self._cand: list[dict[tuple[float, float], tuple]] = [{} for _ in range(self.n)]
        self._beta: dict[float, float] = {}  # steer -> sideslip
        self._accel_slack = [_AccelSlack(v) for v in views]
        self._reach_rows: list[dict[tuple[float, float], list[float]]] = [{} for _ in range(self.n)]
        self._reach_lon: list[dict[tuple[float, float, float], float]] = [{} for _ in range(self.n)]
        # follower j -> its leader's candidate (a, d) -> that candidate's arc length on j's route
        self._leader_arc: list[dict[tuple[float, float], float]] = [{} for _ in range(self.n)]
        self.reads: list[tuple[int, ...]] = [
            (() if v.lv is None else (v.lv,)) + tuple(c.partner for c in v.cps) for v in views
        ]
        self._scored: list[dict[tuple, tuple[dict, list]]] = [{} for _ in range(self.n)]
        self._responses: dict[tuple, tuple] = {}
        self.controls: list[tuple[float, float]] = []
        for v in views:
            self.controls.append((v.a_prev, v.delta_prev) if v.player else v.coast)
        self.pred: list[VehicleState] = [None] * self.n  # type: ignore[list-item]
        self.pred_s: list[float] = [0.0] * self.n
        self.hold_dist: list[float] = [0.0] * self.n  # committed stop distance
        self.lead_s: list[float] = [0.0] * self.n  # leader's arc length on own route
        for i in range(self.n):
            self._refresh_pred(i)

    # -- prediction bookkeeping ------------------------------------------

    def _candidate(self, i: int, a: float, d: float) -> tuple[VehicleState, float, float, float, float]:
        """(predicted state, s, dy, course error, worst bound slack) of
        vehicle i under control (a, d)."""
        memo = self._cand[i]
        c = memo.get((a, d))
        if c is None:
            view = self.views[i]
            beta = self._beta.get(d)
            if beta is None:
                beta = self._beta[d] = sideslip(d)
            pred = integrate(view.state, ControlInput(a, d), beta)
            s_pred, dy, dphi = lane_errors(view.route, pred, beta, self._near[i])
            slack = max(pose_residuals(d, dy, dphi))
            a_slack = self._accel_slack[i][a]
            if a_slack > slack:
                slack = a_slack
            c = memo[(a, d)] = (pred, s_pred, dy, dphi, slack)
        return c

    def _refresh_pred(self, i: int) -> None:
        a, d = self.controls[i]
        st, s_pred = self._candidate(i, a, d)[:2]
        self.pred[i] = st
        self.pred_s[i] = s_pred
        self.hold_dist[i] = stop_distance(st.v_x, a)
        for f in self.followers[i]:
            self.lead_s[f] = self._leader_on(f, a, d, st)

    def _leader_on(self, j: int, a: float, d: float, pred: VehicleState) -> float:
        """Arc length on follower j's route of its leader's candidate (a, d),
        whose predicted state is `pred`."""
        memo = self._leader_arc[j]
        s = memo.get((a, d))
        if s is None:
            s = memo[(a, d)] = self.views[j].route.project(pred.x, pred.y, self._lead_near[j])[0]
        return s

    # -- cost pieces ------------------------------------------------------

    def _own_terms(
        self, i: int, pred: VehicleState, s_pred: float, dy: float, dphi: float
    ) -> tuple[float, float, float, float, float, float, float, float]:
        """Vehicle i's CostTerms fields, in order, for a candidate."""
        view = self.views[i]
        k_s, k_e = self.balance[i]
        cp = view.cost_cp
        omega_log = OMEGA0 if (view.lv is not None and view.lv_gated) else 0.0
        omega_lat = OMEGA0 if cp is not None else 0.0
        if view.lv is not None:
            lv_state = self.pred[view.lv]
            gap = max(self.lead_s[i] - s_pred, GAP_FLOOR)
            v_log = following_risk(pred.v_x, lv_state.v_x, gap) if omega_log > 0.0 else 0.0
        else:
            gap = max(min(view.route.total_length - s_pred, FREE_GAP), 0.0)
            v_log = 0.0
        v_lat = 0.0
        if cp is not None:
            d_self = cp.s_self - s_pred
            d_other = cp.s_other - self.pred_s[cp.partner]
            if d_self > 0.0 and d_other > 0.0:
                v_lat = crossing_risk(d_self, pred.v_x, d_other, self.pred[cp.partner].v_x)
                self.lateral_evals += 1
        return v_log, v_lat, lane_keeping(dy, dphi), efficiency(gap, pred.v_x), omega_log, omega_lat, k_s, k_e

    def _coupling(self, i: int, a: float, d: float) -> float:
        """Terms of other players' losses that move with vehicle i's
        candidate (a, d), weighted by p_i * p_j.  Constant terms are
        dropped; only differences matter.  Zero when p_i is zero or i has
        no dependents; `_rank` skips the call then."""
        pred, s_pred = self._candidate(i, a, d)[:2]
        p_i = self.p[i]
        total = 0.0
        for j in self.dependents[i]:
            w = p_i * self.p[j]
            if w == 0.0:
                continue
            vj = self.views[j]
            k_s, k_e = self.balance[j]
            contrib = 0.0
            if vj.lv == i:
                gap = max(self._leader_on(j, a, d, pred) - self.pred_s[j], GAP_FLOOR)
                if vj.lv_gated:
                    contrib += k_s * OMEGA0 * following_risk(self.pred[j].v_x, pred.v_x, gap)
                contrib += k_e * efficiency(gap, self.pred[j].v_x)
            cj = vj.cost_cp
            if cj is not None and cj.partner == i:
                d_j = cj.s_self - self.pred_s[j]
                d_i = cj.s_other - s_pred
                if d_j > 0.0 and d_i > 0.0:
                    contrib += k_s * OMEGA0 * crossing_risk(d_j, self.pred[j].v_x, d_i, pred.v_x)
                    self.lateral_evals += 1
            total += w * contrib
        return total

    # -- constraints ------------------------------------------------------

    def _crossing_table(self, i: int) -> list[tuple[float, float, float]]:
        """(s_self, t_other, partner_hold) of each of vehicle i's live
        crossing points under the partners' current controls: the part of
        every crossing check that no candidate of i moves."""
        table = []
        for cp in self.views[i].cps:
            d_other = cp.s_other - self.pred_s[cp.partner]
            v_other = self.pred[cp.partner].v_x
            t_other = d_other / v_other if v_other > STOPPED else math.inf  # arrival_time, inline
            table.append((cp.s_self, t_other, cp.hold_other + self.hold_dist[cp.partner] - d_other))
        return table

    def _constraint_residual(
        self, i: int, a: float, pred: VehicleState, s_pred: float, bound_slack: float, guard: float,
        table: list[tuple[float, float, float]],
    ) -> float:
        """Worst slack of vehicle i's candidate over its bounds, its leader
        headway and its crossing points; `table` is `_crossing_table(i)`
        under the partners' current controls."""
        view = self.views[i]
        res = bound_slack
        ttc_floor = LIMITS.ttc_min + guard
        v = pred.v_x
        if view.lv is not None:
            v_lead = self.pred[view.lv].v_x
            key = (a, v_lead, ttc_floor)
            need = self._reach_lon[i].get(key)
            if need is None:
                need = self._reach_lon[i][key] = follow_reach(v, a, v_lead, ttc_floor, LIMITS.stop_margin + guard)
            lead_slack = need - (self.lead_s[i] - s_pred)
            if lead_slack > res:
                res = lead_slack
        if not table:
            return res
        row = self._reach_rows[i].get((a, guard))
        if row is None:
            row = self._reach_rows[i][(a, guard)] = [brake_reach(v, a, cp.hold_self + guard) for cp in view.cps]
        moving = v > STOPPED
        for (s_self, t_other, partner_hold), reach in zip(table, row):
            d_self = s_self - s_pred
            if d_self <= 0.0:
                continue  # already past; liveness filtering retires it soon
            # the pair is safe while any one of three escapes stays open:
            # this vehicle can still stop short of the point, the partner
            # can (under its announced control), or both are moving with
            # arrivals separated by the time floor.  Which escape a vehicle
            # ends up relying on is the game's decision, not a fixed rule;
            # priority emerges when one side lets its stopping option lapse
            # and the other is left with braking as its only branch.  The
            # partner term carries no guard: a partner holding at its own
            # guarded backoff must read as clear here.
            #
            # res = max(res, min(self_hold, partner_hold, sep)), taken with
            # comparisons; ties keep the earlier operand, as min/max do.  A
            # parked vehicle never crosses, so it makes no time claim: sep
            # is infinite then.  Arc lengths are bounded, so t_self is
            # finite exactly when this vehicle moves.
            worst = reach - d_self
            if partner_hold < worst:
                worst = partner_hold
            if moving and t_other != math.inf:
                sep = ttc_floor - abs(t_other - d_self / v)
                if sep < worst:
                    worst = sep
            if worst > res:
                res = worst
        return res

    # -- candidate evaluation --------------------------------------------

    def _scored_for(self, i: int) -> tuple[tuple, dict[tuple[float, float], tuple], list]:
        """The controls of `reads[i]`, vehicle i's scored candidates against
        them and its crossing table under them."""
        reads = tuple(self.controls[j] for j in self.reads[i])
        context = self._scored[i].get(reads)
        if context is None:
            context = self._scored[i][reads] = ({}, self._crossing_table(i))
        return reads, *context

    def _score(self, i: int, a: float, d: float, table: list, held: bool) -> tuple:
        """`_scored` entry of vehicle i's candidate (a, d): (constraint
        residual, own cost or None if infeasible, lateral_evals increment).
        With `held`, a candidate its acceleration or its bounds already rule
        out is `_UNSCORED`, before RK4 or before the interaction residual."""
        if held and self._accel_slack[i][a] > FEAS_SLACK:
            return _UNSCORED
        pred, s_pred, dy, dphi, slack = self._candidate(i, a, d)
        if held and slack > FEAS_SLACK:
            return _UNSCORED
        residual = self._constraint_residual(i, a, pred, s_pred, slack, TTC_GUARD, table)
        if residual > FEAS_SLACK:
            return (residual, None, 0)
        lateral = self.lateral_evals
        own = blended_loss(*self._own_terms(i, pred, s_pred, dy, dphi))
        return (residual, own, self.lateral_evals - lateral)

    def _rank(self, i: int, a: float, d: float, p_i: float, scored: dict, table: list, held: bool = False):
        """Rank key of vehicle i's candidate (a, d); `held` says the asking
        search already holds a feasible control."""
        self.evals += 1
        entry = scored.get((a, d))
        if entry is None or (entry is _UNSCORED and not held):
            entry = scored[(a, d)] = self._score(i, a, d, table, held)
        else:
            self.lateral_evals += entry[2]
        residual, own, _ = entry
        if own is None:
            return (1.0, residual, abs(a), abs(d), a, d)
        value = (1.0 - p_i + p_i * p_i) * own
        if p_i != 0.0 and self.dependents[i]:
            value += self._coupling(i, a, d)
        return (0.0, value, abs(a), abs(d), a, d)

    def _accel_box(self, i: int) -> tuple[float, float]:
        a_prev = self.views[i].a_prev
        return max(-LIMITS.a_max, a_prev - SLEW), min(LIMITS.a_max, a_prev + SLEW)

    def _cap_candidate(self, i: int, a_lo: float, a_hi: float) -> float | None:
        """Largest in-box acceleration that keeps the speed ramp legal."""
        v0 = self.views[i].state.v_x

        def over(a: float) -> bool:
            return _ramp_peak_speed(v0 + a * DT, a) > LIMITS.v_max

        if not over(a_hi) or over(a_lo):
            return None
        lo, hi = a_lo, a_hi
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if over(mid):
                hi = mid
            else:
                lo = mid
        return lo

    def _best_response(self, i: int, p_i: float) -> tuple[float, float, tuple]:
        """Vehicle i's best control against the current partner controls
        when it pools the share p_i of its loss; p_i = 0 is its lone move."""
        reads, scored, table = self._scored_for(i)
        asked = (i, p_i, reads)
        if p_i != 0.0:
            asked += (tuple((self.controls[j], self.p[j]) for j in self.dependents[i]),)
        seen = self._responses.get(asked)
        if seen is not None:
            ba, bd, bkey, evals, lateral = seen
            self.evals += evals
            self.lateral_evals += lateral
            return ba, bd, bkey
        evals, lateral = self.evals, self.lateral_evals
        view = self.views[i]
        a_lo, a_hi = self._accel_box(i)
        d_lim = STEER_BOX
        memo: dict[tuple[float, float], tuple] = {}  # (a, d) -> rank key, this search only

        seeds_a = [a_lo + k * (a_hi - a_lo) / 4.0 for k in range(5)]
        cap = self._cap_candidate(i, a_lo, a_hi)
        if cap is not None:
            seeds_a.append(cap)
        d_ff = view.coast[1]
        seeds_d = [0.0, view.delta_prev, d_ff]
        for off in (math.radians(1.0), math.radians(3.0), math.radians(8.0)):
            seeds_d.append(d_ff + off)
            seeds_d.append(d_ff - off)
        seeds_d = sorted({min(max(d, -d_lim), d_lim) for d in seeds_d})

        bkey, held = None, False
        for a in seeds_a:
            for d in seeds_d:
                key = memo.get((a, d))
                if key is None:
                    key = memo[(a, d)] = self._rank(i, a, d, p_i, scored, table, held)
                if bkey is None or key < bkey:
                    bkey, ba, bd = key, a, d
                    held = key[0] == 0.0

        da, dd = 0.05, math.radians(1.0)
        moves = 0
        while (da > 2.5e-4 or dd > 5e-5) and moves < 200:
            held = bkey[0] == 0.0
            nkey = None
            for na, nd in (
                (ba + da, bd), (ba - da, bd), (ba, bd + dd), (ba, bd - dd),
                (ba + da, bd + dd), (ba + da, bd - dd), (ba - da, bd + dd), (ba - da, bd - dd),
            ):
                # clamp into the box; on a tie the operand stays, as min/max keep it
                if na < a_lo:
                    na = a_lo
                if na > a_hi:
                    na = a_hi
                if nd < -d_lim:
                    nd = -d_lim
                if nd > d_lim:
                    nd = d_lim
                if na == ba and nd == bd:
                    continue
                key = memo.get((na, nd))
                if key is None:
                    key = memo[(na, nd)] = self._rank(i, na, nd, p_i, scored, table, held)
                # the first least key wins, as under min; keys end in (a, d)
                if nkey is None or key < nkey:
                    nkey, na_best, nd_best = key, na, nd
            if nkey is not None and nkey < bkey:
                bkey, ba, bd = nkey, na_best, nd_best
                moves += 1
            else:
                da *= 0.5
                dd *= 0.5
        self._responses[asked] = (ba, bd, bkey, self.evals - evals, self.lateral_evals - lateral)
        return ba, bd, bkey

    # -- game rounds ------------------------------------------------------

    def _sweep_loop(self) -> list[bool]:
        feasible = [True] * self.n
        for _ in range(MAX_SWEEPS):
            self.sweeps += 1
            worst = 0.0
            for i in self.players:
                a, d, key = self._best_response(i, self.p[i])
                feasible[i] = key[0] == 0.0
                worst = max(worst, abs(a - self.controls[i][0]), abs(d - self.controls[i][1]))
                self.controls[i] = (a, d)
                self._refresh_pred(i)
            if worst < CONV_TOL:
                break
        return feasible

    def solve(self) -> StepSolution:
        """A player still infeasible after the sweeps is reset in every
        mode; `allow_reset` gates only the reset of irrational members."""
        reset = [False] * self.n
        emergency = [False] * self.n
        feasible = self._sweep_loop()

        bad = [i for i in self.players if not feasible[i]]
        if bad:
            self._resweep(bad, reset, emergency)

        rational, solo = self._rationality()
        if self.allow_reset and not all(rational):
            self._resweep([i for i in self.players if not rational[i]], reset, emergency)
            rational, solo = self._rationality()

        return self._bookkeeping(emergency, reset, rational, solo)

    def _resweep(self, leaving: list[int], reset: list[bool], emergency: list[bool]) -> None:
        """Take `leaving` out of the coalition (p = 0 and `reset`, in any
        mode) and sweep again; a player still infeasible afterwards falls
        back to full braking on its tracking steer.  The sweep moves every
        player, so one braked by an earlier fallback and feasible now
        drives its swept control."""
        for i in leaving:
            if self.p[i] != 0.0:
                self.p[i] = 0.0
                reset[i] = True
        feasible = self._sweep_loop()
        for i in self.players:
            emergency[i] = not feasible[i]
            if emergency[i]:
                self.controls[i] = (-LIMITS.a_max, self.views[i].coast[1])
                self._refresh_pred(i)

    def _rationality(self) -> tuple[list[bool], list[float]]:
        """Member i is rational when p_i * (v_i - v_lone) <= RATIONALITY_TOL:
        v_i is its own loss at the step's controls, v_lone that of its lone
        move, the best response at p_i = 0 against the same partner
        controls.  A member at p_i = 0 is rational by definition, and one
        with no feasible lone move has nothing to compare against.  Returns
        the flags and each player's v_lone, 0.0 where none was compared."""
        rational = [True] * self.n
        solo_v = [0.0] * self.n
        for i in self.players:
            if self.p[i] == 0.0:
                continue
            key = self._best_response(i, 0.0)[2]
            if key[0] != 0.0:
                continue  # no feasible lone move; nothing to compare against
            solo_v[i] = key[1]
            v_here = self._final_terms(i).total
            rational[i] = self.p[i] * (v_here - solo_v[i]) <= RATIONALITY_TOL
        return rational, solo_v

    def _final_terms(self, i: int) -> CostTerms:
        pred, s_pred, dy, dphi, _ = self._candidate(i, *self.controls[i])
        return CostTerms(*self._own_terms(i, pred, s_pred, dy, dphi))

    def _bookkeeping(self, emergency, reset, rational, solo) -> StepSolution:
        n = self.n
        terms: list[CostTerms | None] = [None] * n
        j_value: list[float | None] = [None] * n
        h_alloc = [0.0] * n
        max_res = 0.0
        for i in self.players:
            terms[i] = self._final_terms(i)
            if not emergency[i]:
                a, d = self.controls[i]
                pred, s_pred, _, _, slack = self._candidate(i, a, d)
                table = self._scored_for(i)[2]
                max_res = max(max_res, self._constraint_residual(i, a, pred, s_pred, slack, 0.0, table))
        p = [self.p[i] for i in self.players]
        values = [terms[i].total for i in self.players]
        v_sg, shares, kept = coalition_costs(values, p)
        for i, p_i, share, own in zip(self.players, p, shares, kept):
            h_alloc[i] = share
            j_value[i] = p_i * v_sg + own
        group = v_sg - coalition_costs([solo[i] for i in self.players], p)[0]
        return StepSolution(
            controls=list(self.controls),
            terms=terms,
            j_value=j_value,
            h_alloc=h_alloc,
            v_coalition=v_sg,
            p_used=list(self.p),
            rational=rational,
            group_residual=group,
            sweeps=self.sweeps,
            evals=self.evals,
            lateral_evals=self.lateral_evals,
            emergency=emergency,
            reset=reset,
            max_constraint_residual=max_res,
        )


def solve_step(views: list[PlayerView], allow_reset: bool = True) -> StepSolution:
    solver = _StepSolver(views, allow_reset)
    return solver.solve()
