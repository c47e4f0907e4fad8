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
    arrival_time,
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
# pattern steps of the best response: it polls first at the finest, grows
# the moved axis by 4 after a move up to the coarsest, quarters both after
# a round without one and ends on such a round at the finest
_COARSE_A, _COARSE_D = 0.05, math.radians(1.0)
_FINE_A, _FINE_D = _COARSE_A * 0.25**4, _COARSE_D * 0.25**4
# `_scored` entry of a candidate known infeasible whose residual is not computed
_UNSCORED = (math.inf, None)


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
# least bound slack of any candidate: its course entry never reads lower
_SLACK_FLOOR = -LIMITS.course_dev_max


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
    name: str = ""  # the vehicle's name: the solver visits players in name order


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
    """Farthest one `step` from speed v0 can move a vehicle under any
    control within |a| <= a_max and the steering box: the CoG moves along
    a chord no longer than its arc D / cos(beta), with |beta| <= BETA_MAX
    and the distance D at most DT * (v0 + DT * a_max / 2), inside the
    DT * (max(v0, 0) + DT * a_max) taken here.  The width of a solver
    window: a prediction that lands farther away costs a full projection,
    nothing more."""
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


def _speed_cap(v0: float, a_lo: float, a_hi: float) -> float | None:
    """Largest acceleration in [a_lo, a_hi] from speed v0 that keeps the
    speed ramp legal, to 48 halvings of the box; None when a_hi keeps it
    legal or a_lo does not."""

    def over(a: float) -> bool:
        return _ramp_peak_speed(step_speed(v0, a), a) > LIMITS.v_max

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


class _Vehicle:
    """One vehicle in one control step: its view, its state in the game
    and, for a player, its own problem, ranked and searched here.

    Within a step every start state is fixed, so work that depends only
    on the vehicle's own control is memoized for the step.  Each memo
    keys on what sets its value and saves one call per hit; ROADMAP item
    20 keeps only those whose removal measurably costs:

    - `_cand`, per (a, d): a `step` prediction and a route projection;
    - `_accel_slack`, per a: an `accel_residuals`, which a alone sets;
    - `_leader_arc`, per leader candidate (a, d): a projection on own route;
    - `_reach_rows`, per (a, guard) and crossing point: a `brake_reach`;
    - `_reach_lon`, per (a, leader speed, time floor): a `follow_reach`;
    - `_near`, `_lead_near`, per step: visits of far route elements;
    - `_scored`, per context (below) and (a, d): a `_score`;
    - `_responses`, per (ranked p, context, dependents): the last search,
      replayed to a search that would repeat its answer (`_StepSolver`).

    `_refresh_pred` sets, once per change of the control, what others
    read off the vehicle: its committed stop distance and, through each
    follower's `_leader_arc`, which the coupling term reads too, its arc
    length on that follower's route.  A window (`_near`, `_lead_near`) is
    a `Route.near`, `_step_reach` wide, around the player's start point or
    its leader's: `Route.project` visits only its elements, or all for a
    prediction landing outside its reach, and returns what the full
    search would.  `_link` finds them, the vehicles a player reads and its
    search grid (`_grid`): its jerk-limited acceleration box and the seeds
    a fresh `_best_response` ranks after the held control, with the
    `_speed_cap` seed bisected once.  Crossing points, in order, and their
    backoffs come from `runner.crossing_index`, built once per run.

    A ranking reads, besides the own candidate, only what `_refresh_pred`
    sets from the controls of the `leader`, of the priced `partner` and of
    each crossing partner whose row `_crossing_table` keeps, and the
    share p of the loss the vehicle pools.  At p = 0 the ranking is its
    own loss: a non-member's move and the lone move the rationality check
    compares against are one search.  So are those of a member none of
    whose `dependents` pools: its pooled objective is (1 - p + p^2) * own
    plus constants, whose argmin is the lone move's, and `_best_response`
    ranks it at p = 0.  Otherwise the ranking also reads the dependents'
    controls and p.  So `_scored` is keyed by the context (leader's
    control, priced partner's control, `_crossing_table`'s tokens).  It
    holds the crossing rows, the part of each kept check only the
    partner's control moves, and maps (a, d) to (constraint residual, own
    cost or None if infeasible) or `_UNSCORED` (below), shared by every p:
    a candidate's residual computes just its own distance and arrival time
    to each point, and only the coupling term, at p != 0, is computed per
    ranking.  `_responses` adds p and, at p != 0, the dependents' controls
    and p to that context.

    Each shared value comes from the same call with the same arguments
    that would otherwise be repeated, so results are bit-for-bit those of
    recomputing it.  Memo keys compare as floats, so a control of -0.0
    reuses the entry of 0.0, and nothing read from an entry depends on the
    sign of that zero: a steer of -0.0 may take the prediction of 0.0,
    whose yaw, y and course error differ at most in the sign of a zero,
    which enters only through sums, abs and squares.  The memos live as
    long as the vehicle, one step.

    The hot loop is the pair of candidate loops in `_best_response`: a
    fresh search ranks the held control, when in the box, then at most 4
    accelerations x 3 steers (0, the previous steer and the tracking
    steer) of seeds; then it polls the incumbent's four axis neighbours
    from the finest steps up: a move grows the moved axis's step by 4, a
    round without one quarters both, and such a round at the finest steps
    ends the search.  It ranks about 19 candidates on the shipped
    scenarios (fuzzy mode), about 8 in the 37% of searches that keep the
    held control.  Each `_rank` that misses `_scored` costs one
    `_candidate`, one `_constraint_residual` and one own loss.  Every
    feasible key sorts before every infeasible one, so once a search
    holds a feasible control (`held`) an infeasible candidate cannot win,
    and `_score` stops at the cheapest evidence: an acceleration that
    alone breaks a bound (`_accel_slack`) rules the candidate out before
    its prediction, a bound slack over FEAS_SLACK before
    `_constraint_residual`.  It is then stored as `_UNSCORED`, its residual
    not computed; a search without a feasible control, or a direct
    `_rank`, that reads it computes the exact residual, so searches with
    no feasible candidate, as on the emergency path, rank by exact
    residuals.  `_rank` takes the own loss from `blended_loss` over the
    `_own_terms` fields without building a CostTerms and skips `_coupling`
    where it is zero; the search, its pattern step and the constraint
    loops keep the best in a running comparison rather than call min/max.
    """

    def __init__(self, solver: _StepSolver, view: PlayerView):
        self.solver, self.view = solver, view  # the solver counts this vehicle's work
        self.p = view.p
        self.balance = balance_weights(view.kappa)
        self.control = (view.a_prev, view.delta_prev) if view.player else view.coast
        # the vehicles a player reads (`_link`), and the players whose loss
        # moves with this vehicle: those it leads or whose priced partner it is
        self.leader: _Vehicle | None = None
        self.partner: _Vehicle | None = None  # of the crossing point its cost prices
        self.crossings: list[tuple[CpRef, _Vehicle]] = []  # each live crossing point and its partner
        self.dependents: list[_Vehicle] = []
        # the route elements a player's candidates, and its leader's
        # candidates, can project onto this step
        self._near: Window | None = None
        self._lead_near: Window | None = None
        self._grid: tuple[float, float, list[tuple[float, float]]] | None = None  # (a_lo, a_hi, seeds)
        self._cand: dict[tuple[float, float], tuple] = {}
        self._accel_slack = _AccelSlack(view)
        self._reach_rows: dict[tuple[float, float], list[float | None]] = {}
        self._reach_lon: dict[tuple[float, float, float], float] = {}
        # the leader's candidate (a, d) -> that candidate's arc length on own route
        self._leader_arc: dict[tuple[float, float], float] = {}
        self._scored: dict[tuple, tuple[dict, list]] = {}
        # asked -> (start, the response if certified else None, (a, d, key))
        self._responses: dict[tuple, tuple] = {}
        self.lead_s = 0.0  # the leader's arc length on own route
        # the step's outcome, `reset` aside: a reset changes only `p`.  `solo`
        # is the lone move's loss, 0.0 where none was compared
        self.rational, self.emergency = True, False
        self.solo, self.terms, self.j_value, self.h_alloc = 0.0, None, None, 0.0

    def _link(self, vehicles: list[_Vehicle]) -> None:
        """Find a player's windows, its search grid and the vehicles it reads."""
        view = self.view
        st = view.state
        self._near = view.route.near(st.x, st.y, _step_reach(st.v_x))
        a_lo, a_hi = max(-LIMITS.a_max, view.a_prev - SLEW), min(LIMITS.a_max, view.a_prev + SLEW)
        seeds_a = [a_lo, 0.5 * (a_lo + a_hi), a_hi]
        cap = _speed_cap(st.v_x, a_lo, a_hi)
        if cap is not None:
            seeds_a.append(cap)
        seeds_d = sorted({min(max(d, -STEER_BOX), STEER_BOX) for d in (0.0, view.delta_prev, view.coast[1])})
        self._grid = (a_lo, a_hi, [(a, d) for a in seeds_a for d in seeds_d])
        if view.lv is not None:
            self.leader = vehicles[view.lv]
            self.leader.dependents.append(self)
            st = self.leader.view.state
            self._lead_near = view.route.near(st.x, st.y, _step_reach(st.v_x))
        cp = view.cost_cp
        if cp is not None:
            self.partner = vehicles[cp.partner]
            if cp.partner != view.lv:
                self.partner.dependents.append(self)
        self.crossings = [(cp, vehicles[cp.partner]) for cp in view.cps]

    # -- prediction bookkeeping ------------------------------------------

    def _candidate(self, a: float, d: float) -> tuple[VehicleState, float, float, float, float]:
        """(predicted state, s, dy, course error, worst bound slack) under
        control (a, d)."""
        c = self._cand.get((a, d))
        if c is None:
            view = self.view
            beta = sideslip(d)
            pred = integrate(view.state, ControlInput(a, d), beta)
            s_pred, dy, dphi = lane_errors(view.route, pred, beta, self._near)
            slack = max(pose_residuals(d, dy, dphi))
            a_slack = self._accel_slack[a]
            if a_slack > slack:
                slack = a_slack
            c = self._cand[(a, d)] = (pred, s_pred, dy, dphi, slack)
        return c

    def _refresh_pred(self) -> None:
        a, d = self.control
        st, self.pred_s = self._candidate(a, d)[:2]
        self.pred = st
        self.hold_dist = stop_distance(st.v_x, a)  # committed stop distance
        for f in self.dependents:
            if f.leader is self:
                f.lead_s = f._leader_on(a, d, st)

    def _leader_on(self, a: float, d: float, pred: VehicleState) -> float:
        """Arc length on own route of the leader's candidate (a, d), whose
        predicted state is `pred`."""
        s = self._leader_arc.get((a, d))
        if s is None:
            s = self._leader_arc[(a, d)] = self.view.route.project(pred.x, pred.y, self._lead_near)[0]
        return s

    # -- cost pieces ------------------------------------------------------

    def _own_terms(
        self, pred: VehicleState, s_pred: float, dy: float, dphi: float
    ) -> tuple[float, float, float, float, float, float, float, float]:
        """The vehicle's CostTerms fields, in order, for a candidate."""
        view, leader = self.view, self.leader
        k_s, k_e = self.balance
        cp = view.cost_cp
        omega_log = OMEGA0 if (leader is not None and view.lv_gated) else 0.0
        omega_lat = OMEGA0 if cp is not None else 0.0
        if leader is not None:
            gap = max(self.lead_s - s_pred, GAP_FLOOR)
            v_log = following_risk(pred.v_x, leader.pred.v_x, gap) if omega_log > 0.0 else 0.0
        else:
            gap = max(min(view.route.total_length - s_pred, FREE_GAP), 0.0)
            v_log = 0.0
        v_lat = 0.0
        if cp is not None:
            d_self = cp.s_self - s_pred
            d_other = cp.s_other - self.partner.pred_s
            if d_self > 0.0 and d_other > 0.0:
                v_lat = crossing_risk(d_self, pred.v_x, d_other, self.partner.pred.v_x)
                self.solver.lateral_evals += 1
        return v_log, v_lat, lane_keeping(dy, dphi), efficiency(gap, pred.v_x), omega_log, omega_lat, k_s, k_e

    def _coupling(self, a: float, d: float) -> float:
        """Terms of other players' losses that move with candidate (a, d),
        weighted by p * p_j, constant terms dropped.  Zero when p is zero
        or no dependent pools: `_best_response` ranks such a member at
        p = 0, and `_rank` skips the call at p = 0.  It reads the prediction
        `_score` memoized, as `_rank` calls it only on a feasible entry."""
        pred, s_pred = self._cand[(a, d)][:2]
        total = 0.0
        for dep in self.dependents:
            w = self.p * dep.p
            if w == 0.0:
                continue
            k_s, k_e = dep.balance
            contrib = 0.0
            if dep.leader is self:
                gap = max(dep._leader_on(a, d, pred) - dep.pred_s, GAP_FLOOR)
                if dep.view.lv_gated:
                    contrib += k_s * OMEGA0 * following_risk(dep.pred.v_x, pred.v_x, gap)
                contrib += k_e * efficiency(gap, dep.pred.v_x)
            if dep.partner is self:
                cj = dep.view.cost_cp
                d_j = cj.s_self - dep.pred_s
                d_i = cj.s_other - s_pred
                if d_j > 0.0 and d_i > 0.0:
                    contrib += k_s * OMEGA0 * crossing_risk(d_j, dep.pred.v_x, d_i, pred.v_x)
                    self.solver.lateral_evals += 1
            total += w * contrib
        return total

    # -- constraints ------------------------------------------------------

    def _crossing_table(self) -> tuple[list[tuple[int, float, float, float]], tuple]:
        """(rows, tokens) of the vehicle's live crossing points under the
        partners' current controls.  A row (k, s_self, t_other,
        partner_hold) holds the part of point k's check that no candidate
        moves.  A point's check is min(self_hold, partner_hold, sep), and
        a residual starts at the bound slack, never below `_SLACK_FLOOR`;
        so a point whose partner_hold is at most that floor never sets a
        residual and has no row.  Its token is None, that of a point with
        a row its partner's control.  So the drop also narrows the
        `_scored` key: that partner can move without opening a new
        context, which saves rankings and crossing-risk terms that
        `steps.csv` records, so it is no pure memo."""
        rows, tokens = [], []
        for k, (cp, other) in enumerate(self.crossings):
            d_other = cp.s_other - other.pred_s
            partner_hold = cp.hold_other + other.hold_dist - d_other
            if partner_hold <= _SLACK_FLOOR:
                tokens.append(None)
                continue
            rows.append((k, cp.s_self, arrival_time(d_other, other.pred.v_x), partner_hold))
            tokens.append(other.control)
        return rows, tuple(tokens)

    def _constraint_residual(
        self, a: float, pred: VehicleState, s_pred: float, bound_slack: float, guard: float,
        table: list[tuple[int, float, float, float]],
    ) -> float:
        """Worst slack of a candidate over its bounds, its leader headway
        and its crossing points; `table` holds the rows of
        `_crossing_table` under the partners' current controls."""
        view = self.view
        res = bound_slack
        ttc_floor = LIMITS.ttc_min + guard
        v = pred.v_x
        if self.leader is not None:
            v_lead = self.leader.pred.v_x
            key = (a, v_lead, ttc_floor)
            need = self._reach_lon.get(key)
            if need is None:
                need = self._reach_lon[key] = follow_reach(v, a, v_lead, ttc_floor, LIMITS.stop_margin + guard)
            lead_slack = need - (self.lead_s - s_pred)
            if lead_slack > res:
                res = lead_slack
        if not table:
            return res
        row = self._reach_rows.get((a, guard))
        if row is None:
            row = self._reach_rows[(a, guard)] = [None] * len(view.cps)
        moving = v > STOPPED
        for k, s_self, t_other, partner_hold in table:
            d_self = s_self - s_pred
            if d_self <= 0.0:
                continue  # already past; liveness filtering retires it soon
            reach = row[k]
            if reach is None:
                reach = row[k] = brake_reach(v, a, view.cps[k].hold_self + guard)
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

    def _scored_for(self) -> tuple[tuple, dict[tuple[float, float], tuple], list]:
        """The `_scored` key under the current controls, its scored
        candidates and the crossing rows under that key."""
        rows, tokens = self._crossing_table()
        key = (
            None if self.leader is None else self.leader.control,
            None if self.partner is None else self.partner.control,
            tokens,
        )
        context = self._scored.get(key)
        if context is None:
            context = self._scored[key] = ({}, rows)
        return key, *context

    def _score(self, a: float, d: float, table: list, held: bool) -> tuple:
        """`_scored` entry of candidate (a, d): (constraint residual, own
        cost or None if infeasible); with `held`, `_UNSCORED` when its
        acceleration or its bounds already rule it out."""
        if held and self._accel_slack[a] > FEAS_SLACK:
            return _UNSCORED
        pred, s_pred, dy, dphi, slack = self._candidate(a, d)
        if held and slack > FEAS_SLACK:
            return _UNSCORED
        residual = self._constraint_residual(a, pred, s_pred, slack, TTC_GUARD, table)
        if residual > FEAS_SLACK:
            return (residual, None)
        return (residual, blended_loss(*self._own_terms(pred, s_pred, dy, dphi)))

    def _rank(self, a: float, d: float, p_i: float, scored: dict, table: list, held: bool = False):
        """Rank key of candidate (a, d) at the pooled share p_i; `held`
        says the asking search already holds a feasible control."""
        self.solver.evals += 1
        entry = scored.get((a, d))
        if entry is None or (entry is _UNSCORED and not held):
            entry = scored[(a, d)] = self._score(a, d, table, held)
        residual, own = entry
        if own is None:
            return (1.0, residual, abs(a), abs(d), a, d)
        value = (1.0 - p_i + p_i * p_i) * own
        if p_i != 0.0:
            value += self._coupling(a, d)
        return (0.0, value, abs(a), abs(d), a, d)

    def _ranked_p(self, p_i: float) -> float:
        """The share `_best_response` ranks at when the vehicle pools p_i:
        0 for a member none of whose dependents pools."""
        if p_i != 0.0 and all(dep.p == 0.0 for dep in self.dependents):
            return 0.0
        return p_i

    def _best_response(self, p_i: float) -> tuple[float, float, tuple]:
        """The best control against the current partner controls when the
        vehicle pools the share p_i of its loss; p_i = 0 is its lone move.
        It ranks at `_ranked_p`, and its key is never worse than that of
        the control held when that lies in the box."""
        p_i = self._ranked_p(p_i)
        context, scored, table = self._scored_for()
        asked = (p_i, context)
        if p_i != 0.0:
            asked += (tuple((dep.control, dep.p) for dep in self.dependents),)
        start = self.control
        seen = self._responses.get(asked)
        if seen is not None and start in seen[:2]:
            return seen[2]
        a_lo, a_hi, seeds = self._grid
        d_lim = STEER_BOX
        if a_lo <= start[0] <= a_hi and -d_lim <= start[1] <= d_lim:
            seeds = [start, *seeds]
        memo: dict[tuple[float, float], tuple] = {}  # (a, d) -> rank key, this search only

        bkey, held = None, False
        for a, d in seeds:
            key = memo.get((a, d))
            if key is None:
                key = memo[(a, d)] = self._rank(a, d, p_i, scored, table, held)
            if bkey is None or key < bkey:
                bkey, ba, bd = key, a, d
                held = key[0] == 0.0

        da, dd = _FINE_A, _FINE_D
        moves = 0
        certified = False  # ended on a failed round at the finest steps
        while moves < 200:
            held = bkey[0] == 0.0
            nkey = None
            for na, nd in ((ba + da, bd), (ba - da, bd), (ba, bd + dd), (ba, bd - dd)):
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
                    key = memo[(na, nd)] = self._rank(na, nd, p_i, scored, table, held)
                # the first least key wins, as under min; keys end in (a, d)
                if nkey is None or key < nkey:
                    nkey, na_best, nd_best = key, na, nd
            if nkey is not None and nkey < bkey:
                # a move pays: the moved axis polls 4 times farther next round
                if na_best != ba:
                    da = min(4.0 * da, _COARSE_A)
                else:
                    dd = min(4.0 * dd, _COARSE_D)
                bkey, ba, bd = nkey, na_best, nd_best
                moves += 1
            elif da == _FINE_A and dd == _FINE_D:
                certified = True
                break
            else:
                da = max(0.25 * da, _FINE_A)
                dd = max(0.25 * dd, _FINE_D)
        self._responses[asked] = (start, (ba, bd) if certified else None, (ba, bd, bkey))
        return ba, bd, bkey

    def _final_terms(self) -> CostTerms:
        pred, s_pred, dy, dphi, _ = self._candidate(*self.control)
        return CostTerms(*self._own_terms(pred, s_pred, dy, dphi))


class _StepSolver:
    """Cyclic best response for one control step: the game's rounds over
    one `_Vehicle` per view, and the step's counters.

    Players are visited in name order (`PlayerView.name`) by the sweeps,
    the rationality check and the bookkeeping.  A search starts from the
    held control, so each response reads those swept before it; swept in
    index order, listing the vehicles differently would change the result
    in its last digits.

    A round that asks a player again (a converged sweep, a re-sweep, the
    second rationality check, the lone move of a player ranked at p = 0)
    gets its `_responses` answer without a search.  Per question it keeps
    the last search's start, its response R and whether it ended on its
    certificate, and replays R only to a search from that start or from
    R.  From its own start a search repeats itself.  From R, which lies in
    the box, a search ranks R, then the seeds, which the stored search
    ranked and found no better than R; then it polls R's four neighbours
    at the finest steps, which the stored search's last round found no
    better, and ends on R.  A search stopped by the 200-move cap certified
    nothing, so only its own start replays it.

    The counters count work done: `evals` the calls of `_rank` and
    `lateral_evals` those of `crossing_risk`, so a memo's answer adds to
    neither.  The vehicles link to this solver and to each other, so
    `solve_step` unlinks them before it returns and leaves no cycle.
    Some call sites stay as they are because `perfbench/tracing.py` wraps
    them by name: the prediction goes through the module global
    `integrate(state, ControlInput(a, d), beta)`, projections through
    `Route.project`, and `crossing_risk`, `efficiency`, `lane_keeping`,
    `following_risk`, `stop_distance`, `brake_reach` and `follow_reach`
    are looked up as module globals at each call, never bound to locals
    or inlined.
    """

    def __init__(self, views: list[PlayerView], allow_reset: bool):
        self.allow_reset = allow_reset
        self.evals = 0
        self.lateral_evals = 0
        self.sweeps = 0
        self.vehicles = [_Vehicle(self, v) for v in views]
        # name order, so no result depends on the order vehicles are listed
        # in; the sort is stable, so views with equal names keep index order
        self.players = sorted((v for v in self.vehicles if v.view.player), key=lambda v: v.view.name)
        for v in self.players:
            v._link(self.vehicles)
        for v in self.vehicles:
            v._refresh_pred()

    # -- game rounds ------------------------------------------------------

    def _sweep_loop(self) -> list[_Vehicle]:
        """Sweep to convergence; returns the players last answered infeasibly."""
        for _ in range(MAX_SWEEPS):
            self.sweeps += 1
            worst = 0.0
            infeasible = []
            for v in self.players:
                a, d, key = v._best_response(v.p)
                if key[0] != 0.0:
                    infeasible.append(v)
                worst = max(worst, abs(a - v.control[0]), abs(d - v.control[1]))
                v.control = (a, d)
                v._refresh_pred()
            if worst < CONV_TOL:
                break
        return infeasible

    def solve(self) -> StepSolution:
        """A player still infeasible after the sweeps is reset in every
        mode; `allow_reset` gates only the reset of irrational members."""
        bad = self._sweep_loop()
        if bad:
            self._resweep(bad)

        self._rationality()
        if self.allow_reset and not all(v.rational for v in self.players):
            self._resweep([v for v in self.players if not v.rational])
            self._rationality()

        return self._bookkeeping()

    def _resweep(self, leaving: list[_Vehicle]) -> None:
        """Reset `leaving` to p = 0, in any mode, and sweep again; a player
        still infeasible brakes fully on its tracking steer (`emergency`),
        one braked earlier and feasible now drives its swept control."""
        for v in leaving:
            v.p = 0.0
        infeasible = self._sweep_loop()
        for v in self.players:
            v.emergency = v in infeasible
            if v.emergency:
                v.control = (-LIMITS.a_max, v.view.coast[1])
                v._refresh_pred()

    def _rationality(self) -> None:
        """Member i is `rational` when p_i * (v_i - v_lone) <= RATIONALITY_TOL,
        v_i being its own loss at the step's controls and v_lone (`solo`)
        that of its lone move, the best response at p_i = 0 against the
        same partner controls.  A member at p_i = 0 is rational, and one with
        no feasible lone move has nothing to compare against (`solo` 0.0)."""
        for v in self.players:
            v.rational, v.solo = True, 0.0
            if v.p == 0.0:
                continue
            key = v._best_response(0.0)[2]
            if key[0] != 0.0:
                continue  # no feasible lone move; nothing to compare against
            v.solo = key[1]
            v.rational = v.p * (v._final_terms().total - v.solo) <= RATIONALITY_TOL

    def _bookkeeping(self) -> StepSolution:
        max_res = 0.0
        for v in self.players:
            v.terms = v._final_terms()
            if not v.emergency:
                a, d = v.control
                pred, s_pred, _, _, slack = v._candidate(a, d)
                table = v._crossing_table()[0]
                max_res = max(max_res, v._constraint_residual(a, pred, s_pred, slack, 0.0, table))
        p = [v.p for v in self.players]
        v_sg, shares, kept = coalition_costs([v.terms.total for v in self.players], p)
        for v, share, own in zip(self.players, shares, kept):
            v.h_alloc, v.j_value = share, v.p * v_sg + own
        group = v_sg - coalition_costs([v.solo for v in self.players], p)[0]
        vs = self.vehicles
        return StepSolution(
            controls=[v.control for v in vs],
            terms=[v.terms for v in vs],
            j_value=[v.j_value for v in vs],
            h_alloc=[v.h_alloc for v in vs],
            v_coalition=v_sg,
            p_used=[v.p for v in vs],
            rational=[v.rational for v in vs],
            group_residual=group,
            sweeps=self.sweeps,
            evals=self.evals,
            lateral_evals=self.lateral_evals,
            emergency=[v.emergency for v in vs],
            reset=[v.p != v.view.p for v in vs],
            max_constraint_residual=max_res,
        )


def solve_step(views: list[PlayerView], allow_reset: bool = True) -> StepSolution:
    solver = _StepSolver(views, allow_reset)
    sol = solver.solve()
    for v in solver.vehicles:
        v.__dict__.clear()  # the links between vehicles and to the solver form cycles
    return sol
