"""Scenario files: INI sections for the network, solver knobs, and one
section per vehicle.  Parsing is strict; unknown sections or keys are
errors so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from math import isfinite, radians
from pathlib import Path

from .dynamics import VehicleParams
from .game import Limits, SolverParams, participation
from .network import MANEUVERS, Network, Route, build_network, route_for
from .risk import FieldParams

MODES = ("fuzzy", "noncoop", "grand")
_CENTERLINE_TOL = 0.5  # m; starting positions must sit on the declared lane

_NETWORK_KEYS = {
    "cz_half_width",
    "lane_offset_inner",
    "lane_offset_outer",
    "approach_length",
    "exit_length",
    "right_turn_radius",
    "ov_exit_margin",
}
_FIELD_KEYS = {"a0", "spread_b", "spread_c", "horizon", "threshold", "omega0"}
_LIMIT_KEYS = {
    "v_max",
    "a_max",
    "jerk_max",
    "delta_max_deg",
    "mu",
    "ttc_min",
    "lane_dev_max",
    "course_dev_max_deg",
    "stop_margin",
    "ttc_guard",
}
_SOLVER_KEYS = {"max_sweeps", "conv_tol", "feas_slack", "rationality_tol"}
_MODEL_KEYS = {"l_f", "l_r", "width", "yaw_form"}
_SCENARIO_KEYS = {"version", "name", "t_end", "dt", "mode"}
_VEHICLE_KEYS = {"road", "maneuver", "lane", "x", "y", "v", "kappa"}


class ScenarioError(ValueError):
    """Config rejected; the message names the offending section/key."""


@dataclass(frozen=True)
class VehicleSpec:
    name: str
    road: str
    maneuver: str
    lane: str
    x: float
    y: float
    v: float
    kappa: float

    @property
    def p0(self) -> float:
        return participation(self.kappa)


@dataclass(frozen=True)
class Scenario:
    name: str
    t_end: float
    dt: float
    mode: str
    network: Network
    field: FieldParams
    limits: Limits
    solver: SolverParams
    vehicle_model: VehicleParams
    yaw_form: str
    vehicles: tuple[VehicleSpec, ...]
    routes: tuple[Route, ...]  # index-aligned with vehicles


def _reject_unknown(section: str, present, allowed: set[str]) -> None:
    extra = sorted(set(present) - allowed)
    if extra:
        raise ScenarioError(f"[{section}] unknown key(s): {', '.join(extra)}")


def _get_float(cp, section: str, key: str, default: float) -> float:
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: not a number: {raw!r}") from exc
    if not isfinite(value):
        raise ScenarioError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def _get_int(cp, section: str, key: str, default: int) -> int:
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: not an integer: {raw!r}") from exc


_DOMAINS = {
    "positive": lambda v: v > 0.0,
    "nonnegative": lambda v: v >= 0.0,
    "in (0, 90)": lambda v: 0.0 < v < 90.0,
}


def _require(section: str, domain: str, values: dict[str, float]) -> None:
    inside = _DOMAINS[domain]
    for key, value in values.items():
        if not inside(value):
            raise ScenarioError(f"[{section}] {key}: must be {domain}, got {value}")


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc

    if cp.defaults():
        raise ScenarioError("[DEFAULT] section is not supported")
    if not cp.has_section("scenario"):
        raise ScenarioError("missing [scenario] section")
    _reject_unknown("scenario", cp.options("scenario"), _SCENARIO_KEYS)
    version = cp.get("scenario", "version", fallback=None)
    if version is None:
        raise ScenarioError("[scenario] version is required")
    if version.strip() != "1":
        raise ScenarioError(f"[scenario] version: unsupported value {version!r}")
    name = cp.get("scenario", "name", fallback=path.stem)
    t_end = _get_float(cp, "scenario", "t_end", 30.0)
    dt = _get_float(cp, "scenario", "dt", 0.1)
    _require("scenario", "positive", {"t_end": t_end, "dt": dt})
    mode = cp.get("scenario", "mode", fallback="fuzzy").strip()
    if mode not in MODES:
        raise ScenarioError(f"[scenario] mode: {mode!r} not one of {MODES}")

    vehicle_sections = []
    for section in cp.sections():
        if section == "scenario":
            continue
        if section.startswith("vehicle."):
            vehicle_sections.append(section)
        elif section not in ("network", "field", "limits", "solver", "vehicle_model"):
            raise ScenarioError(f"unknown section [{section}]")

    net_kwargs = {}
    if cp.has_section("network"):
        _reject_unknown("network", cp.options("network"), _NETWORK_KEYS)
        for key in _NETWORK_KEYS:
            if cp.has_option("network", key):
                net_kwargs[key] = _get_float(cp, "network", key, 0.0)
    if "ov_exit_margin" in net_kwargs:
        _require("network", "nonnegative", {"ov_exit_margin": net_kwargs["ov_exit_margin"]})
    try:
        network = build_network(**net_kwargs)
    except ValueError as exc:
        raise ScenarioError(f"[network] {exc}") from exc

    if cp.has_section("field"):
        _reject_unknown("field", cp.options("field"), _FIELD_KEYS)
    fd = FieldParams()
    field_params = FieldParams(
        a0=_get_float(cp, "field", "a0", fd.a0),
        spread_b=_get_float(cp, "field", "spread_b", fd.spread_b),
        spread_c=_get_float(cp, "field", "spread_c", fd.spread_c),
        horizon=_get_float(cp, "field", "horizon", fd.horizon),
        threshold=_get_float(cp, "field", "threshold", fd.threshold),
        omega0=_get_float(cp, "field", "omega0", fd.omega0),
    )
    _require("field", "positive", {"a0": field_params.a0, "horizon": field_params.horizon})
    _require("field", "nonnegative", {
        "spread_b": field_params.spread_b,
        "spread_c": field_params.spread_c,
        "threshold": field_params.threshold,
        "omega0": field_params.omega0,
    })

    if cp.has_section("limits"):
        _reject_unknown("limits", cp.options("limits"), _LIMIT_KEYS)
    ld = Limits()
    delta_max_deg = _get_float(cp, "limits", "delta_max_deg", 30.0)
    course_dev_max_deg = _get_float(cp, "limits", "course_dev_max_deg", 2.0)
    limits = Limits(
        v_max=_get_float(cp, "limits", "v_max", ld.v_max),
        a_max=_get_float(cp, "limits", "a_max", ld.a_max),
        jerk_max=_get_float(cp, "limits", "jerk_max", ld.jerk_max),
        delta_max=radians(delta_max_deg),
        mu=_get_float(cp, "limits", "mu", ld.mu),
        ttc_min=_get_float(cp, "limits", "ttc_min", ld.ttc_min),
        lane_dev_max=_get_float(cp, "limits", "lane_dev_max", ld.lane_dev_max),
        course_dev_max=radians(course_dev_max_deg),
        stop_margin=_get_float(cp, "limits", "stop_margin", ld.stop_margin),
        ttc_guard=_get_float(cp, "limits", "ttc_guard", ld.ttc_guard),
    )
    _require("limits", "positive", {
        "v_max": limits.v_max,
        "a_max": limits.a_max,
        "jerk_max": limits.jerk_max,
        "mu": limits.mu,
        "ttc_min": limits.ttc_min,
        "lane_dev_max": limits.lane_dev_max,
        "course_dev_max_deg": course_dev_max_deg,
    })
    _require("limits", "in (0, 90)", {"delta_max_deg": delta_max_deg})
    _require("limits", "nonnegative", {"stop_margin": limits.stop_margin, "ttc_guard": limits.ttc_guard})

    if cp.has_section("solver"):
        _reject_unknown("solver", cp.options("solver"), _SOLVER_KEYS)
    sd = SolverParams()
    solver = SolverParams(
        max_sweeps=_get_int(cp, "solver", "max_sweeps", sd.max_sweeps),
        conv_tol=_get_float(cp, "solver", "conv_tol", sd.conv_tol),
        feas_slack=_get_float(cp, "solver", "feas_slack", sd.feas_slack),
        rationality_tol=_get_float(cp, "solver", "rationality_tol", sd.rationality_tol),
    )
    if solver.max_sweeps < 1:
        raise ScenarioError(f"[solver] max_sweeps: must be at least 1, got {solver.max_sweeps}")
    _require("solver", "positive", {"conv_tol": solver.conv_tol})
    _require("solver", "nonnegative", {
        "feas_slack": solver.feas_slack,
        "rationality_tol": solver.rationality_tol,
    })

    if cp.has_section("vehicle_model"):
        _reject_unknown("vehicle_model", cp.options("vehicle_model"), _MODEL_KEYS)
    md = VehicleParams()
    vehicle_model = VehicleParams(
        l_f=_get_float(cp, "vehicle_model", "l_f", md.l_f),
        l_r=_get_float(cp, "vehicle_model", "l_r", md.l_r),
        width=_get_float(cp, "vehicle_model", "width", md.width),
    )
    _require("vehicle_model", "positive", {
        "l_f": vehicle_model.l_f,
        "l_r": vehicle_model.l_r,
        "width": vehicle_model.width,
    })
    yaw_form = cp.get("vehicle_model", "yaw_form", fallback="tan").strip()
    if yaw_form not in ("tan", "sin"):
        raise ScenarioError(f"[vehicle_model] yaw_form: {yaw_form!r} not 'tan' or 'sin'")

    if not vehicle_sections:
        raise ScenarioError("no [vehicle.*] sections")
    vehicles = []
    routes = []
    seen = set()
    for section in vehicle_sections:
        vname = section[len("vehicle."):]
        if not vname:
            raise ScenarioError("empty vehicle name in section header")
        if vname in seen:
            raise ScenarioError(f"duplicate vehicle name {vname!r}")
        seen.add(vname)
        _reject_unknown(section, cp.options(section), _VEHICLE_KEYS)
        for key in ("road", "maneuver", "x", "y", "v", "kappa"):
            if not cp.has_option(section, key):
                raise ScenarioError(f"[{section}] missing required key {key!r}")
        road = cp.get(section, "road").strip()
        maneuver = cp.get(section, "maneuver").strip()
        if maneuver not in MANEUVERS:
            raise ScenarioError(f"[{section}] maneuver: {maneuver!r} not one of {MANEUVERS}")
        lane = cp.get(section, "lane", fallback=None)
        try:
            route = route_for(network, road, maneuver, lane.strip() if lane else None)
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"[{section}] {exc}") from exc
        x = _get_float(cp, section, "x", 0.0)
        y = _get_float(cp, section, "y", 0.0)
        v = _get_float(cp, section, "v", 0.0)
        kappa = _get_float(cp, section, "kappa", 0.0)
        if not -1.0 <= kappa <= 1.0:
            raise ScenarioError(f"[{section}] kappa: {kappa} outside [-1, 1]")
        if not 0.0 <= v <= limits.v_max:
            raise ScenarioError(f"[{section}] v: {v} outside [0, {limits.v_max}]")
        _, dist = route.project(x, y)
        if dist > _CENTERLINE_TOL:
            raise ScenarioError(
                f"[{section}] position ({x}, {y}) is {dist:.2f} m off the {route.name} centerline"
            )
        vehicles.append(VehicleSpec(vname, road, maneuver, route.lane, x, y, v, kappa))
        routes.append(route)

    return Scenario(
        name=name,
        t_end=t_end,
        dt=dt,
        mode=mode,
        network=network,
        field=field_params,
        limits=limits,
        solver=solver,
        vehicle_model=vehicle_model,
        yaw_form=yaw_form,
        vehicles=tuple(vehicles),
        routes=tuple(routes),
    )
