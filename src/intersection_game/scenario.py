"""Scenario files: INI sections for the approach length and the
risk-field horizon and weight, and one section per vehicle.  Parsing is
strict; unknown sections or keys are errors so a typo cannot silently
fall back to a default.  The vehicle model (`dynamics.L_F`, `L_R`,
`WIDTH`), the constraint limits (`game.LIMITS`), the intersection's
layout (`network.CZ_HALF_WIDTH` and the other layout constants) and the
risk field's shape (`risk.A0`, `SPREAD_B`, `SPREAD_C`, `THRESHOLD`) are
fixed, not configuration.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from math import isfinite
from pathlib import Path

from .game import LIMITS, Limits
from .network import LANES, MANEUVERS, Network, Route, route_for
from .risk import FieldParams

MODES = ("fuzzy", "noncoop", "grand")
_CENTERLINE_TOL = 0.5  # m; starting positions must sit on the declared lane
_NAME = re.compile(r"[A-Za-z0-9_]+")  # scenario and vehicle names become paths and CSV fields

# section -> key -> domain.  A number's domain is its type and the checks
# it must pass besides being finite; a string's is `str` and the allowed
# values, if any.  Defaults live in the dataclasses, but those of [scenario]
# (`name` the file's stem, `t_end` 30, `dt` 0.1, `mode` fuzzy) live in
# `load_scenario`.
_PARAMS: dict[str, dict[str, tuple]] = {
    "scenario": {
        "version": (str, ("1",)),
        "name": (str,),
        "t_end": (float, "positive", "at most 3600"),
        "dt": (float, "positive", "at least 0.001", "at most 1"),
        "mode": (str, MODES),
    },
    "network": {
        "approach_length": (float,),
    },
    "field": {
        "horizon": (float, "positive", "at most 60"),
        "omega0": (float, "nonnegative"),
    },
}
# the same for each [vehicle.<name>] section; every key but `lane` is required
_VEHICLE: dict[str, tuple] = {
    "road": (str,),
    "maneuver": (str, MANEUVERS),
    "lane": (str, LANES),
    "x": (float,),
    "y": (float,),
    "v": (float,),
    "kappa": (float, "in [-1, 1]"),
}

# The caps keep the model's products finite: the field's ridge length
# (speed x horizon) and one step's yaw change (yaw rate x dt).  The
# floor on dt bounds a run at 1000 steps per simulated second and keeps
# the step count of game._ramp_peak_speed (a / (jerk_max x dt)) finite.
# The cap on t_end keeps the run's step count (t_end / dt) a finite
# integer, at most 3.6 million steps at the dt floor.
_DOMAINS = {
    "positive": lambda v: v > 0.0,
    "nonnegative": lambda v: v >= 0.0,
    "at least 0.001": lambda v: v >= 0.001,
    "at most 1": lambda v: v <= 1.0,
    "at most 60": lambda v: v <= 60.0,
    "at most 3600": lambda v: v <= 3600.0,
    "in [-1, 1]": lambda v: -1.0 <= v <= 1.0,
}


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


@dataclass(frozen=True)
class Scenario:
    name: str
    t_end: float
    dt: float
    mode: str
    field: FieldParams
    limits: Limits  # always `game.LIMITS`
    vehicles: tuple[VehicleSpec, ...]
    routes: tuple[Route, ...]  # index-aligned with vehicles


def _number(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {key}: not a number: {raw!r}") from exc
    if not isfinite(value):
        raise ScenarioError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def _require(section: str, key: str, value: float, domain: str) -> None:
    if not _DOMAINS[domain](value):
        raise ScenarioError(f"[{section}] {key}: must be {domain}, got {value}")


def _read(cp, section: str, table: dict[str, tuple]) -> dict:
    """The keys `section` sets, parsed and checked against `table`, as
    keyword arguments by field name."""
    extra = sorted(set(cp.options(section)) - set(table))
    if extra:
        raise ScenarioError(f"[{section}] unknown key(s): {', '.join(extra)}")
    kwargs = {}
    for key in cp.options(section):
        kind, *rule = table[key]
        raw = cp.get(section, key)
        if kind is str:
            if rule and raw not in rule[0]:
                raise ScenarioError(f"[{section}] {key}: {raw!r} not one of {rule[0]}")
            kwargs[key] = raw
            continue
        value = _number(section, key, raw)
        for domain in rule:
            _require(section, key, value, domain)
        kwargs[key] = value
    return kwargs


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc

    if cp.defaults():
        raise ScenarioError("[DEFAULT] section is not supported")
    if not cp.has_section("scenario"):
        raise ScenarioError("missing [scenario] section")
    vehicle_sections = []
    for section in cp.sections():
        if section.startswith("vehicle."):
            vehicle_sections.append(section)
        elif section not in _PARAMS:
            raise ScenarioError(f"unknown section [{section}]")
    given = {s: _read(cp, s, table) if cp.has_section(s) else {} for s, table in _PARAMS.items()}
    head = given["scenario"]
    if "version" not in head:
        raise ScenarioError("[scenario] version is required")
    if "name" in head and not _NAME.fullmatch(head["name"]):
        raise ScenarioError(f"[scenario] name {head['name']!r}: use only ASCII letters, digits and '_'")

    try:
        network = Network(**given["network"])
    except ValueError as exc:
        raise ScenarioError(f"[network] {exc}") from exc

    if not vehicle_sections:
        raise ScenarioError("no [vehicle.*] sections")
    vehicles = []
    routes = []
    for section in vehicle_sections:
        vname = section[len("vehicle."):]
        if not _NAME.fullmatch(vname):
            raise ScenarioError(f"[{section}] vehicle name {vname!r}: use only ASCII letters, digits and '_'")
        spec = _read(cp, section, _VEHICLE)
        for key in _VEHICLE:
            if key != "lane" and key not in spec:
                raise ScenarioError(f"[{section}] missing required key {key!r}")
        try:
            route = route_for(network, spec["road"], spec["maneuver"], spec.get("lane"))
        except (KeyError, ValueError) as exc:
            raise ScenarioError(f"[{section}] {exc}") from exc
        x, y, v = spec["x"], spec["y"], spec["v"]
        if not 0.0 <= v <= LIMITS.v_max:
            raise ScenarioError(f"[{section}] v: {v} outside [0, {LIMITS.v_max}]")
        dist = route.project(x, y)[1]
        if dist > _CENTERLINE_TOL:
            raise ScenarioError(
                f"[{section}] position ({x}, {y}) is {dist:.2f} m off the {route.name} centerline"
            )
        vehicles.append(VehicleSpec(vname, spec["road"], spec["maneuver"], route.lane, x, y, v, spec["kappa"]))
        routes.append(route)

    return Scenario(
        name=head.get("name", path.stem),
        t_end=head.get("t_end", 30.0),
        dt=head.get("dt", 0.1),
        mode=head.get("mode", "fuzzy"),
        field=FieldParams(**given["field"]),
        limits=LIMITS,
        vehicles=tuple(vehicles),
        routes=tuple(routes),
    )
