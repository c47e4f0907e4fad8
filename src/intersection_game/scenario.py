"""Scenario files: a [scenario] section with the run's name and length,
a [network] section for the approach length, and one section per
vehicle.  Parsing is strict; unknown sections or keys are errors so a
typo cannot silently fall back to a default.  The vehicle model
(`dynamics.L_F`, `L_R`, `WIDTH`) and control period (`dynamics.DT`), the
constraint limits (`game.LIMITS`), the intersection's layout
(`network.CZ_HALF_WIDTH` and the other layout constants) and the risk
field (`risk.A0`, `SPREAD_B`, `SPREAD_C`, `THRESHOLD`, `HORIZON`, and
the weight `costs.OMEGA0`) are fixed, not configuration; the solver mode
is chosen when the scenario is run.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import ClassVar

from .costs import OMEGA0
from .dynamics import DT
from .game import LIMITS, Limits
from .network import LANES, MANEUVERS, Route, route_for
from .risk import HORIZON

_CENTERLINE_TOL = 0.5  # m; starting positions must sit on the declared lane
_NAME = re.compile(r"[A-Za-z0-9_]+")  # scenario and vehicle names become paths and CSV fields

# section -> key -> domain.  A number's domain is its type and the checks
# it must pass besides being finite; a string's is `str` and the allowed
# values, if any.  The defaults (`name` the file's stem, `t_end` 30,
# `approach_length` 30) live in `load_scenario`.  `dt`, `mode`, `horizon`
# and `omega0` name model constants and admit only their value, as
# `version` does; they are read at all because `perfbench/dense.py`
# writes them.
_PARAMS: dict[str, dict[str, tuple]] = {
    "scenario": {
        "version": (str, ("1",)),
        "name": (str,),
        "t_end": (float, "positive", "at most 3600"),
        "dt": (str, (f"{DT:g}",)),
        "mode": (str, ("fuzzy",)),
    },
    "network": {
        "approach_length": (float, "positive"),
    },
    "field": {
        "horizon": (str, (f"{HORIZON:g}",)),
        "omega0": (str, (f"{OMEGA0:g}",)),
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

# The cap on t_end keeps the run's step count (t_end / DT) a finite
# integer, at most 36,000 steps.
_DOMAINS = {
    "positive": lambda v: v > 0.0,
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
    # always `dynamics.DT` and `game.LIMITS`; `perfbench/bench_pass.py` reads them here
    dt: ClassVar[float] = DT
    limits: ClassVar[Limits] = LIMITS
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
    """The keys `section` sets, parsed and checked against `table`, by key."""
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

    approach_length = given["network"].get("approach_length", 30.0)

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
            route = route_for(approach_length, spec["road"], spec["maneuver"], spec.get("lane"))
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
        vehicles=tuple(vehicles),
        routes=tuple(routes),
    )
