"""Strict INI scenario loading."""

import configparser
import dataclasses
import re
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import identity_matrix
from intersection_game.dynamics import DT
from intersection_game.game import LIMITS
from intersection_game.network import route_for
from intersection_game.runner import run
from intersection_game.scenario import _PARAMS, _VEHICLE, ScenarioError, load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

MINIMAL = """\
[scenario]
version = 1

[vehicle.V1]
road = M1
maneuver = straight
lane = outer
x = -20
y = -6
v = 5
kappa = 0
"""


def write(tmp_path, text, name="t.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def reject(tmp_path, text, fragment=""):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, text))
    assert fragment in str(err.value)


def test_loads_published_three_vehicle_scenario():
    sc = load_scenario(SCENARIOS / "case1_A.cfg")
    assert sc.name == "case1_A"
    assert sc.t_end == 20.0
    names = [v.name for v in sc.vehicles]
    assert names == ["V1", "V2", "V3"]
    v1, v2, v3 = sc.vehicles
    assert (v1.x, v1.y, v1.v, v1.kappa) == (-18.0, -2.0, 5.5, -0.8)
    assert (v2.road, v2.maneuver, v2.lane) == ("M2", "left", "inner")
    assert v2.kappa == 0.0
    assert (v3.lane, v3.kappa) == ("outer", 0.0)
    assert [r.name for r in sc.routes] == [
        "M1-inner-left", "M2-inner-left", "M3-outer-straight",
    ]


def test_defaults_from_minimal_file(tmp_path):
    sc = load_scenario(write(tmp_path, MINIMAL, name="quick_look.cfg"))
    assert sc.name == "quick_look"
    assert sc.t_end == 30.0
    assert sc.dt == 0.1
    assert sc.limits is LIMITS
    # untouched keys keep their defaults
    assert sc.routes[0].total_length == 30.0 + 20.0 + 30.0
    assert sc.vehicles[0].lane == "outer"


def test_every_published_scenario_loads():
    files = sorted(SCENARIOS.glob("*.cfg"))
    assert len(files) == 8
    sizes = {}
    for f in files:
        sc = load_scenario(f)
        sizes[f.stem] = len(sc.vehicles)
    assert sizes["case2"] == 4
    assert sizes["case3"] == 8
    assert all(sizes[f"case1_{k}"] == 3 for k in "ABCDEF")


def test_rejects_missing_version(tmp_path):
    reject(tmp_path, MINIMAL.replace("version = 1\n", ""), "version is required")


def test_rejects_unsupported_version(tmp_path):
    reject(tmp_path, MINIMAL.replace("version = 1", "version = 2"), "version")


def test_rejects_out_of_range_kappa(tmp_path):
    reject(tmp_path, MINIMAL.replace("kappa = 0", "kappa = 1.5"), "kappa")


def test_rejects_speed_above_limit(tmp_path):
    reject(tmp_path, MINIMAL.replace("v = 5", "v = 9"), "outside [0, 8")


def test_rejects_position_off_centerline(tmp_path):
    reject(tmp_path, MINIMAL.replace("y = -6", "y = -4.9"), "off the M1-outer-straight centerline")


def test_rejects_unknown_scenario_key(tmp_path):
    reject(tmp_path, MINIMAL.replace("version = 1", "version = 1\nseed = 3"), "unknown key")


def test_rejects_unknown_section(tmp_path):
    reject(tmp_path, MINIMAL + "\n[weather]\nrain = 1\n", "unknown section")


def test_rejects_unknown_vehicle_key(tmp_path):
    reject(tmp_path, MINIMAL + "color = red\n", "unknown key")


def test_rejects_missing_vehicle_key(tmp_path):
    reject(tmp_path, MINIMAL.replace("x = -20\n", ""), "missing required key")


def test_rejects_default_section(tmp_path):
    reject(tmp_path, "[DEFAULT]\nfoo = 1\n" + MINIMAL, "[DEFAULT]")


def test_rejects_left_turn_from_outer_lane(tmp_path):
    bad = MINIMAL.replace("maneuver = straight", "maneuver = left").replace(
        "x = -20\ny = -6", "x = -20\ny = -2"
    )
    reject(tmp_path, bad, "left turns run from the inner lane")


def test_rejects_empty_lane(tmp_path):
    """An empty lane is a typo, not a request for the maneuver's default lane."""
    reject(tmp_path, MINIMAL.replace("lane = outer", "lane ="), "[vehicle.V1] lane: '' not one of")


def test_rejects_vehicleless_file(tmp_path):
    reject(tmp_path, "[scenario]\nversion = 1\n", "no [vehicle.*] sections")


def test_rejects_nonpositive_horizon_times(tmp_path):
    reject(tmp_path, MINIMAL.replace("version = 1", "version = 1\nt_end = 0"), "positive")


@pytest.mark.parametrize(
    "section, key, value, fragment",
    [
        ("scenario", "t_end", "nan", "t_end: not a finite number"),
        ("scenario", "t_end", "inf", "t_end: not a finite number"),
        ("scenario", "t_end", "1e308", "t_end: must be at most 3600"),
        ("network", "approach_length", "0", "approach_length: must be positive"),
    ],
)
def test_rejects_parameters_outside_their_domain(tmp_path, section, key, value, fragment):
    if section == "scenario":
        text = MINIMAL.replace("version = 1", f"version = 1\n{key} = {value}")
    else:
        text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    reject(tmp_path, text, fragment)


# The cyclic best response's tolerances are constants in `game.py`, not
# configuration.  A config that still sets one is rejected, even at the
# constant's value, so no config can open the feasibility slack.
@pytest.mark.parametrize(
    "section, key, value, fragment",
    [
        pytest.param("solver", "max_sweeps", "20", "unknown section [solver]", id="solver-max_sweeps"),
        pytest.param("solver", "conv_tol", "1e-3", "unknown section [solver]", id="solver-conv_tol"),
        pytest.param("solver", "feas_slack", "1e3", "unknown section [solver]", id="solver-feas_slack"),
        pytest.param("solver", "rationality_tol", "1e-6", "unknown section [solver]", id="solver-rationality_tol"),
    ],
)
def test_rejects_solver_tolerance(tmp_path, section, key, value, fragment):
    text = (SCENARIOS / "case3.cfg").read_text() + f"\n[{section}]\n{key} = {value}\n"
    reject(tmp_path, text, fragment)


# The vehicle model (`dynamics.L_F`, `L_R`, `WIDTH`) and the constraint
# limits (`game.Limits`) are fixed too.  A config that still sets one of
# their former keys is rejected, at the old default value and at each value
# that used to fail the key's domain or cap.
_FIXED_SECTIONS = {
    "limits": {
        "v_max": "8", "a_max": "8", "jerk_max": "2", "delta_max_deg": "30", "mu": "0.85", "ttc_min": "1.5",
        "lane_dev_max": "0.2", "course_dev_max_deg": "2", "stop_margin": "3.5", "ttc_guard": "0.05",
    },
    "vehicle_model": {"l_f": "1.4", "l_r": "1.4", "width": "1.8"},
}
_FORMER_OUT_OF_DOMAIN = [
    ("limits", "a_max", "-1"), ("limits", "a_max", "1e300"),
    ("limits", "jerk_max", "0"), ("limits", "jerk_max", "1e-300"),
    ("limits", "v_max", "0"), ("limits", "v_max", "150"),
    ("limits", "mu", "-0.5"), ("limits", "ttc_min", "0"),
    ("limits", "stop_margin", "inf"), ("limits", "stop_margin", "-5"), ("limits", "stop_margin", "1e16"),
    ("limits", "lane_dev_max", "-1"), ("limits", "course_dev_max_deg", "0"),
    ("limits", "delta_max_deg", "-30"), ("limits", "delta_max_deg", "90"),
    ("vehicle_model", "l_f", "0"), ("vehicle_model", "l_r", "-1.4"), ("vehicle_model", "width", "0"),
]


@pytest.mark.parametrize(
    "section, key, value",
    [
        pytest.param(section, key, value, id=f"{section}-{key}")
        for section, keys in _FIXED_SECTIONS.items()
        for key, value in keys.items()
    ]
    + [pytest.param(section, key, value, id=f"{section}-{key}-{value}") for section, key, value in _FORMER_OUT_OF_DOMAIN],
)
def test_rejects_fixed_model_section(tmp_path, section, key, value):
    text = (SCENARIOS / "case3.cfg").read_text() + f"\n[{section}]\n{key} = {value}\n"
    reject(tmp_path, text, f"unknown section [{section}]")


# The intersection's layout (`network.CZ_HALF_WIDTH` and the other layout
# constants) and the risk field's shape (`risk.A0`, `SPREAD_B`, `SPREAD_C`,
# `THRESHOLD`) are fixed as well.  A config that still sets one of their
# former keys is rejected, at the old default value and at each value that
# used to fail the key's domain or cap.
_FIXED_KEYS = {
    "network": {
        "cz_half_width": "10", "lane_offset_inner": "2", "lane_offset_outer": "6", "exit_length": "30",
        "right_turn_radius": "9", "ov_exit_margin": "5",
    },
    "field": {"a0": "0.01", "spread_b": "0.05", "spread_c": "0.5", "threshold": "0.1"},
}
_FORMER_KEY_OUT_OF_DOMAIN = [
    ("field", "a0", "0"), ("field", "spread_b", "-0.5"), ("field", "spread_c", "-0.5"),
    ("field", "threshold", "-1"), ("network", "ov_exit_margin", "-50"), ("network", "cz_half_width", "1e6"),
]


@pytest.mark.parametrize(
    "section, key, value",
    [
        pytest.param(section, key, value, id=f"{section}-{key}")
        for section, keys in _FIXED_KEYS.items()
        for key, value in keys.items()
    ]
    + [pytest.param(section, key, value, id=f"{section}-{key}-{value}") for section, key, value in _FORMER_KEY_OUT_OF_DOMAIN],
)
def test_rejects_fixed_model_key(tmp_path, section, key, value):
    text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, text))
    assert str(err.value) == f"[{section}] unknown key(s): {key}"


def test_rejects_bad_yaw_form(tmp_path):
    reject(tmp_path, MINIMAL + "\n[vehicle_model]\nyaw_form = euler\n", "unknown section [vehicle_model]")


def test_rejects_non_numeric_value(tmp_path):
    reject(tmp_path, MINIMAL.replace("v = 5", "v = fast"), "not a number")


def test_rejects_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nope.cfg")


def test_rejects_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(MINIMAL.replace("version = 1", "version = 1\nname = caf\xe9").encode("latin-1"))
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(path)


def _fixed(domain: tuple) -> bool:
    """Whether a key's domain admits one value only, as `version = 1`."""
    return domain[0] is str and len(domain) > 1 and len(domain[1]) == 1


def test_readme_example_loads_and_documents_every_default(tmp_path):
    """README's example config loads, its optional sections list every key
    the loader accepts that admits more than one value, each at its default,
    and the README names the one value of each fixed key."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    readme = load_scenario(write(tmp_path, block, name="readme.cfg"))
    minimal = load_scenario(write(tmp_path, MINIMAL))
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    cp.read_string(block)
    for section in (s for s in _PARAMS if s != "scenario"):
        given = set(cp.options(section)) if cp.has_section(section) else set()
        assert given == {k for k, domain in _PARAMS[section].items() if not _fixed(domain)}, section
    for keys in _PARAMS.values():
        for key, domain in keys.items():
            if _fixed(domain):
                assert f"{key} = {domain[1][0]}" in text, key
    # the network is read only to build the routes
    assert readme.routes == minimal.routes == (route_for(30.0, "M1", "straight", "outer"),)


# one key of a shipped config set to an arbitrary value: a key of any
# optional section (present in the file or not) or of its first vehicle
_SITES = [(s, k) for s, table in _PARAMS.items() for k in table] + [("vehicle.V1", k) for k in _VEHICLE]
_VALUES = st.one_of(
    st.floats(-100.0, 100.0).map(repr),
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["0", "-0", "1e-300", "5e-324", "1e300", "-1e300", "nan", "inf", "tan", "sin", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(p.stem for p in SCENARIOS.glob("*.cfg"))),
    site=st.sampled_from(_SITES),
    value=_VALUES,
)
@example(name="case1_A", site=("field", "horizon"), value="1e300")
@example(name="case1_A", site=("network", "approach_length"), value="1e300")
@example(name="case1_A", site=("scenario", "t_end"), value="1e308")
@example(name="case1_A", site=("scenario", "dt"), value="1e300")
def test_mutated_shipped_config_is_rejected_or_runs(name, site, value):
    """Every config is either a ScenarioError or a clean three-step run."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(SCENARIOS / f"{name}.cfg", encoding="utf-8")
    section, key = site
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        try:
            sc = load_scenario(path)
        except ScenarioError:
            return
    run(dataclasses.replace(sc, t_end=3 * DT))


def test_short_approach_without_right_turn_loads_and_runs(tmp_path):
    """Only a right turn's corner arc needs more than 5 m of approach road:
    a 4 m approach carries straight and left-turning traffic."""
    text = MINIMAL.replace("x = -20", "x = -12") + (
        "\n[vehicle.V2]\nroad = M2\nmaneuver = left\nx = 2\ny = -13\nv = 4\nkappa = 0\n"
        "\n[network]\napproach_length = 4\n"
    )
    sc = load_scenario(write(tmp_path, text))
    assert [r.name for r in sc.routes] == ["M1-outer-straight", "M2-inner-left"]
    res = run(dataclasses.replace(sc, t_end=3 * DT))
    assert len(res.steps) == 3
    assert max(s.max_residual for s in res.steps) <= 1e-6
    assert not any(row.fallback for rows in res.rows for row in rows)


def test_every_settable_key_is_set_by_some_input():
    """Each key the loader accepts is set by at least one input: a shipped
    scenario or a `perfbench/dense.py` layout of the identity matrix.  Each
    key that admits more than one value takes at least two across the
    inputs, an input that leaves the key unset using its default.  A key
    no input varies belongs in the model as a constant."""
    texts = [text for _, text in identity_matrix.shipped()]
    texts += [text for seed in identity_matrix.DENSE_SEEDS for _, text in identity_matrix.layouts(seed)]
    tables = {**_PARAMS, "vehicle": _VEHICLE}
    in_use = defaultdict(set)  # (table, key) -> values in use; None stands for the default
    for text in texts:
        cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
        cp.read_string(text)
        vehicles = [s for s in cp.sections() if s.startswith("vehicle.")]
        for section, table in [(s, s) for s in _PARAMS] + [(s, "vehicle") for s in vehicles]:
            for key, domain in tables[table].items():
                raw = cp.get(section, key, fallback=None)
                in_use[(table, key)].add(raw if raw is None or domain[0] is str else float(raw))
    sites = [(table, key, domain) for table, keys in tables.items() for key, domain in keys.items()]
    assert sorted(key for table, key, _ in sites if in_use[(table, key)] <= {None}) == []
    assert sorted(key for table, key, domain in sites if not _fixed(domain) and len(in_use[(table, key)]) < 2) == []


def test_shipped_scenarios_set_no_fixed_key():
    """A shipped scenario sets only keys that can vary: a key whose domain
    admits one value names a model constant, and only the required
    `version` is written out."""
    tables = {**_PARAMS, "vehicle": _VEHICLE}
    found = []
    for path in sorted(SCENARIOS.glob("*.cfg")):
        cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
        cp.read_string(path.read_text(encoding="utf-8"))
        for section in cp.sections():
            table = tables["vehicle" if section.startswith("vehicle.") else section]
            found += [
                f"{path.name} [{section}] {key}"
                for key in cp.options(section)
                if key != "version" and _fixed(table[key])
            ]
    assert found == []
