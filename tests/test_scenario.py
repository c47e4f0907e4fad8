"""Strict INI scenario loading."""

import configparser
import dataclasses
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from intersection_game.runner import run
from intersection_game.scenario import _PARAMS, _VEHICLE, MODES, ScenarioError, load_scenario

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
    assert sc.dt == 0.1
    assert sc.mode == "fuzzy"
    assert sc.field.horizon == 4.0
    assert sc.field.omega0 == 60.0
    assert sc.field.a0 == 0.01  # untouched keys keep their defaults
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
    assert sc.mode == "fuzzy"
    assert sc.vehicle_model.l_r == 1.4
    assert sc.limits.v_max == 8.0
    assert sc.vehicles[0].lane == "outer"


def test_every_published_scenario_loads():
    files = sorted(SCENARIOS.glob("*.cfg"))
    assert len(files) == 8
    sizes = {}
    for f in files:
        sc = load_scenario(f)
        assert sc.mode in MODES
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


def test_rejects_bad_mode(tmp_path):
    reject(tmp_path, MINIMAL.replace("version = 1", "version = 1\nmode = psychic"), "mode")


def test_rejects_default_section(tmp_path):
    reject(tmp_path, "[DEFAULT]\nfoo = 1\n" + MINIMAL, "[DEFAULT]")


def test_rejects_left_turn_from_outer_lane(tmp_path):
    bad = MINIMAL.replace("maneuver = straight", "maneuver = left").replace(
        "x = -20\ny = -6", "x = -20\ny = -2"
    )
    reject(tmp_path, bad, "left turns run from the inner lane")


def test_rejects_vehicleless_file(tmp_path):
    reject(tmp_path, "[scenario]\nversion = 1\n", "no [vehicle.*] sections")


def test_rejects_nonpositive_horizon_times(tmp_path):
    reject(tmp_path, MINIMAL.replace("version = 1", "version = 1\nt_end = 0"), "positive")


@pytest.mark.parametrize(
    "section, key, value, fragment",
    [
        ("scenario", "dt", "nan", "dt: not a finite number"),
        ("scenario", "t_end", "nan", "t_end: not a finite number"),
        ("scenario", "t_end", "inf", "t_end: not a finite number"),
        ("scenario", "dt", "-0.1", "dt: must be positive"),
        ("limits", "a_max", "-1", "a_max: must be positive"),
        ("limits", "jerk_max", "0", "jerk_max: must be positive"),
        ("limits", "v_max", "0", "v_max: must be positive"),
        ("limits", "mu", "-0.5", "mu: must be positive"),
        ("limits", "ttc_min", "0", "ttc_min: must be positive"),
        ("limits", "stop_margin", "inf", "stop_margin: not a finite number"),
        ("field", "omega0", "nan", "omega0: not a finite number"),
        ("vehicle_model", "l_f", "0", "l_f: must be positive"),
        ("vehicle_model", "l_r", "-1.4", "l_r: must be positive"),
        ("vehicle_model", "width", "0", "width: must be positive"),
        ("solver", "max_sweeps", "0", "max_sweeps: must be at least 1"),
        ("limits", "lane_dev_max", "-1", "lane_dev_max: must be positive"),
        ("limits", "course_dev_max_deg", "0", "course_dev_max_deg: must be positive"),
        ("limits", "delta_max_deg", "-30", "delta_max_deg: must be in (0, 90)"),
        ("limits", "delta_max_deg", "90", "delta_max_deg: must be in (0, 90)"),
        ("limits", "stop_margin", "-5", "stop_margin: must be nonnegative"),
        ("limits", "ttc_guard", "-0.01", "ttc_guard: must be nonnegative"),
        ("field", "a0", "0", "a0: must be positive"),
        ("field", "horizon", "-1", "horizon: must be positive"),
        ("field", "spread_b", "-0.5", "spread_b: must be nonnegative"),
        ("field", "spread_c", "-0.5", "spread_c: must be nonnegative"),
        ("field", "threshold", "-1", "threshold: must be nonnegative"),
        ("field", "omega0", "-10", "omega0: must be nonnegative"),
        ("solver", "conv_tol", "-1", "conv_tol: must be positive"),
        ("solver", "feas_slack", "-1e-9", "feas_slack: must be nonnegative"),
        ("solver", "rationality_tol", "-1e-6", "rationality_tol: must be nonnegative"),
        ("network", "ov_exit_margin", "-50", "ov_exit_margin: must be nonnegative"),
        ("scenario", "dt", "1.5", "dt: must be at most 1"),
        ("scenario", "dt", "1e-16", "dt: must be at least 0.001"),
        ("limits", "stop_margin", "1e16", "stop_margin: must be at most 100"),
        ("field", "horizon", "1e300", "horizon: must be at most 60"),
        ("limits", "v_max", "150", "v_max: must be at most 100"),
        ("limits", "a_max", "1e300", "a_max: must be at most 100"),
        ("limits", "jerk_max", "1e-300", "jerk_max: must be at least 0.1"),
        ("network", "cz_half_width", "1e6", "cz_half_width: must be at most 100"),
        ("scenario", "t_end", "1e308", "t_end: must be at most 3600"),
    ],
)
def test_rejects_parameters_outside_their_domain(tmp_path, section, key, value, fragment):
    if section == "scenario":
        text = MINIMAL.replace("version = 1", f"version = 1\n{key} = {value}")
    else:
        text = MINIMAL + f"\n[{section}]\n{key} = {value}\n"
    reject(tmp_path, text, fragment)


def test_rejects_bad_yaw_form(tmp_path):
    reject(tmp_path, MINIMAL + "\n[vehicle_model]\nyaw_form = euler\n", "yaw_form")


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


def test_readme_example_loads_and_documents_every_default(tmp_path):
    """README's example config loads, and its optional sections list every
    key the loader accepts, each at its default."""
    block = re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    readme = load_scenario(write(tmp_path, block, name="readme.cfg"))
    minimal = load_scenario(write(tmp_path, MINIMAL))
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    cp.read_string(block)
    for section in ("network", "field", "limits", "solver", "vehicle_model"):
        assert set(cp.options(section)) == set(_PARAMS[section]), section
        assert getattr(readme, section) == getattr(minimal, section), section


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
@example(name="case1_A", site=("limits", "a_max"), value="1e300")
@example(name="case1_A", site=("limits", "jerk_max"), value="1e-300")
@example(name="case1_A", site=("limits", "stop_margin"), value="1e16")
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
    run(dataclasses.replace(sc, t_end=3 * sc.dt))
