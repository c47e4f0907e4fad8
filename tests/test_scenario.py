"""Strict INI scenario loading."""

from pathlib import Path

import pytest

from intersection_game.scenario import MODES, ScenarioError, load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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
    assert v2.p0 == 1.0
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
    assert sc.yaw_form == "tan"
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
