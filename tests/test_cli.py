"""Command line plumbing: exit codes, printed reports, written files."""

from pathlib import Path

import pytest

from intersection_game.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
CASE1 = str(SCENARIOS / "case1_A.cfg")


def _short_case1(tmp_path):
    """case1_A cut to three steps: the CLI's plumbing, not the full 20 s run."""
    cfg = tmp_path / "case1_A.cfg"
    cfg.write_text(Path(CASE1).read_text().replace("t_end = 20", "t_end = 0.3"))
    return str(cfg)


def test_validate_prints_topology(capsys):
    assert main(["validate", CASE1]) == 0
    out = capsys.readouterr().out
    assert "case1_A: OK" in out
    assert "V1: M1-inner-left" in out
    assert "conflicting pairs" in out


def test_validate_rejects_broken_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[scenario]\nversion = 1\n\n[vehicle.V1]\nroad = M1\nmaneuver = straight\n"
        "x = -20\ny = -6\nv = 5\nkappa = 2\n"
    )
    assert main(["validate", str(bad)]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_run_rejects_parameter_outside_its_domain(tmp_path, capsys):
    cfg = tmp_path / "approach.cfg"
    cfg.write_text(Path(CASE1).read_text() + "\n[network]\napproach_length = -1\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "approach_length: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section, key, value, fixed",
    [
        pytest.param(section, key, value, fixed, id=f"{section}-{key}-{value}")
        for section, key, value, fixed in (
            ("scenario", "dt", "nan", "0.1"), ("scenario", "dt", "-0.1", "0.1"),
            ("scenario", "dt", "1.5", "0.1"), ("scenario", "dt", "1e-16", "0.1"),
            ("scenario", "mode", "psychic", "fuzzy"),
            ("field", "horizon", "-1", "4"), ("field", "horizon", "1e300", "4"),
            ("field", "omega0", "nan", "60"), ("field", "omega0", "-10", "60"),
        )
    ],
)
def test_run_rejects_fixed_key_at_another_value(tmp_path, capsys, section, key, value, fixed):
    # the control period, the mode of a config, the field's horizon and its
    # weight are constants; a config may still name each at its one value
    text = Path(CASE1).read_text()
    assert f"{key} = {fixed}\n" in text
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(text.replace(f"{key} = {fixed}\n", f"{key} = {value}\n"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key}: {value!r} not one of ({fixed!r},)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# a right turn from the south arm, whose arc does not fit a 5 m approach
# (the west arm's fits it to within a rounding error)
_RIGHT_TURN = "[scenario]\nversion = 1\n\n[vehicle.V1]\nroad = M2\nmaneuver = right\nx = 6\ny = -20\nv = 4\nkappa = 0\n"


def test_run_rejects_inconsistent_network(tmp_path, capsys):
    # the lane offsets are layout constants; the approach length is settable,
    # and a right turn's arc must start on the approach road
    for text, line, message in (
        (Path(CASE1).read_text(), "lane_offset_inner = 7", "[network] unknown key(s): lane_offset_inner"),
        (_RIGHT_TURN, "approach_length = 5", "[vehicle.V1] turn arc does not fit the roads for M2 right"),
    ):
        cfg = tmp_path / "network.cfg"
        cfg.write_text(text + f"\n[network]\n{line}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


def test_run_rejects_solver_section(tmp_path, capsys):
    # the solver's tolerances are constants, not configuration
    cfg = tmp_path / "slack.cfg"
    cfg.write_text(Path(CASE1).read_text() + "\n[solver]\nfeas_slack = 1e3\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown section [solver]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, key, value", [("limits", "jerk_max", "2"), ("vehicle_model", "l_f", "1.4")])
def test_run_rejects_fixed_model_section(tmp_path, capsys, section, key, value):
    # the vehicle model and its limits are constants, even at their values
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(Path(CASE1).read_text() + f"\n[{section}]\n{key} = {value}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"unknown section [{section}]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("network", "cz_half_width", "10"), ("network", "lane_offset_inner", "2"),
        ("network", "lane_offset_outer", "6"), ("network", "exit_length", "30"),
        ("network", "right_turn_radius", "9"), ("network", "ov_exit_margin", "5"),
        ("field", "a0", "0.01"), ("field", "spread_b", "0.05"), ("field", "spread_c", "0.5"),
        ("field", "threshold", "0.1"),
    ],
)
def test_run_rejects_fixed_model_key(tmp_path, capsys, section, key, value):
    # the intersection's layout and the field's shape are constants, even at their values
    text = Path(CASE1).read_text()
    if f"[{section}]\n" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    else:
        text += f"\n[{section}]\n{key} = {value}\n"
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] unknown key(s): {key}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_horizon_is_capped_at_one_hour(tmp_path, capsys):
    # a huge t_end used to pass validate and crash run counting its steps
    cfg = tmp_path / "long.cfg"
    cfg.write_text(Path(CASE1).read_text().replace("t_end = 20", "t_end = 3600"))
    assert main(["validate", str(cfg)]) == 0
    cfg.write_text(Path(CASE1).read_text().replace("t_end = 20", "t_end = 1e308"))
    assert main(["validate", str(cfg)]) == 2
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "t_end: must be at most 3600" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_scenario_file_is_a_config_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.cfg")]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["run", _short_case1(tmp_path), "--mode", "noncoop", "--out", str(out), "--field-raster"])
    assert rc == 0
    for name in ("trace.csv", "steps.csv", "metrics.json", "timing.json", "field_raster.csv"):
        assert (out / name).is_file()
    text = capsys.readouterr().out
    assert "case1_A [noncooperative baseline]" in text
    assert "wrote" in text


def test_compare_rejects_unknown_mode(capsys):
    assert main(["compare", CASE1, "--modes", "fuzzy,psychic"]) == 2
    assert "unknown mode" in capsys.readouterr().err


def test_compare_rejects_repeated_mode(tmp_path, capsys):
    # one column and one output directory per mode
    out = tmp_path / "o"
    assert main(["compare", CASE1, "--modes", "fuzzy,fuzzy,noncoop", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "mode 'fuzzy' given twice" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_compare_prints_table_and_writes_runs(tmp_path, capsys):
    rc = main(["compare", _short_case1(tmp_path), "--modes", "noncoop", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "noncooperative baseline" in out
    assert "system velocity RMS" in out
    assert "min pair TTC" in out
    assert (tmp_path / "noncoop" / "metrics.json").is_file()


def _vehicle(name, road, x, y):
    return (
        f"\n[vehicle.{name}]\nroad = {road}\nmaneuver = straight\nlane = outer\n"
        f"x = {x}\ny = {y}\nv = 5\nkappa = 0\n"
    )


# B starts past the zone on M2, so it is never active with A or C
NEVER_ACTIVE = "[scenario]\nversion = 1\nname = apart\nt_end = 3\n" + _vehicle("B", "M2", 6, 30)


def test_compare_skips_pairs_never_active_together(tmp_path, capsys):
    cfg = tmp_path / "apart.cfg"
    cfg.write_text(NEVER_ACTIVE + _vehicle("A", "M1", -18, -6) + _vehicle("C", "M2", 6, -20))
    assert main(["compare", str(cfg), "--modes", "noncoop"]) == 0
    assert "min pair distance" in capsys.readouterr().out


def test_compare_rejects_empty_mode_list(capsys):
    assert main(["compare", CASE1, "--modes", ","]) == 2
    assert "no mode given" in capsys.readouterr().err


def test_field_raster_of_a_run_with_no_steps(tmp_path):
    cfg = tmp_path / "gone.cfg"
    cfg.write_text(NEVER_ACTIVE)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--field-raster"]) == 0
    assert (out / "steps.csv").read_text().count("\n") == 1
    # a 101 x 101 grid at the default cz_half_width 10, under one header line
    assert (out / "field_raster.csv").read_text().count("\n") == 101 * 101 + 1


@pytest.mark.parametrize(
    "name, vehicle",
    [("nul\0byte", "V1"), ("../../escaped", "V1"), ("demo", "V3,x")],
    ids=["nul_in_scenario_name", "path_in_scenario_name", "comma_in_vehicle_name"],
)
def test_run_rejects_names_that_break_output_files(tmp_path, monkeypatch, capsys, name, vehicle):
    cfg = tmp_path / "names.cfg"
    cfg.write_text(f"[scenario]\nversion = 1\nname = {name}\nt_end = 0.3\n" + _vehicle(vehicle, "M1", -20, -6))
    cwd = tmp_path / "a" / "b"
    cwd.mkdir(parents=True)
    monkeypatch.chdir(cwd)
    assert main(["run", str(cfg)]) == 2
    assert "use only ASCII letters, digits and '_'" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["a", "a/b", "names.cfg"]
