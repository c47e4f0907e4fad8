"""`scripts/matrix_diff.py`: the old -> new report over two identity-matrix trees."""

import shutil
from pathlib import Path

import pytest

import matrix_diff
from intersection_game.runner import emit

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def trees(simulate, tmp_path):
    """Two trees holding the same case1_A fuzzy run directory."""
    res = simulate((ROOT / "scenarios" / "case1_A.cfg").read_text(encoding="utf-8"))
    old, new = tmp_path / "old", tmp_path / "new"
    emit(res, old / "case1_A_fuzzy")
    shutil.copytree(old, new)
    return old, new


def test_identical_trees_print_zero_differences(trees):
    lines = matrix_diff.compare(*trees)
    assert lines[-1] == "0 of 1 runs differ"
    (line,) = lines[:-1]
    assert line.startswith("case1_A_fuzzy: steps 86 -> 86;")
    assert line.endswith("; max|dxy| 0; max|dv| 0; first diff: none")


def test_a_changed_trace_row_is_named_as_the_first_difference(trees):
    """Nudging V2's x at step 5 by 1 mm is the run's first difference, in
    column x alone, and its largest position change; its speed is
    untouched, and trace.csv is the one file that differs."""
    trace = trees[1] / "case1_A_fuzzy" / "trace.csv"
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    k = next(k for k, line in enumerate(lines) if line.startswith("0.5,V2,"))
    row = lines[k].split(",")
    row[header.index("x")] = repr(float(row[header.index("x")]) + 1e-3)
    lines[k] = ",".join(row)
    trace.write_text("".join(lines), encoding="utf-8")

    report = matrix_diff.compare(*trees)
    assert report[-1] == "1 of 1 runs differ"
    assert "; files: trace.csv; " in report[0]
    assert report[0].endswith("; max|dv| 0; first diff: step 5 V2 [x]")
    dxy = float(report[0].split("max|dxy| ")[1].split(";")[0])
    assert dxy == pytest.approx(1e-3, rel=1e-3)


def test_a_change_to_steps_csv_alone_names_that_file(trees):
    """A changed `evals` count moves the summed evals and makes steps.csv
    the one differing file; no trace row differs."""
    steps = trees[1] / "case1_A_fuzzy" / "steps.csv"
    lines = steps.read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    row = lines[1].split(",")
    row[header.index("evals")] = str(int(row[header.index("evals")]) - 1)
    lines[1] = ",".join(row)
    steps.write_text("".join(lines), encoding="utf-8")

    report = matrix_diff.compare(*trees)
    assert report[-1] == "1 of 1 runs differ"
    old, new = report[0].split("; evals ")[1].split(";")[0].split(" -> ")
    assert int(old) - int(new) == 1
    assert report[0].endswith("; files: steps.csv; max|dxy| 0; max|dv| 0; first diff: none")


def test_a_run_in_only_one_tree_is_reported(trees):
    old, new = trees
    shutil.copytree(new / "case1_A_fuzzy", new / "case1_A_noncoop")
    shutil.copytree(old / "case1_A_fuzzy", old / "case1_A_grand")
    lines = matrix_diff.compare(old, new)
    assert lines[1:] == [
        "case1_A_grand: only in OLD",
        "case1_A_noncoop: only in NEW",
        "2 of 3 runs differ",
    ]
    assert lines[0].endswith("first diff: none")


def test_main_prints_the_report(trees, capsys):
    assert matrix_diff.main([str(t) for t in trees]) == 0
    assert capsys.readouterr().out.splitlines() == matrix_diff.compare(*trees)
