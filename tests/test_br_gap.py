"""`scripts/br_gap.py`: every step's controls are a best response to within
a tolerance stated before the search was made coarser, the probe's
rankings are the run's `evals`, and probing a run changes none of its
rows."""

import dataclasses
from pathlib import Path

import pytest

import br_gap
from intersection_game.runner import run
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]


def _texts(dense):
    return {
        "case3": (ROOT / "scenarios" / "case3.cfg").read_text(encoding="utf-8"),
        "dense_n16_seed1": dense.layout(4, 1),
    }


def _untimed(steps):
    return [dataclasses.replace(s, solve_time=0.0) for s in steps]


@pytest.mark.parametrize("name", ["case3", "dense_n16_seed1"])
def test_every_player_step_is_a_best_response_and_the_probe_changes_no_row(name, dense, simulate, tmp_path):
    text = _texts(dense)[name]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text, encoding="utf-8")
    with br_gap.probed() as probe:
        res = run(load_scenario(cfg))
    gaps = [gap for gap, _ in probe.records if gap is not None]
    assert len(gaps) > 400
    assert max(gaps) <= br_gap.GAP_TOL  # the largest reading here is 1.4e-5
    assert not any(rescued for _, rescued in probe.records)
    assert probe.rankings == sum(s.evals for s in res.steps)
    assert 0 < probe.searches < probe.rankings
    plain = simulate(text)
    assert res.rows == plain.rows
    assert _untimed(res.steps) == _untimed(plain.steps)
