"""Golden outputs: every shipped scenario, run in its configured mode,
reproduces the committed runs/ files byte for byte.

timing.json holds wall times and is the one emitted file left out.
"""

from pathlib import Path

import pytest

from intersection_game.runner import emit, run
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "scenarios").glob("*.cfg"))
UNTIMED = "timing.json"


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shipped_scenario_reproduces_committed_outputs(cfg, tmp_path):
    res = run(load_scenario(cfg))
    golden = ROOT / "runs" / f"{res.scenario.name}_{res.mode}"
    emit(res, tmp_path)
    got = sorted(p.name for p in tmp_path.iterdir() if p.name != UNTIMED)
    want = sorted(p.name for p in golden.iterdir() if p.name != UNTIMED)
    assert got == want
    for name in got:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
