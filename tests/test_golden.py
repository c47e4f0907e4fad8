"""Golden outputs: every shipped scenario, run in its configured mode,
reproduces the committed runs/ files byte for byte, and the 8- and
16-vehicle dense layouts of seed 1 reproduce recorded digests.

timing.json holds wall times and is the one emitted file left out.
"""

import hashlib
import importlib.util
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


# sha256 over (name, bytes) of each emitted file but timing.json, in name
# order, of `perfbench/dense.py` layouts at seed 1, keyed by vehicles per arm
DENSE_SEED1_SHA256 = {
    2: "49bd047ce63375f739af4883b286337ad9bd94429370c1b5976aef8c563142f9",  # dense_n8
    4: "db252dd3517ca8e308e5206e2b87d302a884406b99c768d9fe7b576444006fc0",  # dense_n16
}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != UNTIMED:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("per_arm", sorted(DENSE_SEED1_SHA256), ids=["n8", "n16"])
def test_dense_layout_reproduces_recorded_digest(per_arm, tmp_path):
    """The shipped scenarios have no in-lane queues, resets or fallbacks;
    these layouts have all three, so the solver paths they take are pinned
    byte for byte too.  The 16-vehicle one has the most live crossing
    points per vehicle."""
    spec = importlib.util.spec_from_file_location("dense", ROOT / "perfbench" / "dense.py")
    dense = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dense)
    cfg = tmp_path / f"dense_n{4 * per_arm}.cfg"
    cfg.write_text(dense.layout(per_arm, 1), encoding="utf-8")
    res = run(load_scenario(cfg))
    rows = [r for step_rows in res.rows for r in step_rows]
    assert any(r.lv is not None for r in rows)
    assert any(r.reset for r in rows)
    assert any(r.fallback for r in rows)
    emit(res, tmp_path / "out")
    assert _digest(tmp_path / "out") == DENSE_SEED1_SHA256[per_arm]
