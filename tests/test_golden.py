"""Golden outputs: every shipped scenario, run in its configured mode,
reproduces the committed runs/ files byte for byte; case2 and case3 under
noncoop and grand, the 8- and 16-vehicle dense layouts of seed 1, and the
12-vehicle one under grand, reproduce recorded digests.

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
# order, of `perfbench/dense.py` layouts at seed 1, keyed by vehicles per
# arm and mode (None: the layout's own, fuzzy)
DENSE_SEED1_SHA256 = {
    (2, None): "49bd047ce63375f739af4883b286337ad9bd94429370c1b5976aef8c563142f9",  # dense_n8
    (4, None): "db252dd3517ca8e308e5206e2b87d302a884406b99c768d9fe7b576444006fc0",  # dense_n16
    (3, "grand"): "579938bad1b390b87429230e6304591d41aab25377f58f527de0468d8253b03b",  # dense_n12
}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != UNTIMED:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("per_arm, mode", list(DENSE_SEED1_SHA256), ids=["n8", "n16", "n12_grand"])
def test_dense_layout_reproduces_recorded_digest(per_arm, mode, tmp_path):
    """The shipped scenarios have no in-lane queues, resets or fallbacks;
    these layouts have all three, so the solver paths they take are pinned
    byte for byte too.  The 16-vehicle one has the most live crossing
    points per vehicle.  No shipped grand run resets a player; under
    grand, a player still infeasible after the sweeps plays that step at
    p = 0."""
    spec = importlib.util.spec_from_file_location("dense", ROOT / "perfbench" / "dense.py")
    dense = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dense)
    cfg = tmp_path / f"dense_n{4 * per_arm}.cfg"
    cfg.write_text(dense.layout(per_arm, 1), encoding="utf-8")
    res = run(load_scenario(cfg), mode=mode)
    rows = [r for step_rows in res.rows for r in step_rows]
    assert any(r.lv is not None for r in rows)
    assert any(r.reset for r in rows)
    assert any(r.fallback for r in rows)
    if mode == "grand":
        assert all(r.p == (0.0 if r.reset else 1.0) for r in rows if r.role != "OV")
    emit(res, tmp_path / "out")
    assert _digest(tmp_path / "out") == DENSE_SEED1_SHA256[(per_arm, mode)]


# the same digest of case2 and case3 run in the modes that runs/ does not hold
MODE_SHA256 = {
    ("case2", "noncoop"): "88601741d1f6af7003ed5e73dcedc8195e3830e4ea93ce818d71dd0ac27dfd50",
    ("case2", "grand"): "f398c400494efe9e5082e036463843f767e3d17d3be6f1f7fbabb82f7e8f5738",
    ("case3", "noncoop"): "78476b4b4df9784778a36ccabad1911a8d5c2f04678c3c88090a553528327c29",
    ("case3", "grand"): "2edbc5bf4cfd8987c6d4c68f5cf19b0d8b45f1d8a9f5d2d7dedb52dea9a290ea",
}


@pytest.mark.parametrize("name, mode", sorted(MODE_SHA256), ids=[f"{n}_{m}" for n, m in sorted(MODE_SHA256)])
def test_shipped_scenario_in_other_modes_reproduces_recorded_digest(name, mode, tmp_path):
    """noncoop plays every vehicle at p = 0 and grand at p = 1; neither
    resets a player for irrationality, so both take solver paths that the
    fuzzy runs do not."""
    emit(run(load_scenario(ROOT / "scenarios" / f"{name}.cfg"), mode=mode), tmp_path)
    assert _digest(tmp_path) == MODE_SHA256[(name, mode)]
