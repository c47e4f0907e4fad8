"""Golden outputs: every run of the identity matrix (`jobs()` of
`scripts/identity_matrix.py`) reproduces its recorded digest, and every
shipped scenario, run in the fuzzy mode, reproduces the committed runs/
files byte for byte.

timing.json holds wall times and is the one emitted file left out.
"""

import importlib.util
from pathlib import Path

import pytest

from intersection_game.runner import emit

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "scenarios").glob("*.cfg"))

_spec = importlib.util.spec_from_file_location("identity_matrix", ROOT / "scripts" / "identity_matrix.py")
matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matrix)
JOBS = matrix.jobs()

# `digest` of each identity-matrix directory; after an intended behaviour
# change, paste the lines scripts/identity_matrix.py prints in place of these
SHA256 = {
    "case1_A_fuzzy": "c1c237b63fc67448363d7e8a1096eaf73a0a40aa34e5f7a6661a1e3d72b5ad26",
    "case1_A_noncoop": "436af3288985c0ee9feed32af39b7f0f1ec8cdd699164c9595f818fa3b99e5de",
    "case1_A_grand": "c62cc4c2a356ea5b252d9952e08e0ba61582b44e641bc4b68cf014dd4552d07d",
    "case1_B_fuzzy": "3f983bb32416242a1c75e96b376601fcc69086b184ab7d7e23ee52fa534a1d77",
    "case1_B_noncoop": "52f30d1f2cd3c0f1f9cd1b72cc407b21a44e6ab52ab3b5dd53162657b245bc1e",
    "case1_B_grand": "139e3e5ea48981ad48cd3af882a732d3e7b69f738eef92d290778bb76092bbb1",
    "case1_C_fuzzy": "27b891d819961102202a38d4db97c848eded12f6036b06b810dde067f02d7c86",
    "case1_C_noncoop": "e0f18035137ef40328008d026a22a24ad903e49af2b0f371b0273ab247147e1a",
    "case1_C_grand": "be261962877043d2ec67a8a942a6449c85eac4162d016bd97b45f043d6d66975",
    "case1_D_fuzzy": "0802b1d4fed8b8c0b9ab94dd8910f7c729ebcf00326d64749141b4deadc40d7f",
    "case1_D_noncoop": "a4880cee5d9eb97e8a4c70f46846222552d6cbaf25eb11a5ef500961eea42b30",
    "case1_D_grand": "b0f22287308f8f7e251088cc73e4f28768183aaa554b4edf19e8191ec0881baa",
    "case1_E_fuzzy": "38fad8171278029854b02583dd14023c3dab0789704bdcf5a03a49bab7a4dc74",
    "case1_E_noncoop": "544203308e0c0c63d00b739f7d5c8d78cd1463e85603e15f54fb62e881f11dfc",
    "case1_E_grand": "a1c1ced2220aaffb353219d24de2a7ed6726453099cf5e4634ad82a7d1e54fef",
    "case1_F_fuzzy": "72db1eeac0df2321c34b4de4df4c90e0a73b9ec5dac818eca1d77b0ce20ce375",
    "case1_F_noncoop": "fc0322361288ca7d2ab189242ac975e30bd41af2c87c6dd11519f4dac4aacdc4",
    "case1_F_grand": "7ede480e43753fc0de35a23e4f499c8bd4ec7b1c3ea9e5b973c8edf091abb316",
    "case2_fuzzy": "8fe38d11e89f1c2bb80b39bdf92c0bfd38ad928e6f7c3661833236c0d5ef92e0",
    "case2_noncoop": "88601741d1f6af7003ed5e73dcedc8195e3830e4ea93ce818d71dd0ac27dfd50",
    "case2_grand": "f398c400494efe9e5082e036463843f767e3d17d3be6f1f7fbabb82f7e8f5738",
    "case3_fuzzy": "37d30abd05c6a07fedfc17d013f0dfb93b6317ef01b2ddcaaf6ff604e9a6ae7e",
    "case3_noncoop": "78476b4b4df9784778a36ccabad1911a8d5c2f04678c3c88090a553528327c29",
    "case3_grand": "2edbc5bf4cfd8987c6d4c68f5cf19b0d8b45f1d8a9f5d2d7dedb52dea9a290ea",
    "case1_A_ungated": "7a320b43239c51be1d18e3aa5967f6e402c6ff0083a97d483c191184c78649ca",
    "case3_ungated": "1e6613894828881fb7edf2ee185cf311ad22d6cd27d2442fa3755991de1b2056",
    "dense_n8_seed1": "49bd047ce63375f739af4883b286337ad9bd94429370c1b5976aef8c563142f9",
    "dense_n12_seed1": "3d93c95c94a0e923074a201564f13d6e2830f6bb6c4a656d9e6d01fb73517dcf",
    "dense_n12_seed1_grand": "579938bad1b390b87429230e6304591d41aab25377f58f527de0468d8253b03b",
    "dense_n16_seed1": "db252dd3517ca8e308e5206e2b87d302a884406b99c768d9fe7b576444006fc0",
    "dense_n8_seed3": "2874cb46ad6cd35a49dce6653df42565b32315538c1ea7b5a122f00e20a6da22",
    "dense_n12_seed3": "3683b713b6972bc48fbc121535038288c455fee70f6180201b48e97568afbb21",
    "dense_n16_seed3": "a6ae10c1d17731fbab72bc98a815763e0debf9d28bb31a9f6101382ea76727d0",
}


def test_every_identity_run_has_a_recorded_digest():
    assert [name for name, *_ in JOBS] == list(SHA256)


def test_matrix_refuses_an_out_that_is_not_a_new_or_empty_directory(tmp_path, capsys):
    """A file an earlier run left in `--out` would enter that directory's
    digest, so the script exits 2 before any run and writes nothing; so
    it does for an `--out` that is a file."""
    stale = tmp_path / "case1_A_fuzzy" / "extra.csv"
    stale.parent.mkdir()
    stale.write_text("left over\n", encoding="utf-8")
    for out in (tmp_path, stale):
        with pytest.raises(SystemExit) as exit_info:
            matrix.main(["--out", str(out)])
        assert exit_info.value.code == 2
        assert "is not a new or empty directory" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [stale.parent, stale]
    assert stale.read_text(encoding="utf-8") == "left over\n"


@pytest.mark.parametrize("name, text, kwargs, raster", JOBS, ids=[job[0] for job in JOBS])
def test_identity_run_reproduces_recorded_digest(name, text, kwargs, raster, simulate, tmp_path):
    emit(simulate(text, **kwargs), tmp_path, field_raster=raster)
    assert matrix.digest(tmp_path) == SHA256[name]


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shipped_scenario_reproduces_committed_outputs(cfg, simulate, tmp_path):
    res = simulate(cfg.read_text(encoding="utf-8"))
    golden = ROOT / "runs" / f"{res.scenario.name}_{res.mode}"
    emit(res, tmp_path)
    got = sorted(p.name for p in tmp_path.iterdir() if p.name != matrix.UNTIMED)
    want = sorted(p.name for p in golden.iterdir() if p.name != matrix.UNTIMED)
    assert got == want
    for name in got:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


DENSE = {name: (text, kwargs) for name, text, kwargs, _ in JOBS if name.startswith("dense_")}


@pytest.mark.parametrize("name", DENSE)
def test_dense_layout_reaches_queues_resets_and_fallbacks(name, simulate):
    """The shipped scenarios have no in-lane queues, resets or fallbacks;
    these layouts have all three, so their digests pin the solver paths
    those take.  No shipped grand run resets a player; under grand, a
    player still infeasible after the sweeps plays that step at p = 0."""
    text, kwargs = DENSE[name]
    res = simulate(text, **kwargs)
    rows = [r for step_rows in res.rows for r in step_rows]
    assert any(r.lv is not None for r in rows)
    assert any(r.reset for r in rows)
    assert any(r.fallback for r in rows)
    if res.mode == "grand":
        assert all(r.p == (0.0 if r.reset else 1.0) for r in rows if r.role != "OV")
