"""Golden outputs: every run of the identity matrix (`jobs()` of
`scripts/identity_matrix.py`) reproduces its recorded digest, and every
shipped scenario, run in the fuzzy mode, reproduces the committed runs/
files byte for byte.

timing.json holds wall times and is the one emitted file left out.
"""

from pathlib import Path

import pytest

import identity_matrix as matrix
from intersection_game.runner import emit

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "scenarios").glob("*.cfg"))

JOBS = matrix.jobs()

# `digest` of each identity-matrix directory; after an intended behaviour
# change, paste the lines scripts/identity_matrix.py prints in place of these
SHA256 = {
    "case1_A_fuzzy": "65112518ed8edcdc8fd18ee19d7c59e704492650ea32a37e312c801cff6dac25",
    "case1_A_noncoop": "0e0bfb5531cd53601038d2ad1b1cb8626fa86e0acf82614ce0cefbffd2c83043",
    "case1_A_grand": "dbab995cfc39418729ea88a49ec42519cd0a2717ebc5092cdeea28958b7f165e",
    "case1_B_fuzzy": "4bbfa42589d8c44d7b04d887e0bbd649b8acc05cffd27750f6e1a4ff889bd2dc",
    "case1_B_noncoop": "24fd9c87343b35e12d14003e09db8ca5161225a1eb8cecf175290e15dbc16ac4",
    "case1_B_grand": "6962bb8a0d263a01cb8bc6862bab6e5f4d701c1268bcc9ef823dd52f2834b001",
    "case1_C_fuzzy": "c353278039c04d588a798a3871cb371e70d2e1159b7c698d77ee65fa0458fa36",
    "case1_C_noncoop": "bd189e97d561219c1134bf918eb2934c518e0db2553caa9f0832c5ace5420d18",
    "case1_C_grand": "2d61fbbf1007e3b3443e2609bd18410a8179899153ed29eeb0af619eb5e9bcba",
    "case1_D_fuzzy": "14d0a5962b60018d2ed8256837ae31bb85e0340ca1f214d98a4ecb7452c323b7",
    "case1_D_noncoop": "c6e6546f05114a65f18ac086443358939f47580a5f26a4d24bf113746da6c7fe",
    "case1_D_grand": "d246f537aa0186892578083e3c45a238a5b00b95656ddc6052f02db005a62d98",
    "case1_E_fuzzy": "6aab7bbad80c03bef78f6b20c3b735bcea4a1d1042217f863e8c980f0c3324eb",
    "case1_E_noncoop": "723f86323360463cf5aadbbf5261995c7b36c6f8f2bd202adb00378855417b72",
    "case1_E_grand": "b3f64f8c27fee42bb65c837ac7ac3459e4ad10957fa2811e47f5515cb2e3741d",
    "case1_F_fuzzy": "6f554712d5ea2f2910f8c293202419e680fa3444a262d73e7ef8740ede0c8ca7",
    "case1_F_noncoop": "b495339fcd2427c2dd8ad11cb77e1af86512c6a1368b62f619eb97891e422d6a",
    "case1_F_grand": "da95b3d0cb4f43f5130b374fc750a1d461af09c40e122a397e91d4ce1b1466a2",
    "case2_fuzzy": "40d174226f00d585cc7f7ff513d2cc9f2b5fc1be7b09b4a57534cb981ed48188",
    "case2_noncoop": "38dea3597735639ac4f0201bd6bc054fa531dcba0ddafffeca5fe9528d0d6cb4",
    "case2_grand": "d3d9c2d90ac125faf191afcb8d72520741cbe181c58e06f7d85283480c97502c",
    "case3_fuzzy": "35f871887a8dbc9fa5aeda3827295eb4a45b5eee50a1a04ccba12f7701bb6021",
    "case3_noncoop": "d8e2a70bf083f9b9ef0a35ac86d68be983764037c3af541c594f8c856901ebf3",
    "case3_grand": "90344101ac7d8579ab5ed48e43833cc0c7e18a92d4d5bc790555f2267ba26fa8",
    "case1_A_ungated": "d905487187f5b1c01656ff331fbcf60029e072d8b8465cca62550a800e12f945",
    "case3_ungated": "b3b764539cc4e8fbd522fe4a6455ca02ce56cd831d6a644e297f34444d93db60",
    "dense_n8_seed1": "4653666aa18dc3a3b6e7fb0327f3c2adf9ed860510f2018680a787d41e832d27",
    "dense_n12_seed1": "977b787ff0e899e4ebdda790814602ad9ecad45f873d4788ab74243e282c79bd",
    "dense_n12_seed1_grand": "f2b721f3b31b52c26249fddf2f5fe4bfa405ff0b307c3f89203000886a306d53",
    "dense_n16_seed1": "4470ba5f6a7fbfeeba2469b782a68afc32a7e1c92474b326dcab499c8929bf57",
    "dense_n8_seed3": "10da2601c8942d198130579931bf42764e9f677a353a05c967e79ced96ad8858",
    "dense_n12_seed3": "b9fb824917762ebf2112e156b7ef4481ef9d14ab33b05afbdb5c3616d7ced40f",
    "dense_n16_seed3": "c2008d63bad9d39308acf796822f0a1879c0d1a0cea8843179b954ea8812fcaf",
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
