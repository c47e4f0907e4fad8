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
    "case1_A_fuzzy": "f1c57f6c72db300e9be6971464aa4b3791f9f1c903d2ef5427b698044d806210",
    "case1_A_noncoop": "3c442410c076cb841a237f720df9ea16b19cc9d36dfee966642d07041d845683",
    "case1_A_grand": "93d472f014dc2bb2b90ebb62e5dea69d3f78b9fe250d802d9ebe9d2c07dc86a0",
    "case1_B_fuzzy": "dc63f061df754187d619bf931a0de19a0319a358feef240913e7efae3836615a",
    "case1_B_noncoop": "7b40c8c8bfd6b07edbc0e46304cf13f5dad5031f8ab503a9bab9fd77bda2eb0d",
    "case1_B_grand": "47cd70d5545730b426c3c02307bf68f645064c8ec4d5c604da475a2cbe166024",
    "case1_C_fuzzy": "cd140c60ae84fa33d9f2023fc6a2dd85614bbcc1ea184061b93260a2f080fdcd",
    "case1_C_noncoop": "7aa1ea683773e0b50997fb3e2d08b85d6a9423022777a7aa1c195aec5ea145a0",
    "case1_C_grand": "f09bb500de134f66fd888d9cca50ee9233836fe9ba84429fa426cdb280508dd1",
    "case1_D_fuzzy": "cef4203cbf1f5ff3bbb91ff159f0141f4d3ff25b9913672a411b11248c360156",
    "case1_D_noncoop": "104a6f1e851ae52837e76aa7a5ab7c54075cc916c65cee4a792d0cb1ddb605ca",
    "case1_D_grand": "579f8b2a42bab27961e44c8b872948c69030a83e03b1db0779dbc0704c249ec9",
    "case1_E_fuzzy": "818672d9646b9763526ca165694deeb77790774a2dc0e7a700ee2263b9108889",
    "case1_E_noncoop": "446691d03b846bb9f94f436f96d4bc4accf083f3c7b59d16ef051cd7c94cb19a",
    "case1_E_grand": "37a43c040c8625eb0f5f46666a8186193b7225447507627caaa18af19f0ebeb6",
    "case1_F_fuzzy": "5e1678aec222c483fef0e40c1cc57814f0b7a51d72cbc2082cdca92b6aebab85",
    "case1_F_noncoop": "0b04398352a545c70c8ff2478d508faff50b4a8af964da0a709ed072a37be581",
    "case1_F_grand": "f2610f06fd890278565daca28334474cdf9baef39578c1531a04ec7c87410f6c",
    "case2_fuzzy": "a0d3ebc20e642fb308ef0bf4a30ba4adfd01af4e0014d71618d3c414e737b549",
    "case2_noncoop": "24c0c70f0c268bd9a994ddc7812d64be288be9a49c62a6e851884dcf913ad126",
    "case2_grand": "9515d8a87b7dd3edeb9c59a1e28a1e80a1c3d9e9ceb1a3d167a014f5dab2b812",
    "case3_fuzzy": "97f333722db651bbb13bf43f0ae8fdbd0c48ad74c746e9698873fb92add78031",
    "case3_noncoop": "4bf4ec801df0e3cb445d1e83185e64bce0ecbdc460bfdde71d554d5ce75e7a4c",
    "case3_grand": "647dc6eec46423154d9c5d5488ca7b9710754a5fd666f3876fb1a07ee07831bf",
    "case1_A_ungated": "457bdbce3414b1a5506f72647766ea3a4e63cbbf722b629c0fbf0546c0b22dde",
    "case3_ungated": "f655bd275139b5d9092c547683fe8c4ef7c2c0b5248f69214af13f1fdc42369e",
    "dense_n8_seed1": "a2a3d9d7770386869b9a32f786bcdc039722a540f4671dd92014bd3c21e365d4",
    "dense_n12_seed1": "e908cab8e0c302d0dbb6e6ec1cc85cde76a9fd021d73f9a5aabddca0182d8dba",
    "dense_n12_seed1_grand": "ac1f75d97d0697caa0b00410e6aeadc87cf6bfad758c441c295735bc74e80459",
    "dense_n16_seed1": "ba2fcf8c1da1464c50a27a41a14f5e9eef94593237c65323956b51c5b7e68398",
    "dense_n8_seed3": "0f09bac293e64db95b462575caab1c384c607a9ce1e11b69fb7f7c55e0015d38",
    "dense_n12_seed3": "4fa6c04d7e9816399f540f3d5e2d874779bf40b5716a6266365e393a7436bd35",
    "dense_n16_seed3": "5796e1c022a49873f67438a0b547a7a3a2f7ebfa6f481214c3765981d051342b",
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
