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
    "case1_A_fuzzy": "f14208c1309b158a23ee56515f29ebf696dc28b8b130f28dc40716bc4160678f",
    "case1_A_noncoop": "71c595d373c34512a07a32f5ca083000c48ceba7b4e707eca4a22811361614ff",
    "case1_A_grand": "ae20345fac2839c4a2e20800dd2447d15a1d314a80b972e1155865a46d78c34d",
    "case1_B_fuzzy": "c4e91eafe419f75a8ae9ceb5e506ae753891e94309ae031766b4298f897b309e",
    "case1_B_noncoop": "ba8134f0c67d7fcf3ea6f9fbb13d0c66a192480ee42457507b04b83cde6ccb05",
    "case1_B_grand": "67612ec565f2cf9a3ddae91e6da43080790d26e68ae6bdf82654ce2f1ad83c28",
    "case1_C_fuzzy": "474b51661889c0cbeb67e551d7190f4fc57b96361d202e22ed47309048e34f63",
    "case1_C_noncoop": "73b3d59cd6ebc6db62c461218f0658d1ea529047184438cad48af5455bfeffe6",
    "case1_C_grand": "785906bfb2279e2617e9cf3b4eccb2de023549672a84038078bacff154826072",
    "case1_D_fuzzy": "e7e73523253bd6302660ddd26b46f0d0cb60ce1f49d525f9c1b01980a08c2818",
    "case1_D_noncoop": "bc0abba567425b56f2c9a8380e733a20c27130f2eaecfb4725e8436932ae3a40",
    "case1_D_grand": "46f09ee23a4fc32b59eb83224d63e763d80278f3bb8f9c4956542193245e42ab",
    "case1_E_fuzzy": "af965e41ca033cd1d078b4f3bd7c258a6a4deadd98ef6a01ae69e4bb2129d610",
    "case1_E_noncoop": "d27b1298f3b846f28ce7c766475729ecfc49f9fe139c05ef77b968673b37ae8b",
    "case1_E_grand": "34d86f19459ce7561653a10988368ede839370f5480be760107722a8ded16648",
    "case1_F_fuzzy": "ea83223c181044fb0de18407e1f35d9387be0cf662d459fcba3cf39e635316df",
    "case1_F_noncoop": "13429385ea795e3be7a3c235b2d6ba8f37a004b78c457c00c92f4255c6bd11cb",
    "case1_F_grand": "8fb1625963220dac56d49d01071e0fd40ec1e931006787ae3b0ef1be67d853d8",
    "case2_fuzzy": "0461039c84d1f2241ea59859a591eb61a4423bf893492c07b10e2e1c242a46e4",
    "case2_noncoop": "6820be2059b7e62e65dd57ea912365a8b009239e04d4de9b62c7f2cb44500516",
    "case2_grand": "e4e0315b815d1d1d63770b8da8218c079862c029e3a526cdb5ed3aa05ddefad9",
    "case3_fuzzy": "1d7d01525f96cbd8e639dcf30277c7f4f7a5f8c49fa930cdc27e3291dc228288",
    "case3_noncoop": "912013be171806bf441b17aeca285c1d960d45e8f238cab31d3b285053a2d45f",
    "case3_grand": "889e391f0e19c81f4df10f2499185af77bd6622b222239cad7f5a7e5113ce527",
    "case1_A_ungated": "1e1a701f43a75b62959064a6415e72625e2bc12cd236f6ed5148836c36ec9747",
    "case3_ungated": "bac99751c84f60a4b186a99822435795cf5fad6237b2284a6a426040ae6b2756",
    "dense_n8_seed1": "3441c7e8f3228e88516b88d03403fc1c796bc3f8fffed37054035852f0b14e16",
    "dense_n12_seed1": "7dc0f57f91ac9ada02dc62196f305db73f7884721f58caa54c5f1a6e18219b8c",
    "dense_n12_seed1_grand": "7536518a65b62f683215e7e617dbffc35e34599462b8f397378a884177d36789",
    "dense_n16_seed1": "d17ddf9aa65fb3f606b40f1fa6fbcbf8e1e4af9334cd79851b22dd0ce80a6e43",
    "dense_n8_seed3": "9d64f978f9fcc3e08a242481ebcfc7fa458d1617ae00a8a018040a85e745bb06",
    "dense_n12_seed3": "68332f195c97d12c9eaf583e3891bc4b7bae75b81ecb6abc082a3be5f8b9cdbb",
    "dense_n16_seed3": "4a927351a935098707306ffed584c809e3540e39a55c5c04d43e790234bfe55b",
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
