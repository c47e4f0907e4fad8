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
    "case1_A_fuzzy": "fd51ad3f2de23cb3f9163f6ef984e0e6c6b7e16e4e4445b6477e7c54039f2868",
    "case1_A_noncoop": "66716751b596d4bc6df05c37680184de110bfcf57b5cb6529ee8377e24b6f0ee",
    "case1_A_grand": "1e53b70fae4066ae82fe95b38a890b9b6ebf9997c66de52074612c5c395b81e2",
    "case1_B_fuzzy": "865fd03b6a51b4f8511a5a618ba66b035cfab7c0c2c1bd743b1f1660361fbba8",
    "case1_B_noncoop": "2c907460b34baff931d28a49dd2bbd7bee9bb507b01abb9ddaae964204236ffe",
    "case1_B_grand": "08981c297d75c79bbca2d82ea37b8d60203a6028e93504a1b13e6e628c8c3eb4",
    "case1_C_fuzzy": "727619b2e8e82c6d8f8b88a2e9af5873b832984aa3cfe1cfacef25dc89274d71",
    "case1_C_noncoop": "6cea629b6e3fed9e65b8b45456dc334d8d9377dbea43155e5965718b97dc3831",
    "case1_C_grand": "a6c83c0f0f3430bd1313fb673baf2632024bdb5b45f7687a1c3bbbba3446b7e1",
    "case1_D_fuzzy": "145c0becf0d4cd96a8841d8143765007dc5d524a0bfbdfe30dd997ef5340626b",
    "case1_D_noncoop": "2ef069a19a512cf95f9cade1fb1838e0d215dc885c8b02a438bc5af8e572e5a9",
    "case1_D_grand": "b8d442f4d1f21301ea0721177a090b3be4945ba4fd5385969bee5b782a0fc08f",
    "case1_E_fuzzy": "59d545d7ea645ccad5e2488f9049187c0a5dcb617eb5de8532f1bf66a24c3de9",
    "case1_E_noncoop": "8f99007631401d0db436b09c29aee39e9abb8618941969449e7ce6ff6110c74c",
    "case1_E_grand": "c4468ddb02c0a727bbe2517905925c464b0c7813d6e17ef29adbcb6f99e3982f",
    "case1_F_fuzzy": "029ed2fb40584b740c90c7166610f6aa0968d79c1fca5704757779e4e84aed09",
    "case1_F_noncoop": "ed7941981049855c7cf2e8334151a3ccdf9840e0e3605786855715598cb49587",
    "case1_F_grand": "b6e5cfab1932f44b61f3be238656cb206cd7d607c3f420a9a040a4a87b53e464",
    "case2_fuzzy": "9a04b3d5494e9b051c8ee4a149e9afbbaa722312b528e1a5169dc4bab3179de9",
    "case2_noncoop": "004bbd6a9f146a24cf8f2d67ce39f2284775ae1a9c8a73d3ca605537c2fda3e5",
    "case2_grand": "13d77518433f9717def58993d7f474d2da7408e4135f932f3bb2b1a910787c11",
    "case3_fuzzy": "eb90e93eafc3b353fbe12b5f53a6bced4929c06d37023e1709815a5bf386d51b",
    "case3_noncoop": "a06fb793a25db22627d737ea37354243ed615aebfcfc599cd7d8703138d7075d",
    "case3_grand": "b7438975c633c859298f9cd04d111b7abb8053a0732f3269e5f239efea80f2d2",
    "case1_A_ungated": "000b129548e944075fc4e0e9f4f6685a6dcbc067414b92b1363c52158f2d875f",
    "case3_ungated": "3b72fe4fdfbc5595e8bb1bc8acb64370fa837a8d3ea5e816713bd5974ab06902",
    "dense_n8_seed1": "8ed8fdb0dbd1be2b91a7df71526ff3cd9688b28cf6584ecc9533042f19fb7146",
    "dense_n12_seed1": "e77f60eb4cc892bcb4fab6ff7972981caec41ac45a3f63075ff8a3c0665ee124",
    "dense_n12_seed1_grand": "d5b7492633bb685f3cc1c31cb61b090a4e96c972a186cd22c05879e5a0d5c644",
    "dense_n16_seed1": "dd90a7dbfbdb2f51a245728b979ad1ef03237e10495f33869cfc643dca70c717",
    "dense_n8_seed3": "5ba175587a5c955712ea1237fd2fa7e4c29630440fd398f0dcbb3e39bf0c746b",
    "dense_n12_seed3": "32c0187cc3ae6ad1ac4cff13274a8f362a88274194525a3ea19d1ccba5fd7782",
    "dense_n16_seed3": "ea55d166d6d2ea9baf50a474e79226629393eedf61faa4dc755b38b9a31652ce",
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
