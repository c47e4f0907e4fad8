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
    "case1_A_fuzzy": "0034ac20d16847c63ce31ad61cfa9fe00cfe8a4da87f1cd850f6559f21caa636",
    "case1_A_noncoop": "f6af34eae812d282343cc99e18a25f7e2c414a7a70be86165e2eed3b9c3304a7",
    "case1_A_grand": "eccff7dbf6a43b8479a8434487bfa9c9545722c5e1f0e97660cdea4afc5f9202",
    "case1_B_fuzzy": "4dbb1ff15150583e37fcbdff7624bf00bc4da791665381b5a2a57e42e4c92b4b",
    "case1_B_noncoop": "0a336469a75a416b85616728e8b4d23bcc7ed964e9b996e90490ea2d100d3d2c",
    "case1_B_grand": "2d7ea54849300df9f79f7125225e06a2a5ab06534bbd4e08c71ae74b70f1adf2",
    "case1_C_fuzzy": "a780c166cdebfdae3c5c29c46791d9fb336f620b148036f3d330138dcbdde45d",
    "case1_C_noncoop": "6493f16bf41a99c395fb0feac93e9635b531a8fe146b8783ecce3177d182058f",
    "case1_C_grand": "f72c1f34fcc63839594d49020cab7f8542ed0121f616b70ee203961d336b6284",
    "case1_D_fuzzy": "59fc39751d4b7b33d8858d57ae1e243606d4bf6c363a965450957f3ec6936b60",
    "case1_D_noncoop": "5bf3cd1b5c08dbbfbed2649e72d70376521f5768463568cb844e499c53a67a20",
    "case1_D_grand": "2da5495e7725bd58cc8794c6a944e908d315caceadbb23879d56be000ce29c04",
    "case1_E_fuzzy": "af8259d8056573b7ddfe8a4993bd91bd5c3ab1ee2ee1379393a4d999469b67dc",
    "case1_E_noncoop": "a6e8659cb3b95a426def29bb9999394794894ac8950a131352e6507a86762b30",
    "case1_E_grand": "031768c222e21ca203a7a5b7bdf2e9597c497bf0e65e542ae1a72d2bb0da4e1c",
    "case1_F_fuzzy": "8e02e5841c77b7aecc48a1c95b8570076852ef56224b486e7317079c55bd7d87",
    "case1_F_noncoop": "cc56716fa13057b3d9105370df84b6f9b3429f81b10c9a44e193f77ebf5c6a5f",
    "case1_F_grand": "f01722891dbac1bc0d114872bd4b0c2640194bfae994619ea5181b580fba9b02",
    "case2_fuzzy": "6b27fb09f946f7c1142b91fcbec202967f2d5362e955dae588898f4d7ce0ea4b",
    "case2_noncoop": "22caf9cd14dc28f715b83fd43ac879a9aeecdd55028a19f47ae27e593fff3776",
    "case2_grand": "96f564673981c1392a186a26ba9afcae9241b0e64f63abf9b635708833d18415",
    "case3_fuzzy": "9502316296754891633a7e7d6029ae233b646c53314c4e38070b03117df0f70f",
    "case3_noncoop": "c2ec1c55afa5c6f9f65ca3b59cdc187cfa94cb777b5c70e11f46cba98e8b687f",
    "case3_grand": "f7bc1b15d0cd72e3c8d18d1e4e62d5309303bc9ac3cb9764e46dc1b370143828",
    "case1_A_ungated": "78f4847dc3e1f5ae2567348f2a973e2c32f24e7e8e791d39a65f2f360d61b303",
    "case3_ungated": "bd135c505de0b92faadf29d41689ef3a0a92d0025928e26c9ae99a332d0cafef",
    "dense_n8_seed1": "3d45fe649aecbf620b32ec867c34592bf50753fc538f056561c81d26a0262804",
    "dense_n12_seed1": "4cad331c4e393819ed7915763c9033d41d1fdb4c8eb7dd162554adf7e685898a",
    "dense_n12_seed1_grand": "10bb78c3c07c3e693cceff7a02922f064d866ce890bb35bed20e4e3134eac89c",
    "dense_n16_seed1": "cac2841bc835044525ecc5c9f68f72b958117ae80a7305a0344ef4fb6bb4698c",
    "dense_n8_seed3": "e534426bc803a8ec913c6c2dd6c79124f91a1289cb124fe61bc0c01f7e3c12b8",
    "dense_n12_seed3": "d2cbf427283fc900289e8e29b8ab7cfc519742675fca1b51da362fcbb9e87add",
    "dense_n16_seed3": "e5e33cf610cf25f36debd363c36e00c5ea048ad2180dc634bd8d2ceb2e83a00d",
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
