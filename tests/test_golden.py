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
    "case1_A_fuzzy": "dda6541a956d70da6f5f746a9eec9baa3e8e2abcf52e7fa064a1bbe67b6b2181",
    "case1_A_noncoop": "add0c1b5a6031583e935ca7077641ce4ac2b7f0c7cb03b7d06e1ad9d754fedb7",
    "case1_A_grand": "4c4ebf2e26789ba711ce3dd479f99552d3662f611ebfd2a89aa56f164639bba6",
    "case1_B_fuzzy": "5892542d09d4e6e252d6e6e0a2e5955fe18dab335eaf5d19e66c75cf911be5af",
    "case1_B_noncoop": "fca576a6f9ecc8ca959e3c35d713cafa5a28ff3d3b6176cc205e688c65080578",
    "case1_B_grand": "d6426f1382ed65df77f4ef01e921eb6262bf2cb6f54fc9ee7a51537a6053d154",
    "case1_C_fuzzy": "3f4738374e4e2907b3a17be68c293fd687e6e2869595b45ddb98a4ddf9d2ab39",
    "case1_C_noncoop": "e8a4bc04049175ff7217fd099e049680532ffbb0675adb72f217fa1449fbb18f",
    "case1_C_grand": "bd093e9c6f4bfaf06a03bb4d7c3d2044f7fce9ee9f02fc1f364131bc1d2991a2",
    "case1_D_fuzzy": "91c9d0f84f71bbee08df3897ab82c8adf0be1887ea2332184efafcaa76cf7c3d",
    "case1_D_noncoop": "1d427399ddd7dbf94fc0ba66f9bc5066de43c483430d38020d8a0bccfd8d1a26",
    "case1_D_grand": "8c7c457e659fceb0b0319d9446aa3e1e2b19a5442503511b1625038be2cee935",
    "case1_E_fuzzy": "805c02d341e016f4fba683dc92da08aed8db9c44137a0be3f1fa56541c372dc3",
    "case1_E_noncoop": "ac14c34511b16fe625862c6aeb8237b33ee3465389093bb517f8425067ccf573",
    "case1_E_grand": "6bd349377b39c2377ef4c2b36f0c53b52b1cb7ac23d200eaf06159020bfbc85d",
    "case1_F_fuzzy": "54613b7916ae67d21432e7f1d1cc7f3319dc4abf6193c79be30955fbb73295fa",
    "case1_F_noncoop": "44b51fe77ea5016fc3b7e10c2f27b547916051690c5ffc985c981736bea0b2ae",
    "case1_F_grand": "c8ff1f1c664e6f20789967b6a396458ed1522e76db7c5a9e2a101f388bf88e90",
    "case2_fuzzy": "26ea5e88e0b744f08c9708fefa96b6e497cf5685657cb2384eac41ded6e307bc",
    "case2_noncoop": "b3a8615b2f5bde651b2a79f7b03cfde31846d6763a50ae0b631ec274ca1aed93",
    "case2_grand": "c2c4c5e79aac24d55d02ffe80148961e822683dcf64fd68f478c674414701e42",
    "case3_fuzzy": "356bfb7837db3f1a4b172efaa822c81b91b5bf526505dc2341adff079edd784c",
    "case3_noncoop": "7ea7212484a8c280d913870dfc7961bf73abdebed22e469d58b57e9fed7a6ff3",
    "case3_grand": "d32c6f1cced5b1540df82fa7a9d79bafde4e29e18e99bd8f1183292082ac1f3a",
    "case1_A_ungated": "49ab850574912bbf37f2f79de759522acdb73c53d1c08a13010a4c7c306d1f87",
    "case3_ungated": "8332e24915aa5e22c06c42f1d14275c83adbc403d9f541d48320ef83b4fecc4e",
    "dense_n8_seed1": "7643541c87c1b960f62391550b88ac56d47184ed1a430fef79df5b84e2916359",
    "dense_n12_seed1": "80c95e809da48a3a101b55f11321eb377c7b599fdb6b535cc03a1eaaf9f2cbf5",
    "dense_n12_seed1_grand": "4e80d097efdd0650b58df2c8c625224e691fd00cf9cf27acc4007a16f4e5bb14",
    "dense_n16_seed1": "a8071153f2e7a7a2729d12f3e4874327fa94b64412c281bfa978c118caf70e2b",
    "dense_n8_seed3": "450d425a207227e5a2d11fd94b819eb610404e683bd214a15992c12c04410235",
    "dense_n12_seed3": "36d4f81261cf3e7a040f7e8f3c07c8388353a1f88e29850c66bbfd44e09cc86d",
    "dense_n16_seed3": "cfd2c98c356ce69fc21e9dd0955090f9a3559ff6dba171bedf791cb83f5adcc6",
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
