"""One run cache for the whole session, the `dense` layout generator, and
a derandomized hypothesis profile.

pytest puts `src/` and `scripts/` on the path (`pyproject.toml`), so the
tests import the package and the scripts by name; `perfbench/dense.py`
is no package, and the `dense` fixture takes the copy that
`scripts/identity_matrix.py`, the tools' one list of inputs, loads.

A simulation is deterministic in its scenario text, mode and gating, so
each distinct run is made once and every test that asks for it reads the
same result; the golden digests and the acceptance criteria share the
shipped runs this way.  Tests that must see a run of their own (a
monkeypatched solver, a determinism check that runs twice, a fresh
interpreter) call `run` or the CLI directly.

Every `@given` test draws the same examples on every run: the profile
seeds hypothesis from each test's own source, so a pass or a failure is
reproducible.
"""

import pytest
from hypothesis import settings

import identity_matrix
from intersection_game.runner import run
from intersection_game.scenario import load_scenario

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def simulate(tmp_path_factory):
    """`simulate(text, mode="fuzzy", risk_gating=True)`: the run of
    scenario `text`, cached by (text, mode, gating).  A text without a
    `name` runs under the name `scenario`, as `scripts/identity_matrix.py`
    runs it.  Treat the result as read-only: other tests read it too."""
    cfg = tmp_path_factory.mktemp("simulate") / "scenario.cfg"
    runs = {}

    def simulate(text, mode="fuzzy", risk_gating=True):
        cfg.write_text(text, encoding="utf-8")
        sc = load_scenario(cfg)
        key = (text, mode, risk_gating)
        if key not in runs:
            runs[key] = run(sc, mode=mode, risk_gating=risk_gating)
        return runs[key]

    return simulate


@pytest.fixture(scope="session")
def dense():
    """`perfbench/dense.py`, as `scripts/identity_matrix.py` loads it."""
    return identity_matrix.dense_module()
