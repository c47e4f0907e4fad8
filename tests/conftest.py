"""One run cache for the whole session.

A simulation is deterministic in its scenario text, mode and gating, so
each distinct run is made once and every test that asks for it reads the
same result; the golden digests and the acceptance criteria share the
shipped runs this way.  Tests that must see a run of their own (a
monkeypatched solver, a determinism check that runs twice, a fresh
interpreter) call `run` or the CLI directly.
"""

import pytest

from intersection_game.runner import run
from intersection_game.scenario import load_scenario


@pytest.fixture(scope="session")
def simulate(tmp_path_factory):
    """`simulate(text, mode=None, risk_gating=True)`: the run of scenario
    `text`, cached by (text, mode, gating), a mode of None standing for
    fuzzy, as it does for `run`.  A text without a `name` runs under the name
    `scenario`, as `scripts/identity_matrix.py` runs it.  Treat the result
    as read-only: other tests read it too."""
    cfg = tmp_path_factory.mktemp("simulate") / "scenario.cfg"
    runs = {}

    def simulate(text, mode=None, risk_gating=True):
        cfg.write_text(text, encoding="utf-8")
        sc = load_scenario(cfg)
        key = (text, "fuzzy" if mode is None else mode, risk_gating)
        if key not in runs:
            runs[key] = run(sc, mode=mode, risk_gating=risk_gating)
        return runs[key]

    return simulate
