"""Measure how far each step's controls are from a best response.

    PYTHONPATH=src python3 scripts/br_gap.py

The probe runs the shipped scenarios (scenarios/*.cfg) and the 3.5 s
layouts of perfbench/dense.py at seed 1, all in fuzzy mode.  Each step's
controls are the cyclic best response's answer.  The probe asks, for
every player not braking on the fallback path, how much lower a finer
search could push the objective that `_Vehicle._best_response`
ranks (its loss pooled at p_i, or at 0 for a member none of whose
dependents pools) while every other vehicle keeps its final control.

`probed()` wraps `_StepSolver.solve`.  After a step's solution is built,
it ranks each player's final control and runs a reference search against
the others' final controls:

- it ranks the player's seed grid, the final control and a 17 x 33 grid
  over the jerk-limited acceleration box and the steering box;
- from the best of those, and from the final control, it runs the
  8-direction pattern search, halving its steps from 0.05 m/s^2 and 1 deg
  down to 1e-5 m/s^2 and 2e-6 rad.

The gap of a player-step is (J_final - J_ref) / max(|J_final|, 1e-9),
J being the ranked objective, so 0 means no control the reference found
beats the final one.  A final control that breaks a constraint has no
gap; the probe counts those for which the reference finds a feasible
control (`rescued`).  Each run prints the player-steps probed, the largest
and the 99th-percentile gap and that count, then the work that bought
them: the fresh best-response searches (the `_best_response` calls that
rank a candidate, not replay an answer) and the rankings per search (the
steps' `evals` over those searches).  A line `shipped` then pools the
shipped runs and a line `dense` the dense ones.  The exit code is 1 when a set's largest gap exceeds GAP_TOL or a
player-step is rescued, else 0.

The probe ranks through each player's own `_Vehicle._rank`, after the
solution is built, and restores the step's `evals` and `lateral_evals`:
a probed run emits the same bytes as an unprobed one.
"""

import contextlib
import importlib.util
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from intersection_game.game import STEER_BOX, _StepSolver, _Vehicle
from intersection_game.runner import run
from intersection_game.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
GRID_A, GRID_D = 17, 33  # reference grid over the acceleration box x the steering box
FINE_A, FINE_D = 1e-5, 2e-6  # the reference pattern's last step sizes
DENSE_SEED = 1  # the seed of the dense layouts probed
# largest relative gap a player-step may keep, fixed before the search was
# first made coarser
GAP_TOL = 3e-5
_POLLS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def player_gap(player: _Vehicle) -> tuple[float | None, bool]:
    """(gap, rescued) of a player against the others' current controls:
    the gap is None where its control is infeasible, and rescued says the
    reference then found a feasible one."""
    p_i = player._ranked_p(player.p)
    _, scored, table = player._scored_for()
    a_lo, a_hi, seeds = player._grid
    memo: dict[tuple[float, float], tuple] = {}
    held = False  # a feasible control is known, as in `_best_response`

    def rank(control: tuple[float, float]) -> tuple:
        nonlocal held
        key = memo.get(control)
        if key is None:
            key = memo[control] = player._rank(*control, p_i, scored, table, held)
            held = held or key[0] == 0.0
        return key

    def pattern(ba: float, bd: float) -> tuple:
        bkey = rank((ba, bd))
        da, dd = 0.05, math.radians(1.0)
        while da > FINE_A or dd > FINE_D:
            best = None
            for sa, sd in _POLLS:
                na = min(max(ba + sa * da, a_lo), a_hi)
                nd = min(max(bd + sd * dd, -STEER_BOX), STEER_BOX)
                if (na, nd) != (ba, bd):
                    key = rank((na, nd))
                    if best is None or key < best[0]:
                        best = (key, na, nd)
            if best is not None and best[0] < bkey:
                bkey, ba, bd = best
            else:
                da *= 0.5
                dd *= 0.5
        return bkey

    final = player.control
    final_key = rank(final)
    grid = [
        (a_lo + ka * (a_hi - a_lo) / (GRID_A - 1), -STEER_BOX + kd * 2.0 * STEER_BOX / (GRID_D - 1))
        for ka in range(GRID_A)
        for kd in range(GRID_D)
    ]
    start = min([*seeds, *grid, final], key=rank)
    ref_key = min(pattern(*start), pattern(*final))
    if final_key[0] != 0.0:
        return None, ref_key[0] == 0.0
    return (final_key[1] - ref_key[1]) / max(abs(final_key[1]), 1e-9), False


@dataclass
class Probe:
    """What the solved steps of a probed block add up to."""

    records: list[tuple[float | None, bool]] = field(default_factory=list)  # (gap, rescued) per player-step
    searches: int = 0  # fresh best-response searches, the `_best_response` calls that rank
    rankings: int = 0  # the steps' `evals`


@contextlib.contextmanager
def probed():
    """Within the block, every solved step appends (gap, rescued) of each
    player off the fallback path to the yielded probe's `records` and adds
    its searches and rankings to the probe's totals."""
    probe = Probe()
    real_solve, real_search = _StepSolver.solve, _Vehicle._best_response

    def search(self, *args):
        evals = self.solver.evals
        found = real_search(self, *args)
        probe.searches += self.solver.evals > evals
        return found

    def solve(self):
        sol = real_solve(self)
        evals, lateral = self.evals, self.lateral_evals
        probe.rankings += evals
        probe.records.extend(player_gap(v) for v in self.players if not v.emergency)
        self.evals, self.lateral_evals = evals, lateral
        return sol

    _StepSolver.solve, _Vehicle._best_response = solve, search
    try:
        yield probe
    finally:
        _StepSolver.solve, _Vehicle._best_response = real_solve, real_search


def summary(records: list[tuple[float | None, bool]]) -> dict:
    """Player-steps probed, the largest and the nearest-rank 99th
    percentile of their gaps, and the rescued count."""
    gaps = sorted(g for g, _ in records if g is not None)
    return {
        "player_steps": len(records),
        "max": gaps[-1] if gaps else 0.0,
        "p99": gaps[math.ceil(0.99 * len(gaps)) - 1] if gaps else 0.0,
        "rescued": sum(rescued for _, rescued in records),
    }


def _jobs() -> list[tuple[str, list[tuple[str, str]]]]:
    """(set name, [(run name, scenario text)]) for the shipped scenarios and
    the dense layouts of DENSE_SEED."""
    spec = importlib.util.spec_from_file_location("identity_matrix", Path(__file__).with_name("identity_matrix.py"))
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    dense = matrix.dense_module()
    shipped = [(path.stem, path.read_text(encoding="utf-8")) for path in sorted((ROOT / "scenarios").glob("*.cfg"))]
    layouts = [(f"dense_n{4 * k}_seed{DENSE_SEED}", dense.layout(k, DENSE_SEED)) for k in dense.PER_ARM]
    return [("shipped", shipped), ("dense", layouts)]


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.cfg"
        for set_name, jobs in _jobs():
            pooled = Probe()
            for name, text in jobs:
                cfg.write_text(text, encoding="utf-8")
                with probed() as probe:
                    run(load_scenario(cfg))
                _report(f"{name}_fuzzy", probe)
                pooled.records += probe.records
                pooled.searches += probe.searches
                pooled.rankings += probe.rankings
            s = _report(set_name, pooled)
            failed = failed or s["max"] > GAP_TOL or s["rescued"] > 0
    return 1 if failed else 0


def _report(name: str, probe: Probe) -> dict:
    s = summary(probe.records)
    print(
        f"{name}: player-steps {s['player_steps']}; max gap {s['max']:.3g}; p99 {s['p99']:.3g}; "
        f"rescued {s['rescued']}; searches {probe.searches}; "
        f"rankings/search {probe.rankings / max(probe.searches, 1):.1f}",
        flush=True,
    )
    return s


if __name__ == "__main__":
    raise SystemExit(main())
