"""In-memory tracing of the simulator's layers, installed from outside.

`Tracer.install()` replaces public functions of the simulator's modules
with timing wrappers, at the names the calling module looks them up by
(`runner.solve_step`, `game.integrate`, `network.Route.project`, ...), and
returns a function that puts the originals back.  Nothing inside the
package changes.

Every wrapped call adds to per-name totals (calls, inclusive seconds, self
seconds) and to per-(name, caller) call counts.  Self time is a span's
duration minus the time its wrapped children took.  The coarse spans
(scenario loads, runs, solves, emission) are also kept whole, with their
parent and the index of the run they belong to, so they can be written
out when the pass ends.  Wrapping every call costs time of its own; the
benchmark reports that overhead next to the traced numbers.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

from intersection_game import game, network, risk, runner, scenario

# (module or class, attribute, layer name)
_SITES = (
    (scenario, "load_scenario", "scenario.load_scenario"),
    (runner, "run", "runner.run"),
    (runner, "pair_conflicts", "runner.pair_conflicts"),
    (runner, "conflict_points", "network.conflict_points"),
    (runner, "classify_zone_role", "network.classify_zone_role"),
    (runner, "lead_distance_on_route", "network.lead_distance_on_route"),
    (runner, "build_field", "risk.build_field"),
    (runner, "tracking_delta", "game.tracking_delta"),
    (runner, "solve_step", "game.solve_step"),
    (runner, "integrate", "dynamics.step"),
    (runner, "emit", "runner.emit"),
    (runner, "metrics", "runner.metrics"),
    (game, "integrate", "dynamics.step"),
    (game, "tracking_delta", "game.tracking_delta"),
    (game, "stop_distance", "game.stop_distance"),
    (game, "brake_reach", "game.brake_reach"),
    (game, "follow_reach", "game.follow_reach"),
    (game, "following_risk", "costs.following_risk"),
    (game, "crossing_risk", "costs.crossing_risk"),
    (game, "efficiency", "costs.efficiency"),
    (game, "lane_keeping", "costs.lane_keeping"),
    (network.Route, "project", "network.Route.project"),
    (network, "element_crossings", "geometry.element_crossings"),
    (risk.GaussianField, "value", "risk.GaussianField.value"),
)

# spans kept whole; everything else is only aggregated
COARSE = frozenset(
    {"scenario.load_scenario", "runner.run", "runner.pair_conflicts", "game.solve_step", "runner.emit"}
)


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.by_caller: dict[tuple[str, str | None], list] = {}  # -> [calls, seconds]
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.presolve_s = 0.0
        self.solver_rk4_calls = 0
        self.solver_rk4_unique = 0
        self._stack: list[list] = []  # [name, child seconds, span id or None]
        self._coarse_ids: list[int] = []
        self._span_ids = itertools.count()
        self._run_index = -1
        self._run_t0: float | None = None
        self._step_keys: set = set()
        self._t_origin = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        stack = self._stack
        coarse_ids = self._coarse_ids
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        by_caller = self.by_caller
        clock = time.perf_counter
        coarse = name in COARSE

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            span_id = None
            if coarse:
                span_id = next(self._span_ids)
                coarse_ids.append(span_id)
            frame = [name, 0.0, span_id]
            caller = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                key = (name, caller)
                agg = by_caller.get(key)
                if agg is None:
                    by_caller[key] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur
                if coarse:
                    coarse_ids.pop()
                    parent = coarse_ids[-1] if coarse_ids else None
                    self.spans.append(
                        (span_id, parent, self._run_index, name, t0 - self._t_origin, t1 - self._t_origin)
                    )

        return traced

    def _on_run(self, _args) -> None:
        self._run_index += 1
        self._run_t0 = time.perf_counter()

    def _on_solve(self, _args) -> None:
        if self._run_t0 is not None:
            self.presolve_s += time.perf_counter() - self._run_t0
            self._run_t0 = None
        self._close_step()

    def _on_solver_rk4(self, args) -> None:
        st, u = args[0], args[1]
        self._step_keys.add((st.v_x, st.phi, st.x, st.y, u.a_x, u.delta_f))
        self.solver_rk4_calls += 1

    def _close_step(self) -> None:
        self.solver_rk4_unique += len(self._step_keys)
        self._step_keys = set()

    def install(self):
        """Wrap every site; return a function that restores the originals."""
        hooks = {
            (runner, "run"): self._on_run,
            (runner, "solve_step"): self._on_solve,
            (game, "integrate"): self._on_solver_rk4,
        }
        saved = []
        for owner, attr, name in _SITES:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hooks.get((owner, attr))))

        def restore() -> None:
            self._close_step()
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

        return restore

    # -- reporting --------------------------------------------------------

    def calls(self, name: str, caller: str | None = None) -> int:
        if caller is None:
            return self.totals.get(name, [0])[0]
        return self.by_caller.get((name, caller), [0])[0]

    def seconds(self, name: str, caller: str | None = None) -> float:
        if caller is None:
            return self.totals.get(name, [0, 0.0])[1]
        return self.by_caller.get((name, caller), [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def table(self) -> str:
        """Per-layer table: calls, inclusive and self seconds, by self time."""
        rows = sorted(self.totals.items(), key=lambda kv: -kv[1][2])
        lines = [f"{'layer':<34}{'calls':>12}{'s':>12}{'self_s':>12}"]
        for name, (calls, secs, self_s) in rows:
            lines.append(f"{name:<34}{calls:>12}{secs:>12.4f}{self_s:>12.4f}")
        return "\n".join(lines)

    def write(self, path: Path) -> None:
        """Coarse spans as JSON lines, then one line per (layer, caller)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, run_index, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps(
                    {"span": span_id, "parent": parent, "run": run_index, "name": name, "start": t0, "end": t1}
                ) + "\n")
            for (name, caller), (calls, secs) in sorted(self.by_caller.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
                fh.write(json.dumps({"layer": name, "caller": caller, "calls": calls, "s": secs}) + "\n")
