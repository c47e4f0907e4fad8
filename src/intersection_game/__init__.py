"""Deterministic simulator for connected vehicles negotiating an
unsignalized four-way intersection through a constrained coalitional
game with style-dependent participation."""

from .runner import emit, metrics, run
from .scenario import load_scenario

__version__ = "0.1.0"

__all__ = ["load_scenario", "run", "emit", "metrics"]
