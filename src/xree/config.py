"""Numerical tolerances that callers may set.

The frozen dataclass holds the 9 thresholds that something outside their
reading module sets, and a JSON file named by the REE_TOL_OVERRIDE
environment variable may override any of them. The tests pass them to the
compute path (compute_ree, compute_ree_many, solve_theorem1/2/3,
css_residuals, css_to_x_params, x_state) as tol, setting the validation
and solver bounds and simplex one at a time (a negative simplex fails the
CSS check of a solution); the benchmark sets root_grid_points. Any other
reader calls default_tolerances(). simplex, the slack of input weights,
is read in three modules. A threshold nothing sets is a constant of the
one module that reads it, and an override file naming one exits as an
unknown field.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass

_ENV_VAR = "REE_TOL_OVERRIDE"


@dataclass(frozen=True)
class Tolerances:
    # slack of input populations and weights; the tests set it on the CSS check
    simplex: float = 1e-12

    # solver bounds, set by the tests; the benchmark sets root_grid_points
    sign_residual: float = 1e-8
    root_grid_points: int = 2000
    root_bisect_tol: float = 1e-13
    root_value_cap: float = 1e-6

    # solution validation, set by the tests
    residual_validation: float = 1e-8
    edge_validation: float = 1e-9
    dual_path_validation: float = 1e-9
    y_edge: float = 1e-10

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # nan, inf and ints too large for a double all fail the bound
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max
            ):
                raise ValueError(f"tolerance {f.name} must be a finite number, got {value!r}")
        if not isinstance(self.root_grid_points, int) or self.root_grid_points < 1:
            raise ValueError(
                f"root_grid_points must be an integer >= 1, got {self.root_grid_points!r}"
            )
        if self.root_bisect_tol <= 0:  # bisection would never stop
            raise ValueError(f"root_bisect_tol must be positive, got {self.root_bisect_tol!r}")

    @classmethod
    def from_file(cls, path: str) -> "Tolerances":
        """Build tolerances from a JSON file holding a subset of fields."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"tolerance file {path} does not hold a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown tolerance fields: {', '.join(unknown)}")
        return cls(**raw)


_cached: Tolerances | None = None


def default_tolerances() -> Tolerances:
    """Return the process-wide tolerances, honoring REE_TOL_OVERRIDE."""
    global _cached
    if _cached is None:
        path = os.environ.get(_ENV_VAR)
        _cached = Tolerances.from_file(path) if path else Tolerances()
    return _cached


def reset_tolerance_cache() -> None:
    """Drop the cached tolerances (re-reads the environment on next use)."""
    global _cached
    _cached = None
