"""Centralized numerical tolerances.

Every threshold used by the library lives in one frozen dataclass so that
reproducibility experiments can override the whole knob surface from a
single JSON file (see the REE_TOL_OVERRIDE environment variable).
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
    # state validation
    hermiticity: float = 1e-12
    trace: float = 1e-12
    psd: float = 1e-10
    simplex: float = 1e-12
    coherence_slack: float = 1e-12
    family_sparsity: float = 1e-10
    cos_phi_min: float = 1e-9

    # eigensolver input check and entropy eigenvalue cut-off
    eig_hermitian_pre: float = 1e-10
    eigenvalue_clamp: float = 1e-15

    # relative entropy support handling
    support_eigenvalue: float = 1e-12
    support_leak: float = 1e-10

    # classification and branch routing
    entanglement_margin: float = 1e-14
    branch_zero: float = 1e-12
    branch_equal: float = 1e-12

    # solver internals
    series_z_switch: float = 1e-6
    quadratic_sign: float = 1e-10
    sign_residual: float = 1e-8
    root_grid_points: int = 2000
    root_bisect_tol: float = 1e-13
    root_value_cap: float = 1e-6

    # solution validation
    residual_validation: float = 1e-8
    edge_validation: float = 1e-9
    dual_path_validation: float = 1e-9
    y_edge: float = 1e-10

    # oracle
    oracle_support_mix: float = 1e-9

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
