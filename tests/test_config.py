"""Tolerance values: what an override may hold, and every knob is read."""

import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import xree
import xree.oracle
from xree.config import Tolerances

SRC = Path(__file__).resolve().parent.parent / "src"
# former fields, now constants of the one module that reads each
MADE_CONSTANTS = (
    "hermiticity", "coherence_slack", "family_sparsity", "cos_phi_min", "entanglement_margin",
    "branch_zero", "branch_equal", "series_z_switch", "quadratic_sign", "oracle_support_mix",
    "eig_hermitian_pre", "eigenvalue_clamp", "support_eigenvalue", "support_leak", "trace", "psd",
)


@pytest.mark.parametrize(
    "override",
    [
        pytest.param({"root_bisect_tol": 0}, id="zero-bisect-tol"),
        pytest.param({"root_bisect_tol": -1}, id="negative-bisect-tol"),
        pytest.param({"root_grid_points": "many"}, id="string-grid-points"),
        pytest.param({"root_grid_points": 2.5}, id="fractional-grid-points"),
        pytest.param({"root_grid_points": -5}, id="negative-grid-points"),
        pytest.param({"simplex": None}, id="null-simplex"),
        pytest.param({"branch_near_equal": 1e-8}, id="deleted-field"),
        pytest.param(dict.fromkeys(MADE_CONSTANTS, 1e-12), id="fields-made-constants"),
    ],
)
def test_bad_override_exits_invalid_without_hanging(tmp_path, override):
    # a subprocess with a timeout: a bisection that never stops fails here
    # instead of hanging the suite
    path = tmp_path / "tols.json"
    path.write_text(json.dumps(override))
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "xree.cli", "compute", "--family", "rains"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, REE_TOL_OVERRIDE=str(path)),
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: REE_TOL_OVERRIDE: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("root_bisect_tol", 0.0),
        ("root_bisect_tol", -1e-13),
        ("root_grid_points", 0),
        ("root_grid_points", 2000.0),
        ("root_grid_points", True),
        ("y_edge", True),
        ("edge_validation", "1e-10"),
        ("residual_validation", float("nan")),
        ("edge_validation", float("inf")),
        pytest.param("y_edge", 10**400, id="y_edge-int-beyond-double"),
    ],
)
def test_constructor_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: value})


def test_zero_and_negative_bounds_stay_legal():
    tol = Tolerances(
        residual_validation=0.0, root_value_cap=0.0, sign_residual=0.0, y_edge=-1e-3, simplex=0
    )
    assert tol.y_edge == -1e-3
    assert dataclasses.replace(tol, root_grid_points=1).root_grid_points == 1


def test_every_tolerance_is_read_outside_config():
    code = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((SRC / "xree").glob("*.py"))
        if path.name != "config.py"
    )
    unread = [
        f.name for f in dataclasses.fields(Tolerances) if not re.search(rf"\.{f.name}\b", code)
    ]
    assert unread == []


def test_fields_made_constants_are_unknown(tmp_path):
    path = tmp_path / "tols.json"
    path.write_text(json.dumps(dict.fromkeys(MADE_CONSTANTS, 1e-12)))
    with pytest.raises(ValueError) as err:
        Tolerances.from_file(str(path))
    assert str(err.value) == "unknown tolerance fields: " + ", ".join(sorted(MADE_CONSTANTS))
    assert len(dataclasses.fields(Tolerances)) == 9


# the compute path takes tolerances as an argument; everything else reads
# default_tolerances(), so REE_TOL_OVERRIDE still reaches it
COMPUTE_PATH = (
    xree.compute_ree, xree.compute_ree_many, xree.solve_theorem1, xree.solve_theorem2,
    xree.solve_theorem3, xree.css_residuals, xree.css_to_x_params, xree.x_state,
)
NO_TOL = (
    xree.DensityMatrix.from_matrix, xree.binary_entropy, xree.to_density_matrix,
    xree.from_density_matrix, xree.x_state_from_bloch, xree.named_state,
    xree.css_to_density_matrix, xree.closed_form_family_ree,
    xree.oracle.separable_x_decomposition, xree.oracle_ree, xree.oracle_validate,
)


def test_only_the_compute_path_takes_tol():
    def takes_tol(fn):
        return "tol" in inspect.signature(fn).parameters

    assert [fn.__qualname__ for fn in COMPUTE_PATH if not takes_tol(fn)] == []
    assert [fn.__qualname__ for fn in NO_TOL if takes_tol(fn)] == []
