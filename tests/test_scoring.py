"""One REE evaluator: every branch scores its CSS with ree_from_css."""

import json
import math

import numpy as np
import pytest

from xree import compute_ree, from_density_matrix, named_state, ree_from_css, x_state
from xree.cli import EXIT_ANSATZ_FAILURE, EXIT_OK, main
from xree.ree import BRANCH_FAILURE, BRANCH_THEOREM1, BRANCH_THEOREM2

from conftest import random_entangled_params

# a1 of the pure-middle-block theorem2 states x_state(a1, b, b, 0, b),
# b = (1 - a1)/2, whose closed-form CSS rounds to a non-PSD middle block
EDGE_A1 = (3e-7, 1e-8, 2e-12)


def edge_state(a1):
    b = (1.0 - a1) / 2.0
    return x_state(a1, b, b, 0.0, b)


@pytest.mark.parametrize("branch", [BRANCH_THEOREM1, BRANCH_THEOREM2])
def test_branch_ree_is_ree_from_css(branch):
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = random_entangled_params(rng, branch)
        result = compute_ree(p)
        assert result.branch == branch
        assert result.ree == ree_from_css(p, result.css)


def test_bell_state_is_ln2():
    result = compute_ree(from_density_matrix(named_state("vp", 1.0, 0.0, 0.0)))
    assert result.branch == BRANCH_THEOREM1
    assert abs(result.ree - math.log(2.0)) <= 1e-15


@pytest.mark.parametrize("a1", EDGE_A1)
def test_non_psd_theorem2_css_is_an_ansatz_failure(a1):
    result = compute_ree(edge_state(a1))
    assert result.branch == BRANCH_FAILURE
    assert result.ree is None and result.css is None
    assert result.diagnostics.startswith("theorem2 solution failed validation")


def test_cli_exits_ansatz_failure(capsys):
    p = edge_state(1e-8)
    params = ",".join(repr(v) for v in (p.a1, p.a2, p.a3, p.a4, p.d))
    code = main(["compute", "--params", params])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_ANSATZ_FAILURE
    assert doc["branch"] == BRANCH_FAILURE


def test_scan_keeps_the_failing_row(tmp_path, capsys):
    p = edge_state(1e-8)
    grid = tmp_path / "grid.json"
    axes = {"a1": p.a1, "a2": p.a2, "a3": p.a3, "a4": 0.0, "d": [0.3, p.d]}
    grid.write_text(json.dumps({"mode": "raw", "axes": axes}))
    code = main(["scan", "--grid", str(grid)])
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert code == EXIT_OK
    assert [row.split(",")[5] for row in rows] == [BRANCH_THEOREM2, BRANCH_FAILURE]
