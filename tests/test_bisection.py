"""The Theorem 3 root polish: every bracket bisected together.

`_bisect_t3` values the midpoints of all brackets still active in one
reduction call per bisection level; each root must equal plain
one-bracket-at-a-time bisection bit for bit, whatever the bracket width,
tolerance or nan placement, and a batch must take as many calls as its
longest bracket takes steps.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import xree.ree as ree_module
from xree.config import default_tolerances
from xree.cli import main
from xree.ree import (
    BRANCH_FAILURE, BRANCH_THEOREM3, CHUNK, _bisect_t3, _t3_equation,
    solve_theorem3,
)
from xree.states import RAINS_PARAMS

STEP_COUNTS = (1, 7, 8, 9, 31)


def scalar_bisection(f, a, b, fa, tol):
    """Plain bisection; returns the root and the midpoints it valued."""
    mids = []
    while b - a > tol:
        mid = 0.5 * (a + b)
        mids.append(mid)
        fm = f(mid)
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b), mids


def tolerances(bisect_tol):
    return dataclasses.replace(default_tolerances(), root_bisect_tol=bisect_tol)


def rains_table(k):
    """The Theorem 3 table of k copies of the Rains state, one column per bracket."""
    return ree_module._t3_table([RAINS_PARAMS] * k)


RAINS = ree_module._T3Constants(*rains_table(1))


def linear(r1, sign, p):
    return r1 - 0.3


def rains(r1, sign, p):
    return _t3_equation(r1, sign, p)


def counted(monkeypatch, reduction):
    """Patch the reduction into ree; returns the list of r1 arrays it got."""
    seen = []

    def counting(r1, sign, p):
        seen.append(np.array(r1))
        return reduction(r1, sign, p)

    monkeypatch.setattr(ree_module, "_t3_equation", counting)
    return seen


@pytest.mark.parametrize(
    "reduction, root, bisect_tol",
    [
        pytest.param(linear, 0.3, 1e-7, id="linear-1e-7"),
        pytest.param(linear, 0.3, 1e-13, id="linear-1e-13"),
        pytest.param(rains, 1.0 / 6.0, 1e-13, id="rains-1e-13"),
    ],
)
def test_brackets_of_every_step_count_in_one_call(monkeypatch, reduction, root, bisect_tol):
    # a width of 1.5 tol 2^(n-1) needs exactly n halvings to reach tol
    widths = [1.5 * bisect_tol * 2.0 ** (n - 1) for n in STEP_COUNTS]
    a = np.array([root - 0.37 * w for w in widths])
    b = np.array([root + 0.63 * w for w in widths])
    sign = np.ones(len(widths))
    fa = reduction(a, sign, RAINS)
    assert np.isfinite(fa).all()

    def f(r):
        return float(reduction(np.array([r]), np.array(1.0), RAINS)[0])

    seen = counted(monkeypatch, reduction)
    got = _bisect_t3(a, b, fa, sign, rains_table(len(a)), tolerances(bisect_tol))
    for k, n in enumerate(STEP_COUNTS):
        want, mids = scalar_bisection(f, float(a[k]), float(b[k]), float(fa[k]), bisect_tol)
        assert len(mids) == n
        assert got[k] == want
    # one call per level, on every bracket still active
    assert len(seen) == max(STEP_COUNTS)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.25, 0.5)])
def test_exact_zero_at_a_node_or_end(monkeypatch, a, b):
    # f vanishes at the midpoint 0.25; fa * f(mid) <= 0 then keeps the left half
    monkeypatch.setattr(ree_module, "_t3_equation", lambda r1, sign, p: r1 - 0.25)
    tol = default_tolerances()
    got = _bisect_t3(
        np.array([a]), np.array([b]), np.array([a - 0.25]), np.ones(1), rains_table(1), tol
    )
    want, _ = scalar_bisection(lambda r: r - 0.25, a, b, a - 0.25, tol.root_bisect_tol)
    assert got[0] == want


@pytest.mark.parametrize("visit", [0, 2, 7, 8, 11, -1])
def test_nan_on_the_walked_path_makes_the_root_nan(monkeypatch, visit):
    tol = default_tolerances()
    _, mids = scalar_bisection(lambda r: r - 0.3, 0.0, 1.0, -0.3, tol.root_bisect_tol)
    bad = mids[visit]

    def reduction(r1, sign, p):
        return np.where(r1 == bad, np.nan, r1 - 0.3)

    monkeypatch.setattr(ree_module, "_t3_equation", reduction)
    got = _bisect_t3(
        np.array([0.0]), np.array([1.0]), np.array([-0.3]), np.ones(1), rains_table(1), tol
    )
    assert math.isnan(got[0])


def test_zero_width_bracket_returns_its_end_without_a_call(monkeypatch):
    seen = counted(monkeypatch, linear)
    end = 0.1 + 0.2
    got = _bisect_t3(
        np.array([end]), np.array([end]), np.array([end - 0.3]), np.ones(1), rains_table(1),
        default_tolerances(),
    )
    assert got[0] == end
    assert seen == []


def test_rains_solve_makes_one_reduction_call_per_level(monkeypatch):
    # one for the grid and one for each of the 31 steps of its one bracket
    seen = counted(monkeypatch, _t3_equation)
    result = solve_theorem3(RAINS_PARAMS)
    assert result.branch == BRANCH_THEOREM3
    assert len(seen) == 32


def test_scan_polishes_each_chunk_together(monkeypatch, capsys):
    # one grid call per window pass, (states, width) points, and one call
    # per bisection level per chunk; a polish state by state makes about
    # 31 calls per state
    seen = counted(monkeypatch, _t3_equation)
    grid = os.path.join(os.path.dirname(__file__), "..", "grids", "baseline_line.json")
    assert main(["scan", "--grid", grid]) == 0
    branches = [row.split(",")[5] for row in capsys.readouterr().out.split("\n")[1:-1]]
    assert len(branches) == 400
    tol = default_tolerances()
    # the line's windows share 22 passes (tests/test_root_grid.py)
    passes = sum(r1.ndim == 2 for r1 in seen)
    assert passes == 22
    # the halvings that take a cell of the widest r1 grid, 0.5 long, to tol
    levels = math.ceil(math.log2(0.5 / (tol.root_grid_points - 1) / tol.root_bisect_tol))
    assert len(seen) <= passes + levels * math.ceil(400 / CHUNK)
    assert (branches.count(BRANCH_THEOREM3), branches.count(BRANCH_FAILURE)) == (288, 112)


def test_tolerance_below_double_spacing_still_stops(tmp_path):
    # below the spacing of doubles near the root the width never reaches
    # the tolerance; the bracket stops once its midpoint lands on an end
    override = tmp_path / "tol.json"
    override.write_text(json.dumps({"root_bisect_tol": 1e-20}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ree_module.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "xree.cli", "compute", "--family", "rains"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path, REE_TOL_OVERRIDE=str(override)),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["branch"] == BRANCH_THEOREM3
    assert abs(doc["css"]["r1"] - 1.0 / 6.0) < 1e-9


def stopping_bisection(f, a, b, fa, tol):
    """Plain bisection with the stop rules of _bisect_t3.

    It stops once halving no longer narrows [a, b] (the _splits test) and
    gives a nan root when it values nan at a midpoint. Returns the root
    and whether a midpoint it valued was an exact zero.
    """
    hit_zero = False
    while b - a > tol and a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if math.isnan(fm):
            return math.nan, hit_zero
        hit_zero |= fm == 0.0
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b), hit_zero


@pytest.mark.parametrize("bisect_tol", [1e-3, 1e-7, 1e-13, 1e-20])
def test_random_brackets_with_zeros_and_nans_in_one_call(monkeypatch, bisect_tol):
    # a polynomial with nine roots in [0, 1], so the wide brackets hold
    # several sign changes; only - and * enter, which round alike on
    # arrays and on Python floats
    rng = np.random.default_rng(20261019)
    roots = [float(z) for z in np.sort(rng.uniform(0.0, 1.0, 9))]

    def poly(r):
        value = 1.0
        for z in roots:
            value = value * (r - z)
        return value

    width = np.exp(rng.uniform(np.log(1e-12), 0.0, 400))
    width[:40] *= 1e-4
    a = rng.uniform(0.0, 1.0 - width)
    # forty narrow brackets hold a root a thousandth of their width from
    # one end, so their first walk goes to node 1 or node width - 1
    a[:40] = rng.choice(roots, 40) - width[:40] * np.repeat([1e-3, 1.0 - 1e-3], 20)
    b = a + width
    b[40:45] = a[40:45]  # zero-width brackets
    # exact zeros and nans at random midpoints a plain bisection of poly
    # values, and a nan at the eighth midpoint of half the edge brackets;
    # once a walk meets a zero, the points past it may lie off its new path
    zeros, nans = set(), set()
    for k, (lo, hi) in enumerate(zip(a.tolist(), b.tolist())):
        flo, step = poly(lo), 0
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            pick = rng.uniform()
            if step == 7 and k < 40:
                pick = 0.0 if k % 2 else 1.0
            if pick < 0.01:
                nans.add(mid)
            elif pick < 0.03:
                zeros.add(mid)
            if flo * poly(mid) <= 0.0:
                hi = mid
            else:
                lo, flo = mid, poly(mid)
            step += 1

    def f(r):
        return math.nan if r in nans else 0.0 if r in zeros else poly(r)

    def reduction(r1, sign, p):
        value = np.where(np.isin(r1, list(zeros)), 0.0, poly(np.asarray(r1, dtype=float)))
        return np.where(np.isin(r1, list(nans)), np.nan, value)

    fa = reduction(a, None, None)
    monkeypatch.setattr(ree_module, "_t3_equation", reduction)
    got = _bisect_t3(a, b, fa, np.ones(len(a)), rains_table(len(a)), tolerances(bisect_tol))
    kinds = set()
    for k in range(len(a)):
        want, hit_zero = stopping_bisection(f, float(a[k]), float(b[k]), float(fa[k]), bisect_tol)
        assert got[k] == want or (math.isnan(got[k]) and math.isnan(want)), k
        kinds.add("nan" if math.isnan(want) else "zero" if hit_zero else "plain")
    assert kinds == {"nan", "zero", "plain"}
