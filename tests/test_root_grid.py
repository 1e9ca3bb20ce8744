"""The Theorem 3 root grid: many states per array pass, feasible windows only.

`ree._t3_grid` ends each state's window of its r1 grid at the closed-form
end of its feasible r1 (the `end` column of `ree._t3_table`), values the
reduction on the windows of several states in one pass, and reads the
brackets off neighbouring points. Every bracket must be the one a state's
own full (2, G) grid gives, bit for bit and in the same order, and a pass
must stay bounded by reduction points, not by the number of states.
"""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import xree.ree as ree_module
from xree import compute_ree_many, default_tolerances, x_state
from xree.cli import main
from xree.ree import BRANCH_FAILURE, BRANCH_THEOREM3, CHUNK, GRID_BLOCK_POINTS
from xree.states import XStateParams

from conftest import random_entangled_params, random_separable_params

# a1 + a4 = 1 leaves no r1 interval: hi = 0.5 < lo = 0.5 + 1e-12
EMPTY_SPAN = XStateParams(0.5, 0.0, 0.0, 0.5, 0.0)
# with a2 = a3 and d = 0, gamma = -16 a1 a4 - 16 (2 a1 + a2 + a3 + 2 a4)(r1 - a1) < 0,
# so its end lies below a1
NO_FEASIBLE_POINT = XStateParams(0.2, 0.3, 0.3, 0.2, 0.0)


def constants(p):
    """The one-column Theorem 3 table of p, as _T3Constants."""
    return ree_module._T3Constants(*ree_module._t3_table([p]))


def reference_brackets(p, tol):
    """One state's brackets (a, b, fa, sign) by its own (2, G) grid.

    A bracket is a grid cell with finite values at both ends and a sign
    change or a zero at its left end; rows are sign +1 then -1, r1
    ascending, and a zero at the left end gives the zero-width [a, a].
    """
    lo = p.a1 + 1e-12
    hi = 0.5 * (1.0 + p.a1 - p.a4)
    if hi <= lo:
        return [np.empty(0)] * 4
    grid = np.linspace(lo, hi, tol.root_grid_points)
    signs = np.array([[1.0], [-1.0]])
    vals = ree_module._t3_equation(grid, signs, constants(p))
    finite = np.isfinite(vals)
    both = finite[:, :-1] & finite[:, 1:]
    change = both & (vals[:, :-1] * vals[:, 1:] < 0.0)
    rows, cells = np.nonzero(change | (both & (vals[:, :-1] == 0.0)))
    a = grid[cells]
    b = np.where(change[rows, cells], grid[cells + 1], a)
    return [a, b, vals[rows, cells], signs[rows, 0]]


def assert_same_brackets(ps, got, tol):
    """got = (a, b, fa, sign, ...) equals the states' references in order.

    Returns the reference bracket count of each state.
    """
    want = [reference_brackets(p, tol) for p in ps]
    for j, name in enumerate(("a", "b", "fa", "sign")):
        joined = np.concatenate([np.empty(0)] + [w[j] for w in want])
        assert got[j].dtype == joined.dtype and got[j].tobytes() == joined.tobytes(), name
    return [len(w[0]) for w in want]


def assert_same_block_brackets(ps, got, tol):
    """As assert_same_brackets, and owner = got[4] names each bracket's state."""
    counts = assert_same_brackets(ps, got, tol)
    assert got[4].tolist() == np.repeat(np.arange(len(ps)), counts).tolist()


def block_brackets(ps, tol):
    return ree_module._t3_grid(ree_module._t3_table(ps), tol)


def recorded_passes(monkeypatch):
    """Patch the reduction into ree; returns the list of (states, width) of its window passes."""
    passes = []
    real = ree_module._t3_equation

    def recording(r1, sign, c):
        if np.ndim(r1) == 2:  # a bisection level values a 1-d array
            passes.append(np.shape(r1))
        return real(r1, sign, c)

    monkeypatch.setattr(ree_module, "_t3_equation", recording)
    return passes


def full(passes):
    """Whether each (states, width) pass holds as many states as GRID_BLOCK_POINTS allows."""
    return [states == max(1, GRID_BLOCK_POINTS // (2 * width)) for states, width in passes]


def theorem3_states(seed, count):
    rng = np.random.default_rng(seed)
    return [random_entangled_params(rng, BRANCH_THEOREM3) for _ in range(count)]


def grid_tolerances(points):
    return replace(default_tolerances(), root_grid_points=points)


@pytest.mark.parametrize("points", [37, 200, 2000])
def test_block_grid_equals_each_state_alone(points, monkeypatch):
    tol = grid_tolerances(points)
    passes = recorded_passes(monkeypatch)
    block_brackets(theorem3_states(points, 1), tol)
    # the states a pass of windows as wide as the first state's holds; the
    # first pass holds no more, as it takes the widest window
    per_pass = max(1, GRID_BLOCK_POINTS // (2 * passes.pop()[1]))
    states = theorem3_states(points, 2 * per_pass + 1) + [EMPTY_SPAN, NO_FEASIBLE_POINT]
    states = [states[i] for i in np.random.default_rng(points).permutation(len(states))]
    got = block_brackets(states, tol)
    # full window passes, then one partial pass
    assert len(passes) >= 2 and full(passes) == [True] * (len(passes) - 1) + [False]
    assert len(got[0]) > len(states) // 2
    assert_same_block_brackets(states, got, tol)


def test_the_special_states_have_no_brackets():
    tol = default_tolerances()
    c = constants(EMPTY_SPAN)
    assert c.hi[0] <= c.lo[0]
    c = constants(NO_FEASIBLE_POINT)
    assert c.end[0] < c.lo[0]
    grid = np.linspace(c.lo[0], c.hi[0], tol.root_grid_points)
    assert np.isnan(ree_module._t3_equation(grid, np.array([[1.0], [-1.0]]), c)).all()
    for p in (EMPTY_SPAN, NO_FEASIBLE_POINT):
        assert [len(v) for v in block_brackets([p], tol)] == [0] * 5


def test_zero_on_a_grid_point_and_nan_next_to_finite_values(monkeypatch):
    tol = grid_tolerances(200)
    states = theorem3_states(9, 11)
    # the first sign-change cell [r, s] of sign +1 of two states: in one, f
    # becomes 0 at r (a zero-width bracket [r, r]); the other loses s
    found = [k for k, p in enumerate(states) if 1.0 in reference_brackets(p, tol)[3]]
    assert len(found) >= 2
    zeroed, cut = found[0], found[-1]
    zero = reference_brackets(states[zeroed], tol)[0][0]
    lost = reference_brackets(states[cut], tol)[1][0]
    real = ree_module._t3_equation

    def reduction(r1, sign, p):
        f = real(r1, sign, p)
        f = np.where((r1 == zero) & (sign > 0.0) & np.isfinite(f), 0.0, f)
        return np.where(r1 == lost, np.nan, f)

    monkeypatch.setattr(ree_module, "_t3_equation", reduction)
    got = block_brackets(states, tol)
    assert_same_block_brackets(states, got, tol)
    at_zero = (got[0] == zero) & (got[4] == zeroed)
    assert at_zero.sum() == 1 and got[1][at_zero][0] == zero and got[2][at_zero][0] == 0.0
    assert not ((got[1] == lost) & (got[4] == cut)).any()


def test_cells_stay_inside_one_grid_row(monkeypatch):
    # with d far above sqrt(a2 a3), k^2 < 256 d^2 puts end at inf, so the
    # window is the whole row, and the last point of one state's row is
    # next to the first of the next
    state = XStateParams(0.1, 0.4, 0.4, 0.1, 5.0)
    tol = grid_tolerances(200)
    assert constants(state).end[0] == math.inf

    def reduction(r1, sign, p):
        return np.broadcast_to(r1 - 0.3, np.broadcast_shapes(np.shape(r1), np.shape(sign)))

    monkeypatch.setattr(ree_module, "_t3_equation", reduction)
    got = block_brackets([state] * 3, tol)
    assert_same_block_brackets([state] * 3, got, tol)
    assert got[4].tolist() == [0, 0, 1, 1, 2, 2]


def test_chunks_bisect_the_brackets_of_their_states(monkeypatch):
    # mixed branches, so the Theorem 3 states of a chunk end in a partial
    # window pass, some after a full one
    rng = np.random.default_rng(21)
    states = [random_separable_params(rng) for _ in range(10)]
    for kind, count in (("theorem1", 25), ("theorem2", 25), ("theorem3", 75)):
        states += [random_entangled_params(rng, kind) for _ in range(count)]
    states.append(x_state(0.04, 0.38, 0.40, 0.18, 0.33))
    states = [states[i] for i in rng.permutation(len(states))]
    solve, bisect = ree_module._solve_theorem3_many, ree_module._bisect_t3
    calls = []
    passes = recorded_passes(monkeypatch)
    chunk_passes = []

    def solving(ps, tol):
        calls.append([ps])
        chunk_passes.append(len(passes))
        return solve(ps, tol)

    def bisecting(a, b, fa, sign, table, tol):
        calls[-1].append((a, b, fa, sign))
        return bisect(a, b, fa, sign, table, tol)

    monkeypatch.setattr(ree_module, "_solve_theorem3_many", solving)
    monkeypatch.setattr(ree_module, "_bisect_t3", bisecting)
    monkeypatch.setattr(ree_module, "CHUNK", 32)  # so the states span five chunks
    compute_ree_many(states)
    assert len(calls) == math.ceil(len(states) / 32)
    # each chunk's window passes: full ones, then one partial pass
    chunk_passes = [full(passes[i:j]) for i, j in zip(chunk_passes, chunk_passes[1:] + [None])]
    assert all(kinds == [True] * (len(kinds) - 1) + [False] for kinds in chunk_passes)
    assert any(len(kinds) > 1 for kinds in chunk_passes)
    tol = default_tolerances()
    for ps, brackets in calls:
        assert_same_brackets(ps, brackets, tol)


def test_peak_memory_is_bounded_by_grid_points():
    # one state per pass at this grid, so 32 states peak about as high as
    # the largest of them alone; a pass over the chunk would hold 32 grids
    tol = grid_tolerances(200000)
    states = theorem3_states(31, 32)

    def peak(ps):
        tracemalloc.start()
        try:
            compute_ree_many(ps, tol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = max(peak([p]) for p in states)
    assert peak(states) <= 1.5 * alone


def test_scan_values_each_grid_block_in_one_call(monkeypatch, capsys):
    # one reduction call per window block of states and one per bisection
    # level per chunk
    seen = []
    real = ree_module._t3_equation

    def counting(r1, sign, p):
        seen.append(np.shape(r1))
        return real(r1, sign, p)

    monkeypatch.setattr(ree_module, "_t3_equation", counting)
    grid = os.path.join(os.path.dirname(__file__), "..", "grids", "baseline_line.json")
    assert main(["scan", "--grid", grid]) == 0
    branches = [row.split(",")[5] for row in capsys.readouterr().out.split("\n")[1:-1]]
    assert len(branches) == 400
    tol = default_tolerances()
    passes = [shape for shape in seen if len(shape) == 2]  # (states, window width)
    # a pass of several states holds at most GRID_BLOCK_POINTS reduction
    # points, both signs counted; the line's windows are 389 to 458 points
    # wide, so 17 to 20 states share a full pass and the line takes 22
    assert all(2 * states * width <= GRID_BLOCK_POINTS for states, width in passes)
    assert len(passes) == 22 and max(states for states, _ in passes) >= 17
    # the halvings that take a cell of the widest r1 grid, 0.5 long, to tol
    levels = math.ceil(math.log2(0.5 / (tol.root_grid_points - 1) / tol.root_bisect_tol))
    assert len(seen) - len(passes) <= levels * math.ceil(400 / CHUNK)
    assert (branches.count(BRANCH_THEOREM3), branches.count(BRANCH_FAILURE)) == (288, 112)


def edge_state(family, rng):
    """A state near one edge of the general case, drawn until d has room.

    near_symmetric: |a2 - a3| from 1e-11 to 1e-3; outer_product: a1 a4 -> 0;
    near_separable: d -> sqrt(a1 a4) from above; near_psd_edge: d ->
    sqrt(a2 a3) from below; slack: d at sqrt(a2 a3 + 1e-12) or 0.9e-12 inside
    that bound, with |a2 - a3| from 1e-12 to 1e-3 and outer populations at
    the branch thresholds, where k^2 - 256 d^2 reaches 0.
    """
    while True:
        a = rng.dirichlet(np.ones(4))
        if family == "slack":
            a[0], a[3] = rng.choice([0.0, 1e-12, 1.01e-12, 1e-9, a[0]], 2)
            mid, gap = 0.5 * (1.0 - a[0] - a[3]), 10.0 ** rng.uniform(-12, -3)
            a[1], a[2] = mid + 0.5 * gap, mid - 0.5 * gap
        elif family == "near_symmetric":
            mid, gap = 0.5 * (a[1] + a[2]), 10.0 ** rng.uniform(-11, -3)
            a[1], a[2] = mid + 0.5 * gap, mid - 0.5 * gap
        elif family == "outer_product":
            a[rng.choice([0, 3])] *= 10.0 ** rng.uniform(-12, -4)
            a /= a.sum()
        a1, a2, a3, a4 = (float(v) for v in a)
        low, high = math.sqrt(a1 * a4), math.sqrt(a2 * a3)
        if a2 <= 0.0 or a3 <= 0.0 or high <= low * (1.0 + 1e-9):
            continue
        eps = 10.0 ** rng.uniform(-12, -2)
        if family == "slack":
            p = XStateParams(a1, a2, a3, a4, math.sqrt(a2 * a3 + rng.choice([1e-12, 0.9e-12])))
            if ree_module._branch_of(p) == BRANCH_THEOREM3:
                return p
            continue
        if family == "near_separable":
            d = low * (1.0 + eps) if low > 0.0 else high * eps
        elif family == "near_psd_edge":
            d = high * (1.0 - eps)
        else:
            d = low + rng.uniform(0.0, 1.0) * (high - low)
        if low < d < high:
            return XStateParams(a1, a2, a3, a4, d)


EDGE_FAMILIES = ("near_symmetric", "outer_product", "near_separable", "near_psd_edge", "slack")
# states per edge family at each grid size: 5 * 2945 = 14725 state-grids
EDGE_STATES = {
    1: 500, 2: 500, 3: 500, 17: 500, 37: 500, 200: 300, 2000: 120, 20001: 15, 200000: 10,
}
# a slack state with k^2 = 256 d^2 in doubles, so end = inf
FLAT_GAMMA = XStateParams(1e-12, 0.5000000000000001, 0.4999999999990001, 0.0, 0.5000000000005)


@pytest.mark.parametrize("points", sorted(EDGE_STATES))
def test_window_brackets_equal_the_full_grid_near_the_edges(points):
    # every state's brackets must still be those of its own full grid, also
    # where the feasible run is a few points long or the whole row
    rng = np.random.default_rng(points)
    tol = grid_tolerances(points)
    states = [edge_state(f, rng) for f in EDGE_FAMILIES for _ in range(EDGE_STATES[points])]
    states.append(FLAT_GAMMA)
    got = block_brackets(states, tol)
    assert_same_block_brackets(states, got, tol)
    if points >= 17:  # coarser grids find no bracket at all
        assert len(got[0]) >= len(states) // 10
