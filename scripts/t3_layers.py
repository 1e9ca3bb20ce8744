#!/usr/bin/env python3
"""In-process timings of the Theorem 3 and closed-form layers.

Run from the root of a checkout (it imports xree from that checkout's src):

    python3 scripts/t3_layers.py --repeats 40

It times, interleaved round by round, three calls on the states of
grids/baseline_line.json:

  t3_grid_ms       ree._t3_grid on the table of the line's Theorem 3 states
  compute_many_ms  ree.compute_ree_many on the line's 400 states
  scan_ms          cli.main(["scan", "--grid", <the line>]), output discarded

and two per-state means over a fixed seeded mix of 48 theorem1, 48
theorem2 and 24 separable states, built here:

  closed_compute_us  ree.compute_ree, one call per state
  validated_us       ree._validated on each state's unvalidated branch
                     result, one call per state (the solvers do not run)

and prints one JSON object with each row's median, quartiles and the
number of rounds. Two checkouts are compared by running the script in
each, alternately, on the same machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from xree import cli, ree  # noqa: E402
from xree.config import default_tolerances  # noqa: E402

GRID = ROOT / "grids" / "baseline_line.json"
CLOSED_SEED = 26


def closed_form_states():
    """48 theorem1, 48 theorem2 and 24 separable states, shuffled; every run draws the same."""
    rng = random.Random(CLOSED_SEED)

    def draw(branch):
        while True:
            w = [rng.expovariate(1.0) for _ in range(4)]
            if branch == ree.BRANCH_THEOREM1:
                w[0] = w[3] = 0.0
            elif branch == ree.BRANCH_THEOREM2:
                w[1] = w[2] = 0.5 * (w[1] + w[2])
            total = math.fsum(w)  # correctly rounded on every Python version
            a1, a2, a3, a4 = (v / total for v in w)
            lo, hi = math.sqrt(a1 * a4), math.sqrt(a2 * a3)
            if branch == ree.BRANCH_SEPARABLE:
                d = rng.uniform(0.0, 1.0) * min(lo, hi)
            elif hi > 1.05 * lo:
                d = lo + rng.uniform(0.05, 0.95) * (hi - lo)
            else:
                continue
            phi = rng.uniform(-math.pi, math.pi) if rng.random() < 0.5 else 0.0
            p = ree.x_state(a1, a2, a3, a4, d, phi)
            if ree._branch_of(p) == branch:
                return p

    states = [draw(b) for b in [ree.BRANCH_THEOREM1] * 48 + [ree.BRANCH_THEOREM2] * 48]
    states += [draw(ree.BRANCH_SEPARABLE) for _ in range(24)]
    rng.shuffle(states)
    return states


def unvalidated(states, tol):
    """What compute_ree hands ree._validated for each state: ([p], [its branch result])."""
    calls = []
    validated = ree._validated
    ree._validated = lambda ps, results, tol: calls.append((ps, results)) or validated(ps, results, tol)
    try:
        for p in states:
            ree.compute_ree(p, tol)
    finally:
        ree._validated = validated
    return calls


def baseline_states():
    mode, points = cli._grid_points(json.loads(GRID.read_text()), 10**6)
    return [s for s in (cli._scan_state(mode, pt) for pt in points) if s is not None]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=40, help="timed rounds per call")
    args = parser.parse_args()
    if args.repeats < 2:  # the quartiles need two rounds
        parser.error("--repeats must be at least 2")
    tol = default_tolerances()
    states = baseline_states()
    table = ree._t3_table([p for p in states if ree._branch_of(p) == ree.BRANCH_THEOREM3])

    def scan():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["scan", "--grid", str(GRID)]) == 0

    closed = closed_form_states()
    presolved = unvalidated(closed, tol)

    def closed_compute():
        for p in closed:
            ree.compute_ree(p, tol)

    def validated():
        for ps, results in presolved:
            ree._validated(ps, results, tol)

    # (call, its time unit in seconds, the number of calls it makes)
    calls = {
        "t3_grid_ms": (lambda: ree._t3_grid(table, tol), 1e-3, 1),
        "compute_many_ms": (lambda: ree.compute_ree_many(states, tol), 1e-3, 1),
        "scan_ms": (scan, 1e-3, 1),
        "closed_compute_us": (closed_compute, 1e-6, len(closed)),
        "validated_us": (validated, 1e-6, len(presolved)),
    }
    for call, _, _ in calls.values():  # warm-up
        call()
    times = {name: [] for name in calls}
    for _ in range(args.repeats):
        for name, (call, unit, count) in calls.items():
            t0 = time.perf_counter()
            call()
            times[name].append((time.perf_counter() - t0) / (unit * count))
    out = {
        "states": len(states),
        "theorem3_states": table.shape[1],
        "closed_form_states": len(closed),
        "repeats": args.repeats,
    }
    for name, values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
