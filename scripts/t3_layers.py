#!/usr/bin/env python3
"""In-process timings of the Theorem 3 layers on the 400-point baseline line.

Run from the root of a checkout (it imports xree from that checkout's src):

    python3 scripts/t3_layers.py --repeats 40

It times, interleaved round by round, three calls on the states of
grids/baseline_line.json:

  t3_grid_ms       ree._t3_grid on the table of the line's Theorem 3 states
  compute_many_ms  ree.compute_ree_many on the line's 400 states
  scan_ms          cli.main(["scan", "--grid", <the line>]), output discarded

and prints one JSON object with each call's median, quartiles and the
number of rounds. Two checkouts are compared by running the script in
each, alternately, on the same machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from xree import cli, ree  # noqa: E402
from xree.config import default_tolerances  # noqa: E402

GRID = ROOT / "grids" / "baseline_line.json"


def baseline_states():
    mode, points = cli._grid_points(json.loads(GRID.read_text()), 10**6)
    return [s for s in (cli._scan_state(mode, pt) for pt in points) if s is not None]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=40, help="timed rounds per call")
    args = parser.parse_args()
    tol = default_tolerances()
    states = baseline_states()
    table = ree._t3_table([p for p in states if ree._branch_of(p) == ree.BRANCH_THEOREM3])

    def scan():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["scan", "--grid", str(GRID)]) == 0

    calls = {
        "t3_grid_ms": lambda: ree._t3_grid(table, tol),
        "compute_many_ms": lambda: ree.compute_ree_many(states, tol),
        "scan_ms": scan,
    }
    for call in calls.values():  # warm-up
        call()
    times = {name: [] for name in calls}
    for _ in range(args.repeats):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            times[name].append(1e3 * (time.perf_counter() - t0))
    out = {"states": len(states), "theorem3_states": table.shape[1], "repeats": args.repeats}
    for name, values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
