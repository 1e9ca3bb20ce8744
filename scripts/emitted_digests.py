#!/usr/bin/env python3
"""sha256 digests of what xree emits, to show that a change keeps every byte.

Run from the root of a checkout (it imports xree from that checkout's src):

    python3 scripts/emitted_digests.py --draws 600

It prints one JSON object, each value the sha256 of:

  selftest             the selftest output and exit code
  scan:<grid>          the scan of each committed grid: stdout, stderr, exit code
  compute:<state>      the compute --bits document without elapsed, stderr
                       and exit code, for each of STATES
  oracle:<state>:<seed>  the seeded oracle document, stderr and exit code,
                       for Rains' state and the failure state
  compute_ree_many     the repr of compute_ree_many on --draws seeded states
                       of each branch, shuffled, then of compute_ree on
                       every seventh state alone
  edges                the repr of compute_ree_many on --draws seeded
                       Theorem 3 states of each of EDGE_FAMILIES, where the
                       feasible part of the root grid is shortest
  errors               exit code, stdout and stderr of compute --input and
                       scan --grid on each of INVALID, documents that break
                       each keyword the two input schemas use
  errors:deep          the same on DEEP, an array nested past json.load's
                       recursion limit

Two checkouts are compared by running the script in each: equal digests
mean equal bytes. It needs no other file of scripts/, so a copy of it runs
in a checkout of an older commit too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from xree import cli, ree  # noqa: E402
from xree.errors import XreeError  # noqa: E402

GRIDS = sorted((ROOT / "grids").glob("*.json"))
RAINS = ("--family", "rains")
FAILURE = ("--family", "theorem3_example:0.66,0.05,0.07,0.04,0.18")
STATES = {
    "rains": RAINS,
    "vp": ("--family", "vp:0.5,0.3,0.2"),
    "horodecki": ("--family", "horodecki:0.6,0.25,0.15"),
    "six_digit": ("--family", "theorem3_example:0.66,0.16,0.03,0.06,0.09"),
    "failure": FAILURE,  # exit 2
    "params_phi": ("--params", "0.1,0.4,0.3,0.2,0.25,0.7"),
    "params_theorem2": ("--params", "0.1,0.35,0.35,0.2,0.3"),
    "bell_diagonal": ("--family", "bell_diagonal:0.1,0.2,0.6,0.1"),  # exit 1
}
DRAW_SEED = 30
EDGE_SEED = 33
EDGE_FAMILIES = ("near_symmetric", "outer_product", "near_ppt", "near_psd_edge", "slack")
PARAMS = {"A1": 0.1, "A2": 0.4, "A3": 0.3, "A4": 0.2, "D": 0.3}
AXES = {name: 0.1 for name in ("a1", "a2", "a3", "a4", "d")}
LINE = {"mode": "line", "family": "theorem3_example", "from": [0.5] * 5, "to": [0.5] * 5, "count": 3}
SIMPLEX = {"mode": "simplex", "p": 0.66, "split": 0.4, "steps": 25}
# invalid input documents, each read as a state and as a grid: one or more
# per keyword of the two input schemas; the four grids of
# tests/test_grids.py::test_schema_error_names_the_bad_field; and last one
# with three errors, of which the one reported is the first by path
INVALID = [
    [PARAMS],  # type
    {"params": 0.1},
    {},  # minProperties
    {"params": PARAMS, "family": {"name": "vp"}},  # maxProperties
    {"params": {**PARAMS, "x": 1}},  # additionalProperties
    {"params": {"A1": 0.1}},  # required
    {"params": {**PARAMS, "A1": True}},  # properties
    {"family": {"name": "bogus"}},  # enum
    {"family": {"name": 1}},
    {"family": {"name": "vp", "weights": [0.5, "0.3"]}},  # items
    {"matrix": [[[0.25, 0.0]] * 4] * 3},  # minItems
    {"matrix": [[[0.25, 0.0]] * 4] * 5},  # maxItems
    {"matrix": [[[0.25, 0.0, 0.0]] * 4] * 4},
    {"mode": "line", "count": 5},  # allOf, if, then
    {**LINE, "family": "vp"},  # const
    {**LINE, "x": 1, "y": 2},
    {**LINE, "count": 1.5},
    {**LINE, "count": 1},  # minimum
    {**SIMPLEX, "p": -0.5},
    {**SIMPLEX, "p": True},
    {"mode": "raw", "axes": {**AXES, "a1": None}},  # $ref, oneOf
    {"mode": "raw", "axes": {**AXES, "a1": []}},
    {"mode": "raw", "axes": {**AXES, "a1": {"start": 0.0, "stop": 1.0}}},
    {"mode": "theorem3_example", "axes": {"p": 0.66, "q1": 0.1, "q2": 0.1, "q3": 0.1}},
    {**SIMPLEX, "split": 1.5},  # maximum
    {"mode": "raw", "axes": {**AXES, "a1": {"start": 0.0, "stop": 1.0, "count": 0}}},
    {"mode": "bogus"},
    {**LINE, "to": [0.5] * 4},
    {"mode": "simplex", "p": 2, "split": 1.5, "steps": 0},
]
DEEP = "[" * 5000 + "]" * 5000


def run(*argv: str) -> tuple[int, str, str]:
    """cli.main on argv: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def errors_digest(texts) -> str:
    """The digest of what compute --input and scan --grid emit on each of texts."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        for text in texts:
            path.write_text(text, encoding="utf-8")
            for argv in (("compute", "--input"), ("scan", "--grid")):
                try:
                    runs.append(run(*argv, str(path)))
                except RecursionError as exc:  # recorded, so that every checkout runs
                    runs.append(("uncaught", repr(exc)))
    return digest(*runs)


def without_elapsed(text: str) -> str:
    """A JSON document without its elapsed field, re-serialised; other text as it is."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if isinstance(doc, dict):
        doc.pop("elapsed", None)
    return json.dumps(doc, sort_keys=True)


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def draw(rng: random.Random, branch: str):
    """One state of branch, drawn as scripts/t3_layers.py draws; theorem1 has a1 = a4 = 0.0."""
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


def edge_draw(rng: random.Random, family: str):
    """One Theorem 3 state near an edge of the general case.

    near_symmetric: |a2 - a3| from 1e-11 to 1e-3; outer_product: a1 or a4
    scaled by 1e-12 to 1e-4; near_ppt: d -> sqrt(a1 a4) from above;
    near_psd_edge: d -> sqrt(a2 a3) from below; slack: d at
    sqrt(a2 a3 + 1e-12) or 0.9e-12 inside it, each outer population at a
    branch threshold or as drawn, and |a2 - a3| from 1e-12 to 1e-3.
    """
    while True:
        w = [rng.expovariate(1.0) for _ in range(4)]
        if family == "outer_product":
            w[rng.choice((0, 3))] *= 10.0 ** rng.uniform(-12, -4)
        total = math.fsum(w)
        a1, a2, a3, a4 = (v / total for v in w)
        if family == "slack":
            a1, a4 = (rng.choice((0.0, 1e-12, 1.01e-12, 1e-9, v)) for v in (a1, a4))
            a2 = a3 = 0.5 * (1.0 - a1 - a4)
        if family in ("near_symmetric", "slack"):
            mid, gap = 0.5 * (a2 + a3), 10.0 ** rng.uniform(-12, -3)
            a2, a3 = mid + 0.5 * gap, mid - 0.5 * gap
        lo, hi = math.sqrt(a1 * a4), math.sqrt(a2 * a3)
        eps = 10.0 ** rng.uniform(-12, -2)
        if family == "near_ppt":
            d = lo * (1.0 + eps)
        elif family == "near_psd_edge":
            d = hi * (1.0 - eps)
        elif family == "slack":
            d = math.sqrt(a2 * a3 + rng.choice((1e-12, 0.9e-12)))
        else:
            d = lo + rng.uniform(0.0, 1.0) * (hi - lo)
        try:
            p = ree.x_state(a1, a2, a3, a4, d)
        except XreeError:
            continue
        if ree._branch_of(p) == ree.BRANCH_THEOREM3:
            return p


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--draws", type=int, default=600, help="seeded states per branch and per edge family"
    )
    args = parser.parse_args()
    out = {"selftest": digest(*run("selftest"))}
    for grid in GRIDS:
        out[f"scan:{grid.name}"] = digest(*run("scan", "--grid", str(grid)))
    for name, flags in STATES.items():
        code, text, err = run("compute", *flags, "--bits")
        out[f"compute:{name}"] = digest(code, without_elapsed(text), err)
    for name, flags in (("rains", RAINS), ("failure", FAILURE)):
        for seed in ("0", "7"):
            out[f"oracle:{name}:{seed}"] = digest(*run("oracle", *flags, "--seed", seed))
    rng = random.Random(DRAW_SEED)
    branches = [ree.BRANCH_THEOREM1, ree.BRANCH_THEOREM2, ree.BRANCH_THEOREM3]
    states = [draw(rng, b) for b in branches + [ree.BRANCH_SEPARABLE] for _ in range(args.draws)]
    rng.shuffle(states)
    alone = [ree.compute_ree(p) for p in states[::7]]
    out["compute_ree_many"] = digest(ree.compute_ree_many(states), alone)
    rng = random.Random(EDGE_SEED)
    edges = [edge_draw(rng, family) for family in EDGE_FAMILIES for _ in range(args.draws)]
    out["edges"] = digest(ree.compute_ree_many(edges))
    out["errors"] = errors_digest(json.dumps(doc) for doc in INVALID)
    out["errors:deep"] = errors_digest([DEEP])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
