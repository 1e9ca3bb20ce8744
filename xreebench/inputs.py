"""Seeded inputs for the xree benchmark.

Pure Python on purpose: the generator imports neither xree nor numpy, so
the program under test receives only the parameters made here. The same
seed always gives the same inputs.

Every state is returned as family parameters (a1, a2, a3, a4, d) with
phi = 0, plus the label of the answer the benchmark expects and, for the
named families, the weights the benchmark's own closed forms need.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The pinned "failure case" of the test suite and the ROADMAP baseline:
# ansatz_failure at the default root grid, theorem3 at 200000 grid points.
FAILURE_WEIGHTS = (0.66, 0.05, 0.07, 0.04, 0.18)
SIX_DIGIT_WEIGHTS = (0.66, 0.16, 0.03, 0.06, 0.09)
FAILURE_REFERENCE_REE = 0.12308004367
FAILURE_REFERENCE_GRID = 200000

# The ROADMAP baseline scan line, from the six-digit state to the failure state.
SCAN_LINE = {
    "mode": "line",
    "family": "theorem3_example",
    "from": list(SIX_DIGIT_WEIGHTS),
    "to": list(FAILURE_WEIGHTS),
    "count": 400,
}


@dataclass(frozen=True)
class Case:
    """One input state and what the benchmark knows about its answer.

    expect is the branch label the answer must carry. family/weights name a
    reference state the CLI is given by name and the benchmark checks
    against its own closed form (or Rains' CSS).
    """

    label: str
    params: tuple[float, float, float, float, float]
    expect: str
    family: str | None = None
    weights: tuple[float, ...] = ()

    def cli_args(self) -> list[str]:
        """The state flags a cold `xree compute` gets for this case."""
        if self.family is None:
            return ["--params", ",".join(repr(v) for v in self.params)]
        if not self.weights:
            return ["--family", self.family]
        return ["--family", f"{self.family}:" + ",".join(repr(w) for w in self.weights)]


def theorem3_example_params(p, q1, q2, q3, q4):
    """p B3 + q1 |01><01| + q2 |10><10| + q3 |00><00| + q4 |11><11|."""
    return (q3, p / 2.0 + q1, p / 2.0 + q2, q4, p / 2.0)


def vp_params(l1, l2, l3):
    """l1 B3 + l2 |01><01| + l3 |10><10|: no outer population (theorem1)."""
    return (0.0, l1 / 2.0 + l2, l1 / 2.0 + l3, 0.0, l1 / 2.0)


def horodecki_params(l1, l2, l3):
    """l1 B3 + l2 |00><00| + l3 |11><11|: symmetric middle block (theorem2)."""
    return (l2, l1 / 2.0, l1 / 2.0, l3, l1 / 2.0)


def bell_diagonal_params(l1, l2, l3, l4):
    """Bell-diagonal mixture; in the family only when l1 == l2 (theorem2)."""
    if l1 != l2:
        raise ValueError("bell_diagonal is in the family only when l1 == l2")
    return (l1, 0.5 * (l3 + l4), 0.5 * (l3 + l4), l1, 0.5 * (l3 - l4))


def rains_params():
    """Rains' state: outer populations 1/12, middle block built from 1/ln(73/23)."""
    xi = 1.0 / math.log(73.0 / 23.0)
    return (
        1.0 / 12.0,
        45907.0 / 90000.0 - 7.0 * xi / 150.0,
        29093.0 / 90000.0 + 7.0 * xi / 150.0,
        1.0 / 12.0,
        1201.0 / 3750.0 + 49.0 * xi / 3600.0,
    )


def scan_points() -> list[tuple[float, ...]]:
    """The grid points of SCAN_LINE, computed exactly as `xree scan` does."""
    frm, to, count = SCAN_LINE["from"], SCAN_LINE["to"], SCAN_LINE["count"]
    return [
        tuple(frm[k] + (to[k] - frm[k]) * i / (count - 1) for k in range(len(frm)))
        for i in range(count)
    ]


def _split(rng: random.Random, total: float) -> tuple[float, float]:
    a = rng.uniform(0.0, total)
    return a, total - a


def _theorem1(rng):
    a2 = rng.uniform(0.05, 0.95)
    a3 = 1.0 - a2
    d = rng.uniform(0.05, 0.98) * math.sqrt(a2 * a3)
    return Case("theorem1", (0.0, a2, a3, 0.0, d), "theorem1")


def _theorem2(rng):
    while True:
        a1, a4 = rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)
        mid = 0.5 * (1.0 - a1 - a4)
        floor = math.sqrt(a1 * a4)
        if mid > floor + 1e-2:
            break
    d = floor + rng.uniform(0.1, 0.95) * (mid - floor)
    return Case("theorem2", (a1, mid, mid, a4, d), "theorem2")


def _separable(rng):
    cuts = sorted(rng.random() for _ in range(3))
    a1, a2, a3 = cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1]
    a4 = 1.0 - cuts[2]
    d = rng.uniform(0.0, 0.9) * min(math.sqrt(a1 * a4), math.sqrt(a2 * a3))
    return Case("separable", (a1, a2, a3, a4, d), "separable")


def _vp(rng):
    l1 = rng.uniform(0.1, 0.9)
    l2, l3 = _split(rng, 1.0 - l1)
    return Case("vp", vp_params(l1, l2, l3), "theorem1", "vp", (l1, l2, l3))


def _horodecki(rng):
    while True:
        l1 = rng.uniform(0.2, 0.9)
        l2, l3 = _split(rng, 1.0 - l1)
        if 0.25 * l1 * l1 > l2 * l3 + 1e-3:
            break
    return Case("horodecki", horodecki_params(l1, l2, l3), "theorem2", "horodecki", (l1, l2, l3))


def _bell_diagonal(rng):
    l3 = rng.uniform(0.55, 0.95)
    l1 = rng.uniform(0.0, 0.5) * (1.0 - l3)
    l4 = 1.0 - l3 - 2.0 * l1
    weights = (l1, l1, l3, l4)
    return Case(
        "bell_diagonal", bell_diagonal_params(*weights), "theorem2", "bell_diagonal", weights
    )


def _theorem3_near_six_digit(rng):
    """A theorem3 draw from a neighbourhood of the six-digit state.

    The default root grid finds the CSS throughout this neighbourhood, so
    every seed gives the oracle the same warm-started mix; the cold start
    comes from the pinned failure state, which every seed includes.
    """
    p = SIX_DIGIT_WEIGHTS[0] + rng.uniform(-0.03, 0.03)
    q = [v + rng.uniform(-0.01, 0.01) for v in SIX_DIGIT_WEIGHTS[1:]]
    scale = (1.0 - p) / sum(q)
    weights = (p,) + tuple(v * scale for v in q)
    return Case("theorem3", theorem3_example_params(*weights), "theorem3")


def closed_form_cases(seed: int) -> list[Case]:
    """144 states in a fixed mix, shuffled: every seed has the same branch shares.

    48 theorem1 and 48 theorem2 draws, 24 separable draws and 8 each of the
    vp, horodecki and Bell-diagonal reference families.
    """
    rng = random.Random(f"closed_form:{seed}")
    cases = (
        [_theorem1(rng) for _ in range(48)]
        + [_theorem2(rng) for _ in range(48)]
        + [_separable(rng) for _ in range(24)]
        + [_vp(rng) for _ in range(8)]
        + [_horodecki(rng) for _ in range(8)]
        + [_bell_diagonal(rng) for _ in range(8)]
    )
    rng.shuffle(cases)
    return cases


def cli_cases(seed: int) -> list[Case]:
    """Nine states for cold `xree compute` runs, covering every branch.

    Seeded draws for separable, theorem1 and theorem2 (`--params`) and for
    the vp, horodecki and Bell-diagonal families (`--family`); fixed Rains,
    six-digit and failure states. The order is seeded.
    """
    rng = random.Random(f"cli_session:{seed}")
    cases = [
        _separable(rng),
        _theorem1(rng),
        _theorem2(rng),
        _vp(rng),
        _horodecki(rng),
        _bell_diagonal(rng),
        Case("rains", rains_params(), "theorem3", "rains"),
        Case(
            "six_digit",
            theorem3_example_params(*SIX_DIGIT_WEIGHTS),
            "theorem3",
            "theorem3_example",
            SIX_DIGIT_WEIGHTS,
        ),
        Case(
            "failure",
            theorem3_example_params(*FAILURE_WEIGHTS),
            "ansatz_failure",
            "theorem3_example",
            FAILURE_WEIGHTS,
        ),
    ]
    rng.shuffle(cases)
    return cases


def scan_sample(seed: int, size: int = 16) -> list[int]:
    """Indices of the scan rows whose values the benchmark recomputes."""
    rng = random.Random(f"scan_sample:{seed}")
    return sorted(rng.sample(range(SCAN_LINE["count"]), size))


def oracle_cases(seed: int) -> list[Case]:
    """Three warm-started theorem3 draws and the cold-start failure state."""
    rng = random.Random(f"oracle_check:{seed}")
    return [_theorem3_near_six_digit(rng) for _ in range(3)] + [
        Case("failure", theorem3_example_params(*FAILURE_WEIGHTS), "ansatz_failure")
    ]
