"""Every valid input at the slack edges returns or raises an XreeError.

States sit where the family's tolerances bite: zero, subnormal and
threshold-sized populations, a2 - a3 at the branch threshold, and d at,
just inside and just past sqrt(a1 a4) and sqrt(a2 a3), inside the
coherence slack. Each one goes in as Python floats and as np.float64
through x_state, compute_ree_many, a scan row and oracle_validate with
every warning an error; nothing else may escape. An entangled state that
gets an answer gets a finite REE and a residual within
residual_validation. The example count comes from the hypothesis profile
(HYPOTHESIS_PROFILE=ci, see conftest.py).
"""

import math
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xree import compute_ree_many, default_tolerances, x_state
from xree.cli import _scan_row
from xree.errors import XreeError
from xree.oracle import OracleConfig, oracle_validate
from xree.ree import BRANCH_FAILURE, BRANCH_SEPARABLE

# zero, subnormal, tiny and around the 1e-12 simplex and branch thresholds
EDGE_POPULATIONS = (0.0, 5e-324, 3.2e-314, 1e-300, 1e-15, 9.9e-13, 1e-12, 1.01e-12, 1e-9)
MIDDLE_GAPS = (0.0, 5e-13, 1e-12, 1.5e-12, 1e-9)
# K = 8, no random restarts, 3 objective evaluations per seed
ORACLE = OracleConfig(8, 0, 3)


@st.composite
def slack_edge_states(draw):
    """(a1, a2, a3, a4, d, phi) of Python floats at the slack edges.

    Edge populations keep their value; uniform ones are scaled to fill
    the rest of the unit sum (with none, all four are normalised).
    """
    edge = [draw(st.booleans()) for _ in range(4)]
    pops = [
        draw(st.sampled_from(EDGE_POPULATIONS)) if e else draw(st.floats(0.0, 1.0))
        for e in edge
    ]
    free = sum(v for v, e in zip(pops, edge) if not e)
    if free > 0.0:
        scale = (1.0 - sum(v for v, e in zip(pops, edge) if e)) / free
        pops = [v if e else v * scale for v, e in zip(pops, edge)]
    else:
        total = sum(pops)
        assume(total > 0.0)
        pops = [v / total for v in pops]
    a1, a2, a3, a4 = pops
    gap = draw(st.none() | st.sampled_from(MIDDLE_GAPS))
    if gap is not None:
        middle = a2 + a3
        a2, a3 = 0.5 * (middle + gap), 0.5 * (middle - gap)
    outer, inner = a1 * a4, max(a2 * a3, 0.0)
    lo, hi = math.sqrt(outer), math.sqrt(inner)
    d = draw(st.sampled_from((
        hi,
        hi * (1.0 - 1e-15),
        math.sqrt(inner + 1e-12),
        math.sqrt(inner + 0.9e-12),
        lo,
        lo * (1.0 + 1e-12),
        lo + draw(st.floats(0.0, 1.0)) * (hi - lo),
    )))
    return a1, a2, a3, a4, d, draw(st.sampled_from((0.0, 0.7)))


def _run(values) -> None:
    try:
        p = x_state(*values)
        result = compute_ree_many([p])[0]
        if result.branch not in (BRANCH_SEPARABLE, BRANCH_FAILURE):
            assert math.isfinite(result.ree), result
            assert result.residual_max <= default_tolerances().residual_validation, result
        _scan_row(values[:5], result)
        oracle_validate(p, result, ORACLE)
    except XreeError:
        pass


@settings(deadline=None)
@given(slack_edge_states())
def test_slack_edge_states_return_or_raise_xree_errors(state):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run(state)
        _run(tuple(map(np.float64, state)))
