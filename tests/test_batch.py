"""compute_ree_many: one batched call equals one-at-a-time compute_ree.

The states of a batch run CHUNK at a time; the Theorem 3 brackets of a
chunk are polished together and its validation runs one stacked
eigendecomposition, so every check here crosses chunk boundaries.
"""

from dataclasses import replace

import numpy as np
import pytest

import xree.ree as ree_module
from xree import compute_ree, compute_ree_many, default_tolerances, x_state
from xree.errors import InvalidStateError
from xree.ree import (
    BRANCH_FAILURE,
    BRANCH_SEPARABLE,
    BRANCH_THEOREM1,
    BRANCH_THEOREM2,
    BRANCH_THEOREM3,
)
from xree.states import XStateParams

from conftest import random_entangled_params, random_separable_params

# states per chunk here, well below ree.CHUNK, so a batch of a few dozen
# states spans several chunks
CHUNK = 32


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(ree_module, "CHUNK", CHUNK)


# a1 of the pure-middle-block theorem2 states x_state(a1, b, b, 0, b),
# b = (1 - a1)/2, whose rounded CSS fails validation (test_scoring.py)
THEOREM2_EDGE_A1 = (3e-7, 1e-8, 2e-12)


def mixed_states(seed):
    """Seeded draws of every branch, shuffled, more than two chunks long."""
    rng = np.random.default_rng(seed)
    states = [random_separable_params(rng) for _ in range(20)]
    for kind in (BRANCH_THEOREM1, BRANCH_THEOREM2, BRANCH_THEOREM3):
        states += [random_entangled_params(rng, kind) for _ in range(40)]
    # theorem3_example(0.66, 0.05, 0.07, 0.04, 0.18), the pinned grid miss
    states.append(x_state(0.04, 0.38, 0.40, 0.18, 0.33))
    for a1 in THEOREM2_EDGE_A1:
        b = (1.0 - a1) / 2.0
        states.append(x_state(a1, b, b, 0.0, b))
    # a near-degenerate middle block: the grid finds no bracket
    states += [x_state(0.1, 0.35 + g, 0.35 - g, 0.2, 0.25) for g in (1e-6, 1e-5)]
    return [states[i] for i in rng.permutation(len(states))]


def reprs(results):
    return [repr(r) for r in results]


def test_batch_equals_one_at_a_time():
    states = mixed_states(12)
    assert len(states) > 2 * CHUNK
    batch = compute_ree_many(states)
    single = [compute_ree(p) for p in states]
    assert reprs(batch) == reprs(single)
    branches = {r.branch for r in batch}
    assert branches == {
        BRANCH_SEPARABLE, BRANCH_THEOREM1, BRANCH_THEOREM2, BRANCH_THEOREM3, BRANCH_FAILURE,
    }
    notes = [r.diagnostics for r in batch if r.branch == BRANCH_FAILURE]
    assert any(n.startswith("no valid root of the one-variable reduction") for n in notes)
    assert any(n.startswith("theorem2 solution failed validation") for n in notes)


def test_batch_with_several_validated_roots():
    # without the pole and residual filters the second bracket of most
    # theorem3 states validates too, and the least REE is kept with a note
    tol = replace(default_tolerances(), root_value_cap=1e300, residual_validation=1e300)
    rng = np.random.default_rng(13)
    states = [random_entangled_params(rng, BRANCH_THEOREM3) for _ in range(2 * CHUNK + 5)]
    batch = compute_ree_many(states, tol)
    assert reprs(batch) == reprs(compute_ree(p, tol) for p in states)
    assert sum("validated roots; kept minimal REE" in r.diagnostics for r in batch) > 10


def test_solutions_that_fail_the_css_check_leave_the_stack(monkeypatch):
    # a solution whose CSS fails css_to_x_params has no matrices in the
    # validation stack, so the states after it in a chunk take other places
    real = ree_module.css_to_x_params

    def refuse_theorem1(c, tol=None):
        if c.r1 == 0.0 and c.r4 == 0.0:  # only a theorem1 CSS has no outer weight
            raise InvalidStateError("theorem1 CSS refused")
        return real(c, tol)

    monkeypatch.setattr(ree_module, "CHUNK", 16)
    monkeypatch.setattr(ree_module, "css_to_x_params", refuse_theorem1)
    states = mixed_states(17)
    batch = compute_ree_many(states)
    assert reprs(batch) == reprs(compute_ree(p) for p in states)
    theorem1 = [r for p, r in zip(states, batch) if ree_module._branch_of(p) == BRANCH_THEOREM1]
    assert theorem1 and all("theorem1 CSS refused" in r.diagnostics for r in theorem1)
    assert {r.branch for r in batch} == {
        BRANCH_SEPARABLE, BRANCH_THEOREM2, BRANCH_THEOREM3, BRANCH_FAILURE,
    }


def test_edge_min_eig_is_set_exactly_with_a_css():
    for result in compute_ree_many(mixed_states(14)):
        assert (result.edge_min_eig is None) == (result.css is None)
        if result.branch == BRANCH_SEPARABLE:
            assert result.edge_min_eig >= -1e-12  # PPT
        elif result.css is not None:
            assert abs(result.edge_min_eig) <= default_tolerances().edge_validation


def test_input_order_is_kept():
    states = mixed_states(15)
    forward = compute_ree_many(states)
    backward = compute_ree_many(states[::-1])
    assert reprs(backward) == reprs(forward[::-1])


def test_empty_list():
    assert compute_ree_many([]) == []


def test_invalid_member_raises_its_own_error():
    states = mixed_states(16)
    bad = XStateParams(0.25, 0.25, 0.25, 0.25, 0.3)  # d^2 > a2 a3: not PSD
    with pytest.raises(InvalidStateError) as alone:
        compute_ree(bad)
    with pytest.raises(InvalidStateError) as batched:
        compute_ree_many(states[: CHUNK + 3] + [bad] + states[CHUNK + 3 :])
    assert str(batched.value) == str(alone.value)
