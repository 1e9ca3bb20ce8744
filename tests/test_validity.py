"""One validity rule for family states, shared by x_state, to_density_matrix
and compute_ree, and the eigendecompositions a validated compute_ree runs."""

import cmath
import json
import math
import os
import re
import struct
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xree.qmath as qmath
import xree.ree as ree_module
import xree.states as states_module
import xree.cli as cli_module
from xree.config import default_tolerances
from xree import DensityMatrix, compute_ree, named_state, to_density_matrix, x_state
from xree.cli import EXIT_INVALID, main
from xree.errors import InvalidStateError
from xree.qmath import partial_transpose
from xree.ree import (
    BRANCH_FAILURE,
    BRANCH_SEPARABLE,
    BRANCH_THEOREM1,
    BRANCH_THEOREM2,
    BRANCH_THEOREM3,
    css_to_density_matrix,
    css_to_x_params,
)
from xree.states import RAINS_PARAMS, XStateParams, from_density_matrix

from conftest import random_entangled_params, random_separable_params

# d^2 = a2 a3 + 0.9e-12 lies inside the coherence slack (1e-12), but the
# smallest eigenvalue of the matrix is about -1.8e-10, below -psd (-1e-10)
BOUNDARY_POPULATIONS = [
    (0.995, 0.0025, 0.0025, 0.0),
    (0.995, 0.003, 0.002, 0.0),
    (0.5, 0.003, 0.002, 0.495),
]


def boundary_d(pops):
    return math.sqrt(pops[1] * pops[2] + 0.9e-12)


def raw_matrix(p):
    """The family matrix assembled entry by entry, as from_matrix receives it."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = p.diag()
    coh = p.d * cmath.exp(1j * p.phi)
    m[1, 2] = coh
    m[2, 1] = coh.conjugate()
    return m


class TestBoundaryStates:
    @pytest.mark.parametrize("pops", BOUNDARY_POPULATIONS)
    def test_x_state_rejects_non_psd_matrix(self, pops):
        d = boundary_d(pops)
        with pytest.raises(InvalidStateError, match="not PSD"):
            x_state(*pops, d)
        # the same matrix built from outside is rejected by its eigenvalues
        with pytest.raises(InvalidStateError, match="not PSD"):
            DensityMatrix.from_matrix(raw_matrix(XStateParams(*pops, d)))

    @pytest.mark.parametrize("pops", BOUNDARY_POPULATIONS)
    def test_compute_ree_rejects_directly_built_params(self, pops):
        with pytest.raises(InvalidStateError, match="not PSD"):
            compute_ree(XStateParams(*pops, boundary_d(pops)))

    def test_cli_params_exit_invalid(self, capsys):
        pops = BOUNDARY_POPULATIONS[0]
        text = ",".join(repr(v) for v in (*pops, boundary_d(pops)))
        code = main(["compute", "--params", text])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert captured.err.startswith("error: matrix is not PSD: min eigenvalue")
        assert captured.err.count("\n") == 1


class TestDirectlyBuiltParams:
    def test_trace_two_is_invalid(self):
        with pytest.raises(InvalidStateError, match="trace"):
            compute_ree(XStateParams(0.5, 0.5, 0.5, 0.5, 0.1))

    def test_coherence_above_cap_is_invalid(self):
        with pytest.raises(InvalidStateError, match="coherence"):
            compute_ree(XStateParams(0.1, 0.2, 0.3, 0.4, 5.0))


class TestMatrixIsUnchanged:
    @pytest.mark.parametrize("phi", [0.0, -0.0, 0.7, math.pi, -math.pi / 2])
    def test_named_phases(self, phi):
        p = x_state(0.1, 0.4, 0.3, 0.2, 0.25, phi)
        got = to_density_matrix(p).matrix
        assert got.tobytes() == DensityMatrix.from_matrix(raw_matrix(p)).matrix.tobytes()
        assert not got.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.01),
        st.floats(0.0, 1.0),
        st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
    )
    def test_bit_identical_to_from_matrix(self, weights, dfrac, phi):
        # signed zeros included: tobytes tells 0.0 from -0.0
        total = sum(weights)
        a1, a2, a3, a4 = (w / total for w in weights)
        p = x_state(a1, a2, a3, a4, dfrac * math.sqrt(a2 * a3), phi)
        want = DensityMatrix.from_matrix(raw_matrix(p)).matrix
        assert to_density_matrix(p).matrix.tobytes() == want.tobytes()

    def test_transposed_rows_are_partial_transpose(self):
        # the rows _family_matrices builds transposed are bit for bit
        # partial_transpose of its plain rows, signed zeros included
        rng = np.random.default_rng(7)
        phis = [0.0, -0.0, math.pi, -math.pi / 2] + [float(v) for v in rng.uniform(-3, 3, 4)]
        ps = [x_state(0.1, 0.4, 0.3, 0.2, 0.25, phi) for phi in phis]
        ps += [x_state(0.1, 0.4, 0.3, 0.2, 0.0, 0.7), x_state(0.0, 0.6, 0.4, 0.0, 0.3, -0.0)]
        css_of = [
            from_density_matrix(named_state("vp", 0.5, 0.3, 0.2)),
            from_density_matrix(named_state("horodecki", 0.6, 0.25, 0.15)),
            RAINS_PARAMS,
            x_state(0.4, 0.3, 0.2, 0.1, 0.05, 0.3),
            x_state(0.0, 0.6, 0.4, 0.0, 0.3, 1.1),
        ]
        results = [compute_ree(p) for p in css_of]
        assert {r.branch for r in results} == {
            BRANCH_THEOREM1, BRANCH_THEOREM2, BRANCH_THEOREM3, BRANCH_SEPARABLE
        }
        ps += [css_to_x_params(r.css) for r in results]
        plain = states_module._family_matrices(ps)
        transposed = partial_transpose(plain)
        for k in (0, 1, len(ps) // 2, len(ps)):
            got = states_module._family_matrices(ps, transposed=k)
            assert got.tobytes() == np.concatenate((transposed[:k], plain[k:])).tobytes()


# state, branch, and the _check_state and to_density_matrix calls of one
# validated compute_ree: the check on entry and the CSS's check in
# css_to_x_params; both matrices come from states._family_matrices
WORK_PER_COMPUTE = [
    pytest.param(
        lambda: from_density_matrix(named_state("vp", 0.5, 0.3, 0.2)),
        BRANCH_THEOREM1,
        2,
        id="theorem1",
    ),
    pytest.param(
        lambda: from_density_matrix(named_state("horodecki", 0.6, 0.25, 0.15)),
        BRANCH_THEOREM2,
        2,
        id="theorem2",
    ),
    pytest.param(lambda: RAINS_PARAMS, BRANCH_THEOREM3, 2, id="rains"),
    pytest.param(lambda: x_state(0.4, 0.3, 0.2, 0.1, 0.05, 0.3), BRANCH_SEPARABLE, 1, id="separable"),
]


class TestEigendecompositionCount:
    @pytest.mark.parametrize("params, branch, checks", WORK_PER_COMPUTE)
    def test_checks_and_builds_per_compute(self, monkeypatch, params, branch, checks):
        p = params()
        calls = {"_check_state": 0, "to_density_matrix": 0}
        for module in (states_module, ree_module):
            for name in calls:
                forward = getattr(module, name)

                def counting(*args, _name=name, _forward=forward, **kwargs):
                    calls[_name] += 1
                    return _forward(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        result = compute_ree(p)
        assert result.branch == branch
        assert calls == {"_check_state": checks, "to_density_matrix": 0}

    @pytest.mark.parametrize(
        "params, branch",
        [
            pytest.param(
                lambda: from_density_matrix(named_state("vp", 0.5, 0.3, 0.2)),
                BRANCH_THEOREM1,
                id="theorem1",
            ),
            pytest.param(
                lambda: from_density_matrix(named_state("horodecki", 0.6, 0.25, 0.15)),
                BRANCH_THEOREM2,
                id="theorem2",
            ),
            pytest.param(lambda: RAINS_PARAMS, BRANCH_THEOREM3, id="rains"),
        ],
    )
    def test_one_per_validated_compute(self, monkeypatch, params, branch):
        # one stacked call for the partial-transpose edge eigenvalue and the
        # two spectra of the relative entropy; building the family matrices
        # runs none
        p = params()
        calls = []
        forward = qmath.hermitian_eig

        def counting(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(qmath, "hermitian_eig", counting)
        result = compute_ree(p)
        assert result.branch == branch
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "params, branch",
        [
            pytest.param(
                lambda: from_density_matrix(named_state("vp", 0.5, 0.3, 0.2)),
                BRANCH_THEOREM1,
                id="theorem1",
            ),
            pytest.param(
                lambda: from_density_matrix(named_state("horodecki", 0.6, 0.25, 0.15)),
                BRANCH_THEOREM2,
                id="theorem2",
            ),
            pytest.param(
                lambda: x_state(0.4, 0.3, 0.2, 0.1, 0.05, 0.3), BRANCH_SEPARABLE, id="separable"
            ),
        ],
    )
    def test_stack_built_without_partial_transpose(self, monkeypatch, params, branch):
        # the validation builds its partial transposes directly; the one
        # stacked hermitian_eig call still checks every entry
        p = params()
        calls = {"hermitian_eig": 0, "partial_transpose": 0}
        for module in (qmath, states_module, ree_module):
            for name in calls:
                if hasattr(module, name):
                    forward = getattr(module, name)

                    def counting(*args, _name=name, _forward=forward, **kwargs):
                        calls[_name] += 1
                        return _forward(*args, **kwargs)

                    monkeypatch.setattr(module, name, counting)
        result = compute_ree(p)
        assert result.branch == branch
        assert calls == {"hermitian_eig": 1, "partial_transpose": 0}

    def test_one_eigh_in_cli_compute(self, monkeypatch, capsys):
        # edge_min_eig in the compute document is the validation's value
        want = compute_ree(RAINS_PARAMS).edge_min_eig
        calls = []
        forward = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert main(["compute", "--family", "rains"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["branch"] == BRANCH_THEOREM3
        assert doc["edge_min_eig"] == want
        assert len(calls) == 1


class TestValidationMatrices:
    def test_stack_holds_the_matrices_of_each_state(self, monkeypatch):
        # every stacked matrix is bit for bit the one the public builders
        # make: PT(pi), rho and pi for a branch solution, PT(rho) for a
        # separable state
        rng = np.random.default_rng(20261019)
        states = [
            random_entangled_params(rng, kind)
            for kind in ("theorem1", "theorem2", "theorem3")
            for _ in range(24)
        ]
        for _ in range(12):
            a = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
            d = rng.uniform(0.0, 1.0) * math.sqrt(min(a[0] * a[3], a[1] * a[2]))
            states.append(x_state(*(float(v) for v in a), float(d), float(rng.uniform(-3, 3))))
        order = rng.permutation(len(states))
        states = [states[i] for i in order]
        assert any(p.phi != 0.0 for p in states)
        stacks = []
        forward = qmath.hermitian_eig

        def capturing(m):
            stacks.append(np.array(m))
            return forward(m)

        monkeypatch.setattr(qmath, "hermitian_eig", capturing)
        monkeypatch.setattr(ree_module, "CHUNK", 32)  # so the states span three chunks
        results = ree_module.compute_ree_many(states)
        monkeypatch.undo()
        assert len(stacks) == math.ceil(len(states) / 32)
        want = []
        branches = set()
        for p, result in zip(states, results):
            branches.add(result.branch)
            if result.branch == BRANCH_SEPARABLE:
                mats = [partial_transpose(to_density_matrix(p))]
            elif result.branch == BRANCH_FAILURE:
                # a root-grid miss: nothing was stacked
                assert "failed validation" not in result.diagnostics
                continue
            else:
                pi = css_to_density_matrix(result.css)
                mats = [partial_transpose(pi), to_density_matrix(p).matrix, pi.matrix]
            assert result.edge_min_eig == float(qmath.hermitian_eig(mats[0]).values[0])
            want += [m.tobytes() for m in mats]
        assert {BRANCH_SEPARABLE, BRANCH_THEOREM1, BRANCH_THEOREM2, BRANCH_THEOREM3} <= branches
        got = [m.tobytes() for stack in stacks for m in stack]
        assert sorted(got) == sorted(want)


    def test_dual_path_equals_relative_entropy_of_each_slice(self, monkeypatch):
        # the weights of every solution come from one stacked product; each
        # dual value is bit for bit the one-state spectral relative entropy
        rng = np.random.default_rng(25)
        states = [random_entangled_params(rng) for _ in range(60)]
        grid = os.path.join(os.path.dirname(__file__), "..", "grids", "baseline_line.json")
        with open(grid, encoding="utf-8") as fh:
            mode, points = cli_module._grid_points(json.load(fh), 1000)
        states += [s for s in (cli_module._scan_state(mode, pt) for pt in points) if s is not None]
        stacks, duals = [], []
        forward, dual_of = qmath.hermitian_eig, ree_module._relative_entropy_weights

        def capturing(m):
            stacks.append((m, forward(m)))
            return stacks[-1][1]

        def recording(*args):
            duals.append(dual_of(*args))
            return duals[-1]

        monkeypatch.setattr(qmath, "hermitian_eig", capturing)
        monkeypatch.setattr(ree_module, "_relative_entropy_weights", recording)
        results = ree_module.compute_ree_many(states)
        monkeypatch.undo()
        assert len(stacks) == 1 and len(duals) > 300
        assert sum(r.branch == BRANCH_THEOREM3 for r in results) >= 288
        stack, eig = stacks[0]
        k = len(duals)
        n = len(stack) - 2 * k
        for slot, got in enumerate(duals):
            rho, pi = n + slot, n + k + slot
            sigma = qmath.EigenSystem(eig.values[pi], eig.vectors[pi])
            want = qmath._relative_entropy_eig(stack[rho], eig.values[rho], sigma)
            assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)


class TestClosedFormPath:
    @pytest.mark.parametrize(
        "kind, solve",
        [
            ("theorem1", ree_module.solve_theorem1),
            ("theorem2", ree_module.solve_theorem2),
            ("separable", None),
        ],
    )
    def test_equals_the_one_matrix_api(self, kind, solve):
        # repr tells 0.0 from -0.0 and a numpy scalar from a float, so each
        # comparison is bit for bit, whatever numpy and LAPACK compute
        rng = np.random.default_rng(2026)
        for _ in range(200):
            if solve is None:
                p = random_separable_params(rng)
                want = (0.0, ree_module.css_solution(p.a1, p.a2, p.a3, p.a4, p.d, p.phi, 0.0), 0.0)
                edge = qmath.min_eig_pt(to_density_matrix(p))
            else:
                p = random_entangled_params(rng, kind)
                solved = solve(p)
                want = (solved.ree, solved.css, solved.residual_max)
                edge = qmath.min_eig_pt(css_to_density_matrix(solved.css))
            result = compute_ree(p)
            assert result.branch == kind
            assert repr((result.ree, result.css, result.residual_max)) == repr(want)
            assert repr(result.edge_min_eig) == repr(edge)


class TestDiagnostics:
    def test_theorem3_note_appears_once(self, monkeypatch):
        note = "2 validated roots; kept minimal REE (others: 0.2)"
        # the Theorem 3 solver's per-state result, before compute_ree validates it
        result_of = ree_module._t3_result
        monkeypatch.setattr(
            ree_module,
            "_t3_result",
            lambda p, roots, sign, tol: replace(result_of(p, roots, sign, tol), diagnostics=note),
        )
        result = compute_ree(RAINS_PARAMS)
        assert result.branch == BRANCH_THEOREM3
        assert result.diagnostics == note

    def test_failed_solution_keeps_the_solver_note(self):
        # at these bounds two roots of this state validate in the solver, and
        # the edge check then fails the one it kept
        tol = replace(
            default_tolerances(), root_value_cap=1e300, residual_validation=1e300, edge_validation=-1.0
        )
        p = x_state(
            0.2873057102920131, 0.49838799950666307, 0.20275851870420114, 0.011547771497122742,
            0.16042175725615462,
        )
        result = compute_ree(p, tol)
        assert result.branch == BRANCH_FAILURE
        assert result.diagnostics.startswith(
            "theorem3 solution failed validation; partial-transpose edge eigenvalue "
        )
        assert re.search(r"; 2 validated roots; kept minimal REE \(others: [^;]*\)$", result.diagnostics)

    def test_failure_text_is_the_solver_text(self):
        p = from_density_matrix(named_state("theorem3_example", 0.66, 0.05, 0.07, 0.04, 0.18))
        result = compute_ree(p)
        assert result.branch == BRANCH_FAILURE
        assert result.diagnostics == ree_module.solve_theorem3(p).diagnostics
        assert result.diagnostics.endswith("(0 brackets, 0 rejected)")


# one tolerance at a time, set so that every solution fails its check, and
# the text of the problem it adds
VALIDATION_PROBLEMS = [
    pytest.param("residual_validation", -1.0, "; coupled-equation residual ", id="residual"),
    pytest.param("y_edge", -1e-300, "; edge condition y = sqrt(r1 r4) violated by ", id="y-edge"),
    pytest.param("simplex", -1.0, "; CSS validation error: negative population in ", id="simplex"),
    pytest.param("edge_validation", -1.0, "; partial-transpose edge eigenvalue ", id="edge"),
    pytest.param("dual_path_validation", -1.0, "; parametric REE ", id="dual-path"),
]


@pytest.mark.parametrize("field, value, problem", VALIDATION_PROBLEMS)
@pytest.mark.parametrize(
    "state, branch",
    [
        pytest.param(
            lambda: from_density_matrix(named_state("vp", 0.5, 0.3, 0.2)),
            BRANCH_THEOREM1,
            id="theorem1",
        ),
        pytest.param(
            lambda: from_density_matrix(named_state("horodecki", 0.6, 0.25, 0.15)),
            BRANCH_THEOREM2,
            id="theorem2",
        ),
        pytest.param(lambda: x_state(*astuple(RAINS_PARAMS)), BRANCH_THEOREM3, id="rains"),
    ],
)
def test_each_validation_problem_fails_the_solution(state, branch, field, value, problem):
    # the states are built at the default tolerances; only compute_ree
    # sees the changed one
    p = state()
    assert compute_ree(p).branch == branch
    result = compute_ree(p, replace(default_tolerances(), **{field: value}))
    assert result.branch == BRANCH_FAILURE
    assert (result.ree, result.css, result.edge_min_eig) == (None, None, None)
    if branch == BRANCH_THEOREM3 and field == "residual_validation":
        # the Theorem 3 solver drops a root over the residual bound itself
        assert result.diagnostics.endswith("(1 brackets, 1 rejected)")
        return
    assert result.diagnostics.startswith(f"{branch} solution failed validation{problem}")
    if field == "dual_path_validation":
        assert " vs spectral " in result.diagnostics
        assert result.diagnostics.endswith(" disagree")


def test_dual_path_problem_prints_plain_floats():
    # the two REE values of Horodecki's state differ in the last bits, and
    # the text holds the repr of each
    p = from_density_matrix(named_state("horodecki", 0.6, 0.25, 0.15))
    result = compute_ree(p, replace(default_tolerances(), dual_path_validation=1e-17))
    assert " vs spectral " in result.diagnostics
    assert "np.float64(" not in result.diagnostics
