"""Solver branches, residual checker, REE evaluator, and dispatcher."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from xree import (
    binary_entropy,
    closed_form_family_ree,
    compute_ree,
    compute_ree_many,
    css_residuals,
    css_solution,
    css_to_density_matrix,
    from_density_matrix,
    is_entangled,
    min_eig_pt,
    named_state,
    ree_from_css,
    relative_entropy,
    solve_theorem1,
    solve_theorem2,
    solve_theorem3,
    to_density_matrix,
    x_state,
)
import xree.ree as ree_module
from xree.config import default_tolerances
from xree.errors import InvalidStateError, LogDomainError, WrongBranchError
from xree.ree import (
    BRANCH_FAILURE,
    BRANCH_SEPARABLE,
    BRANCH_THEOREM1,
    BRANCH_THEOREM2,
    BRANCH_THEOREM3,
    _BRANCH_EQUAL,
    _BRANCH_ZERO,
    _bisect_t3,
    _branch_of,
    _multiplier,
    _T3Constants,
    _t3_equation,
    _t3_table,
    input_spectrum_pair,
)
from xree.states import _ENTANGLEMENT_MARGIN, RAINS_PARAMS, XStateParams

from conftest import random_entangled_params, random_separable_params

# frozen regression value for the transcendental reference state, checked
# against both the parametric formula and the spectral path below
RAINS_REE = 0.130171307117268

FAILURE_WEIGHTS = (0.66, 0.05, 0.07, 0.04, 0.18)
SIX_DIGIT_WEIGHTS = (0.66, 0.16, 0.03, 0.06, 0.09)


def params_for(family, *weights):
    return from_density_matrix(named_state(family, *weights))


class TestCssResiduals:
    def test_theorem2_closed_form_satisfies_equations(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = random_entangled_params(rng, "theorem2")
            result = solve_theorem2(p)
            assert max(abs(r) for r in css_residuals(result.css, p)) < 1e-10

    def test_rains_css_with_multiplier_formula(self):
        p = RAINS_PARAMS
        r1 = r4 = 1.0 / 6.0
        css = css_solution(r1, 55 / 144, 41 / 144, r4, 1 / 6, 0.0, _multiplier(r1, r4, p.a1))
        assert max(abs(r) for r in css_residuals(css, p)) < 1e-9

    def test_perturbation_detected(self):
        result = solve_theorem3(RAINS_PARAMS)
        bumped = replace(result.css, r2=result.css.r2 + 1e-3)
        assert max(abs(r) for r in css_residuals(bumped, RAINS_PARAMS)) > 1e-4


class TestReeFromCss:
    def test_theorem1_closed_form_match(self):
        p = x_state(0.0, 0.55, 0.45, 0.0, 0.25)
        result = solve_theorem1(p)
        a_plus, _ = input_spectrum_pair(p)
        expected = binary_entropy(0.55) - binary_entropy(a_plus)
        assert ree_from_css(p, result.css) == pytest.approx(expected, abs=1e-12)

    def test_self_distance_zero_for_separable(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = random_separable_params(rng)
            css = css_solution(p.a1, p.a2, p.a3, p.a4, p.d, p.phi, 0.0)
            assert ree_from_css(p, css) == pytest.approx(0.0, abs=1e-11)

    def test_rains_dual_path(self):
        result = solve_theorem3(RAINS_PARAMS)
        formula = ree_from_css(RAINS_PARAMS, result.css)
        spectral = relative_entropy(
            to_density_matrix(RAINS_PARAMS), css_to_density_matrix(result.css)
        )
        assert formula == pytest.approx(spectral, abs=1e-10)
        assert formula == pytest.approx(RAINS_REE, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, -0.3], ids=["zero", "negative-definite"])
    def test_series_branch_needs_a_positive_definite_middle_block(self, r):
        # r2 = r3 and y = 0 give z = 0, so ell/z takes its series, which
        # needs r2 r3 - y^2 > 0 and r2 + r3 > 0
        p = x_state(0.0, 0.55, 0.45, 0.0, 0.25)
        with pytest.raises(LogDomainError, match="middle block not positive definite"):
            ree_from_css(p, css_solution(0.0, r, r, 0.0, 0.0, 0.0, 0.0))

    def test_weight_outside_css_support_is_named(self):
        # y = sqrt(r2 r3) leaves the CSS middle block with m- = 0, where rho
        # still has weight c- = 0.15
        p = x_state(0.25, 0.25, 0.25, 0.25, 0.1)
        css = css_solution(0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        with pytest.raises(LogDomainError, match="c- ln m-: weight .* outside CSS support"):
            ree_from_css(p, css)

    def test_outer_population_outside_css_support_is_named(self):
        p = x_state(0.1, 0.4, 0.4, 0.1, 0.2)
        css = css_solution(0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0)
        message = "term a1 ln r1: population 0.1 outside CSS support"
        with pytest.raises(LogDomainError, match=message):
            ree_from_css(p, css)

    def test_weight_below_the_support_leak_still_counts(self):
        # c- is about 5e-11, inside (0, _SUPPORT_LEAK]: its term c- ln m-,
        # about -1.2e-10, is kept where the CSS has support
        p = x_state(0.1, 0.4, 0.4, 0.1, 0.4 - 5e-11)
        css = css_solution(0.2, 0.3, 0.3, 0.2, 0.2, 0.0, 0.0)
        spectral = relative_entropy(to_density_matrix(p), css_to_density_matrix(css))
        assert ree_from_css(p, css) == pytest.approx(spectral, abs=1e-12)


class TestTheorem1:
    def test_worked_example(self):
        inv = 1.0 / math.sqrt(2.0)
        p = params_for("theorem1_example", 0.5, inv, inv, 0.3, 0.2)
        result = solve_theorem1(p)
        assert result.css.r2 == pytest.approx(0.55, abs=1e-12)
        assert result.css.r3 == pytest.approx(0.45, abs=1e-12)
        lam = 0.5 * (1.0 + math.sqrt(0.25 + 0.01))
        assert result.ree == pytest.approx(
            binary_entropy(0.55) - binary_entropy(lam), abs=1e-12
        )

    def test_bell_state_gives_ln2(self):
        p = x_state(0.0, 0.5, 0.5, 0.0, 0.5)
        assert solve_theorem1(p).ree == pytest.approx(math.log(2.0), abs=1e-12)

    def test_pure_limit(self):
        # d -> sqrt(a2 a3) with a2 = a3 sends the larger block eigenvalue
        # to 1, so the REE tends to H(a2)
        p = x_state(0.0, 0.5, 0.5, 0.0, 0.5 - 1e-9)
        assert solve_theorem1(p).ree == pytest.approx(binary_entropy(0.5), abs=1e-7)

    def test_wrong_branch_rejected(self):
        with pytest.raises(WrongBranchError):
            solve_theorem1(x_state(0.1, 0.4, 0.4, 0.1, 0.25))
        with pytest.raises(WrongBranchError):
            solve_theorem1(x_state(0.0, 0.5, 0.5, 0.0, 0.0))  # separable

    def test_multiplier_limit_when_symmetric(self):
        p = x_state(0.0, 0.5, 0.5, 0.0, 0.3)
        assert solve_theorem1(p).css.x == pytest.approx(2.0 * 0.3 / 0.5, abs=1e-12)

    @pytest.mark.parametrize("eps", [2e-15, 1e-13, 9.9e-13])
    @pytest.mark.parametrize("outer", ["a1", "a4"])
    def test_tiny_outer_population_validates(self, eps, outer):
        # below _BRANCH_ZERO the state routes to theorem1, whose CSS has
        # r1 = r4 = 0; the weight eps outside its support is below
        # _SUPPORT_LEAK, as the dual path counts it
        pops = {"a1": 0.0, "a4": 0.0, outer: eps}
        p = x_state(pops["a1"], 0.6 - eps, 0.4, pops["a4"], 0.3)
        result = compute_ree(p)
        assert result.branch == BRANCH_THEOREM1, result.diagnostics
        assert result.edge_min_eig == 0.0
        limit = compute_ree(x_state(0.0, 0.6, 0.4, 0.0, 0.3)).ree
        assert abs(result.ree - limit) <= 1e-10

    @pytest.mark.parametrize("a1, a4", [(5e-13, 5e-13), (9.68e-13, 6.9e-14), (9.9e-13, 9.9e-13)])
    def test_outer_populations_past_the_simplex_slack(self, a1, a4):
        # each outer population routes to theorem1, but together they are
        # more than the simplex slack, so the CSS must carry them to keep
        # unit trace
        b = (1.0 - a1 - a4) / 2.0
        result = compute_ree(x_state(a1, b, b, a4, 0.3))
        assert result.branch == BRANCH_THEOREM1, result.diagnostics
        limit = compute_ree(x_state(0.0, 0.5, 0.5, 0.0, 0.3)).ree
        assert abs(result.ree - limit) <= 1e-10

    @pytest.mark.parametrize("num", [float, np.float64], ids=["float", "float64"])
    @pytest.mark.parametrize("zero", ["a2", "a3"])
    def test_zero_middle_population_fails_without_a_warning(self, num, zero):
        # d^2 <= a2 a3 + the coherence slack admits d > 0 with a2 or a3 = 0,
        # where ln(a2/a3) is undefined
        pops = (0.0, 0.0, 1.0, 0.0) if zero == "a2" else (0.0, 1.0, 0.0, 0.0)
        p = x_state(*map(num, (*pops, 5e-7)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = compute_ree(p)
        assert result.branch == BRANCH_FAILURE and result.ree is None
        assert f"middle population {zero} = 0" in result.diagnostics

    def test_zero_middle_population_leaves_its_batch_alone(self):
        states = [
            x_state(0.0, 0.6, 0.4, 0.0, 0.3),
            x_state(0.0, 1.0, 0.0, 0.0, 5e-7),
            RAINS_PARAMS,
            x_state(0.0, 0.0, 1.0, 0.0, 5e-7),
            x_state(0.1, 0.35, 0.35, 0.2, 0.3),
        ]
        batch = compute_ree_many(states)
        assert [r.branch for r in batch] == [
            BRANCH_THEOREM1, BRANCH_FAILURE, BRANCH_THEOREM3, BRANCH_FAILURE, BRANCH_THEOREM2
        ]
        assert repr(batch) == repr([compute_ree(p) for p in states])


def theorem2_edge_states(rng, count):
    """Seeded theorem2 states at the edges of the closed form.

    Half are Dirichlet draws with outer populations scaled down to 1e-15,
    half have a1 or a4 down to subnormal; d is near sqrt(a1 a4), inside the
    entangled range, at a2 (1 - 1e-12) or at a2.
    """
    states = []
    while len(states) < count:
        if rng.random() < 0.5:
            a1, _, a4 = rng.dirichlet((1.0, 2.0, 1.0)) * 10.0 ** rng.uniform(-15.0, 0.0, 3)
        else:
            tiny = 10.0 ** rng.uniform(-323.3, -3.0)
            a1, a4 = (tiny, rng.uniform(0.0, 0.4))[:: rng.choice((1, -1))]
        a1, a4 = float(a1), float(a4)
        a2 = (1.0 - a1 - a4) / 2.0
        lo = math.sqrt(a1 * a4 + 2.0 * _ENTANGLEMENT_MARGIN)
        d = float(rng.choice([
            lo * (1.0 + 10.0 ** rng.uniform(-12.0, -1.0)),
            lo + rng.uniform(0.0, 1.0) * (a2 - lo),
            a2 * (1.0 - 1e-12),
            a2,
        ]))
        if d <= a2:
            p = x_state(a1, a2, a2, a4, d, 0.0)
            if _branch_of(p) == BRANCH_THEOREM2:
                states.append(p)
    return states


class TestTheorem2:
    def test_plus_root_is_the_css(self):
        # Valued at 400 digits, the - root of the closed form lies at or
        # below a1 or leaves a population non-positive; in doubles it may
        # round above a1 where a1 a4 is about 0. The CSS takes the + root,
        # bit for bit.
        import mpmath as mp

        with_css = 0
        states = theorem2_edge_states(np.random.default_rng(30), 10_000)
        for p in states:
            a1, a2, a4, d = p.a1, p.a2, p.a4, p.d
            with mp.workdps(400):  # the - root cancels down to a1, which may be subnormal
                m1, m2, m4, md = (mp.mpf(v) for v in (a1, a2, a4, d))
                f = 2 * (m1 + m2 + m4 + md) * (m1 + m2 + m4 - md)
                delta = md * mp.sqrt(md**2 * (m1 - m4) ** 2 + 4 * m1 * m4 * (m1 + m2) * (m2 + m4))
                minus = (2 * m1 * (m1 + m2) * (m1 + m2 + m4) - md**2 * (m1 - m4) - delta) / f
                assert minus <= m1 or min(minus, m1 + m2 - minus, minus - m1 + m4) <= 0, p
            f = 2.0 * (a1 + a2 + a4 + d) * (a1 + a2 + a4 - d)
            delta = d * math.sqrt(d * d * (a1 - a4) ** 2 + 4.0 * a1 * a4 * (a1 + a2) * (a2 + a4))
            plus = (2.0 * a1 * (a1 + a2) * (a1 + a2 + a4) - d * d * (a1 - a4) + delta) / f
            css = solve_theorem2(p).css
            if css is not None:  # None: the CSS failed validation
                with_css += 1
                assert repr(css.r1) == repr(plus), p
        assert with_css >= 0.9 * len(states)

    def test_horodecki_reduction(self):
        p = params_for("theorem2_example", 0.6, 0.0, 0.25, 0.15)
        result = solve_theorem2(p)
        expected = closed_form_family_ree("horodecki", (0.6, 0.25, 0.15))
        assert result.ree == pytest.approx(expected, abs=1e-10)

    def test_symmetric_outer_weights(self):
        p = params_for("theorem2_example", 0.6, 0.1, 0.15, 0.15)
        result = solve_theorem2(p)
        assert result.css.r1 == pytest.approx(result.css.r4, abs=1e-12)

    def test_outer_swap_symmetry(self):
        a = solve_theorem2(params_for("theorem2_example", 0.5, 0.1, 0.25, 0.15))
        b = solve_theorem2(params_for("theorem2_example", 0.5, 0.1, 0.15, 0.25))
        assert a.ree == pytest.approx(b.ree, abs=1e-10)
        assert a.css.r1 == pytest.approx(b.css.r4, abs=1e-12)
        assert a.css.r4 == pytest.approx(b.css.r1, abs=1e-12)

    def test_published_example_formulas(self):
        # independent closed form for the four-weight mixture family
        p1, p2, q1, q2 = 0.5, 0.1, 0.25, 0.15
        delta = (p1 - p2) / 4 * math.sqrt(
            4 * q1 * q2 * (p1 + p2 + 2 * q1) * (p1 + p2 + 2 * q2)
            + (p1 - p2) ** 2 * (q1 - q2) ** 2
        )
        den = 8 * (p1 + q1 + q2) * (p2 + q1 + q2)
        r1 = (
            2 * q1 * (p1 + p2 + 2 * q1) * (p1 + p2 + 2 * q1 + 2 * q2)
            - (p1 - p2) ** 2 * (q1 - q2)
            + 4 * delta
        ) / den
        r2 = (
            (p1 + p2 + 2 * q1) * (p1 + p2 + 2 * q2) * (p1 + p2 + 2 * q1 + 2 * q2)
            - (p1 - p2) ** 2
            - 4 * delta
        ) / den
        result = solve_theorem2(params_for("theorem2_example", p1, p2, q1, q2))
        assert result.css.r1 == pytest.approx(r1, abs=1e-12)
        assert result.css.r2 == pytest.approx(r2, abs=1e-12)

    def test_residuals_on_random_inputs(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p = random_entangled_params(rng, "theorem2")
            result = solve_theorem2(p)
            assert result.residual_max < 1e-9

    @pytest.mark.parametrize(
        "values",
        [
            (1e-12, 0.49999999999950007, 0.49999999999950007, 1e-300, 0.5000000000005),
            (0.0, 0.49999999999949996, 0.49999999999949996, 1e-12, 0.5000000000004999),
        ],
    )
    @pytest.mark.parametrize("num", [float, np.float64])
    def test_zero_normaliser_fails_without_raising(self, values, num):
        # d = sqrt(a2 a3 + 1e-12), inside the coherence slack, equals
        # a1 + a2 + a4 here, so F = 2 (a1+a2+a4+d)(a1+a2+a4-d) is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = compute_ree(x_state(*map(num, values)))
        assert result.branch == BRANCH_FAILURE
        assert result.diagnostics.endswith("reaches a1 + a2 + a4: F = 0.0")

    def test_wrong_branch_rejected(self):
        with pytest.raises(WrongBranchError):
            solve_theorem2(x_state(0.0, 0.6, 0.4, 0.0, 0.3))  # outer corner empty
        with pytest.raises(WrongBranchError):
            solve_theorem2(x_state(0.1, 0.45, 0.35, 0.1, 0.25))  # asymmetric


class TestTheorem3:
    def test_rains_root(self):
        result = solve_theorem3(RAINS_PARAMS)
        assert result.branch == BRANCH_THEOREM3
        assert result.css.r1 == pytest.approx(1 / 6, abs=1e-9)
        assert result.css.r2 == pytest.approx(55 / 144, abs=1e-9)
        assert result.css.r3 == pytest.approx(41 / 144, abs=1e-9)
        assert result.css.r4 == pytest.approx(1 / 6, abs=1e-9)
        assert result.css.y == pytest.approx(1 / 6, abs=1e-9)

    def test_six_digit_regression(self):
        result = solve_theorem3(params_for("theorem3_example", *SIX_DIGIT_WEIGHTS))
        assert result.css.r1 == pytest.approx(0.139198, abs=1e-5)
        assert result.css.r2 == pytest.approx(0.405896, abs=1e-5)
        assert result.css.r3 == pytest.approx(0.285707, abs=1e-5)
        assert result.css.r4 == pytest.approx(0.169198, abs=1e-5)
        assert result.css.y == pytest.approx(0.153467, abs=1e-5)

    def test_failure_case(self):
        result = solve_theorem3(params_for("theorem3_example", *FAILURE_WEIGHTS))
        assert result.branch == BRANCH_FAILURE
        assert result.ree is None and result.css is None

    def test_residuals_on_random_inputs(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 60:
            p = random_entangled_params(rng, "theorem3")
            result = solve_theorem3(p)
            if result.branch == BRANCH_FAILURE:
                continue
            assert result.residual_max < 1e-8
            assert result.css.y == pytest.approx(
                math.sqrt(result.css.r1 * result.css.r4), abs=1e-10
            )
            done += 1

    def test_failure_diagnostics_counts(self):
        result = solve_theorem3(params_for("theorem3_example", *FAILURE_WEIGHTS))
        assert result.diagnostics.endswith(
            "over 2000 grid points per sign branch (0 brackets, 0 rejected)"
        )

    @pytest.mark.parametrize("field", ["residual_validation", "root_value_cap"])
    def test_rejected_root_is_counted(self, field):
        # Rains has one bracket; a zero bound on any root filter rejects it
        tol = replace(default_tolerances(), **{field: 0.0})
        result = solve_theorem3(RAINS_PARAMS, tol)
        assert result.branch == BRANCH_FAILURE
        assert result.diagnostics.endswith("(1 brackets, 1 rejected)")

    def test_side_condition_is_bounded_by_the_residuals(self):
        # with x h = r1 - a1 and y^2 = r1 r4, S = -u res_c - 2 y res_e, so the
        # residual check bounds the side condition and no filter of its own is due
        rng = np.random.default_rng(7)
        ps = [random_entangled_params(rng, "theorem3") for _ in range(400)]
        validated = 0
        for p, result in zip(ps, compute_ree_many(ps)):
            if result.branch != BRANCH_THEOREM3:
                continue
            c = result.css
            side = (
                (c.r2 - c.r3) * (p.a2 - c.r2) + 2.0 * c.y * (p.d - c.y)
                - 2.0 * c.r2 * (c.r1 - p.a1)
            )
            assert abs(side) <= 2.0 * max(c.r2, c.r3) * result.residual_max + 1e-15
            validated += 1
        assert validated >= 370

    def test_bisection_matches_scalar_reference(self):
        tol = default_tolerances()
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_entangled_params(rng, "theorem3")
            c = _T3Constants(*_t3_table([p]))
            grid = np.linspace(p.a1 + 1e-12, 0.5 * (1.0 + p.a1 - p.a4), 200)
            for sign in (1.0, -1.0):
                vals = _t3_equation(grid, np.array(sign), c)
                cells = [
                    i
                    for i in range(len(grid) - 1)
                    if np.isfinite(vals[i : i + 2]).all() and vals[i] * vals[i + 1] < 0.0
                ]
                if not cells:
                    continue
                got = _bisect_t3(
                    grid[cells], grid[[i + 1 for i in cells]], vals[cells],
                    np.full(len(cells), sign), _t3_table([p] * len(cells)), tol,
                )
                for i, root in zip(cells, got):
                    a, b, fa = float(grid[i]), float(grid[i + 1]), float(vals[i])
                    while b - a > tol.root_bisect_tol:
                        mid = 0.5 * (a + b)
                        fm = float(_t3_equation(np.array([mid]), np.array(sign), c)[0])
                        if fa * fm <= 0.0:
                            b = mid
                        else:
                            a, fa = mid, fm
                    assert root == 0.5 * (a + b)

    def test_each_bracket_stops_on_its_own(self, monkeypatch):
        # roots at 0.3 and 0.65; the second bracket's first midpoint is nan,
        # and the third bracket has zero width
        def reduction(r1, sign, p):
            f = r1 - np.where(r1 < 0.45, 0.3, 0.65)
            return np.where(r1 == 0.6, np.nan, f)

        monkeypatch.setattr(ree_module, "_t3_equation", reduction)
        a, b = np.array([0.2, 0.5, 0.65]), np.array([0.4, 0.7, 0.65])
        fa = reduction(a, None, None)
        table = _t3_table([RAINS_PARAMS] * 3)
        roots = _bisect_t3(a, b, fa, np.ones(3), table, default_tolerances())
        assert roots[0] == pytest.approx(0.3, abs=1e-13)
        assert math.isnan(roots[1])
        assert roots[2] == 0.65

    def test_nan_root_is_a_rejected_bracket(self, monkeypatch):
        monkeypatch.setattr(
            ree_module, "_bisect_t3", lambda a, b, fa, sign, p, tol: np.full(a.shape, np.nan)
        )
        result = solve_theorem3(RAINS_PARAMS)
        assert result.branch == BRANCH_FAILURE
        assert result.diagnostics.endswith("(1 brackets, 1 rejected)")


class TestComputeReeDispatch:
    def test_diagonal_is_separable(self):
        result = compute_ree(x_state(0.4, 0.3, 0.2, 0.1, 0.0))
        assert result.branch == BRANCH_SEPARABLE
        assert result.ree == 0.0

    def test_rains_routes_to_theorem3(self):
        result = compute_ree(RAINS_PARAMS)
        assert result.branch == BRANCH_THEOREM3
        assert result.ree == pytest.approx(RAINS_REE, abs=1e-12)

    def test_vp_routes_to_theorem1(self):
        result = compute_ree(params_for("vp", 0.5, 0.3, 0.2))
        assert result.branch == BRANCH_THEOREM1
        lam = 0.5 * (1.0 + math.sqrt(0.26))
        assert result.ree == pytest.approx(
            binary_entropy(0.55) - binary_entropy(lam), abs=1e-12
        )

    def test_validation_gates_hold_on_batch(self, validated_batch):
        for params, result in validated_batch:
            assert result.branch in (BRANCH_THEOREM1, BRANCH_THEOREM2, BRANCH_THEOREM3)
            assert result.residual_max < 1e-8
            # multiplier positivity: r1 >= a1 (x > 0) on every branch
            assert result.css.r1 >= params.a1 - 1e-12
            assert result.css.x >= 0.0

    def test_near_degenerate_matches_symmetric_projection_or_grid_miss(self):
        result = compute_ree(x_state(0.1, 0.35 + 1e-9, 0.35 - 1e-9, 0.2, 0.25))
        assert result.branch in (BRANCH_THEOREM3, BRANCH_FAILURE)
        if result.branch == BRANCH_THEOREM3:
            symmetric = compute_ree(x_state(0.1, 0.35, 0.35, 0.2, 0.25))
            assert symmetric.branch == BRANCH_THEOREM2
            assert abs(result.ree - symmetric.ree) < 1e-7
        else:
            # a grid miss of the reduction, not a CSS that failed validation
            assert result.diagnostics.startswith(
                "no valid root of the one-variable reduction"
            )


def _threshold_states():
    """(state, its branch) pairs just below and just above each routing threshold."""
    cases = []
    for scale, below in ((0.5, True), (2.0, False)):
        t = scale * _BRANCH_ZERO
        # a1 and a4 at the branch-zero threshold, one or both of them
        for a1, a4 in ((t, t), (t, 0.0), (0.0, t)):
            half = 0.5 * (1.0 - a1 - a4)
            mid = XStateParams(a1, half, half, a4, 0.3)
            skew = XStateParams(a1, 0.6 - a1, 0.4 - a4, a4, 0.3)
            cases.append((mid, BRANCH_THEOREM1 if below else BRANCH_THEOREM2))
            cases.append((skew, BRANCH_THEOREM1 if below else BRANCH_THEOREM3))
        # a2 - a3 at the branch-equal threshold
        e = 0.5 * scale * _BRANCH_EQUAL
        near = XStateParams(0.1, 0.4 + e, 0.4 - e, 0.1, 0.3)
        cases.append((near, BRANCH_THEOREM2 if below else BRANCH_THEOREM3))
        # d^2 - a1 a4 at the entanglement margin, on each entangled branch
        m = scale * _ENTANGLEMENT_MARGIN
        for a1, a2, a3, a4, branch in (
            (0.0, 0.6, 0.4, 0.0, BRANCH_THEOREM1),
            (0.1, 0.4, 0.4, 0.1, BRANCH_THEOREM2),
            (0.1, 0.45, 0.35, 0.1, BRANCH_THEOREM3),
        ):
            d = math.sqrt(a1 * a4 + m)
            cases.append((XStateParams(a1, a2, a3, a4, d), BRANCH_SEPARABLE if below else branch))
    return cases


class TestRouting:
    def _draws(self):
        rng = np.random.default_rng(16)
        draws = [(random_separable_params(rng), BRANCH_SEPARABLE) for _ in range(25)]
        for kind in (BRANCH_THEOREM1, BRANCH_THEOREM2, BRANCH_THEOREM3):
            draws += [(random_entangled_params(rng, kind), kind) for _ in range(25)]
        return draws

    def test_each_state_routes_to_its_branch(self):
        for p, branch in self._draws() + _threshold_states():
            assert _branch_of(p) == branch, p
        assert {branch for _, branch in _threshold_states()} == {
            BRANCH_SEPARABLE, BRANCH_THEOREM1, BRANCH_THEOREM2, BRANCH_THEOREM3,
        }

    def test_solvers_reject_exactly_the_other_branches(self):
        solvers = (
            (solve_theorem1, BRANCH_THEOREM1),
            (solve_theorem2, BRANCH_THEOREM2),
            (solve_theorem3, BRANCH_THEOREM3),
        )
        for p, branch in self._draws() + _threshold_states():
            for solver, own in solvers:
                if branch == own:
                    assert solver(p).branch in (own, BRANCH_FAILURE)
                else:
                    with pytest.raises(WrongBranchError):
                        solver(p)
            assert compute_ree(p).branch in (branch, BRANCH_FAILURE), p


class TestClosedFormFamilies:
    def test_bell_diagonal_pure_limit(self):
        assert closed_form_family_ree("bell_diagonal", (0, 0, 1, 0)) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_bell_diagonal_requires_maximal_third_weight(self):
        with pytest.raises(Exception):
            closed_form_family_ree("bell_diagonal", (0.6, 0.1, 0.2, 0.1))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: closed_form_family_ree("bell_diagonal", (0.5, 0.5)),
             "bell_diagonal requires 4 weights"),
            (lambda: closed_form_family_ree("vp", (0.25,) * 4), "vp requires 3 weights"),
            (lambda: closed_form_family_ree("Horodecki", (0.5, 0.5)),
             "horodecki requires 3 weights"),
            (lambda: closed_form_family_ree("rains", (1.0,)), "no closed form for family 'rains'"),
            # the simplex check comes before the family lookup
            (lambda: closed_form_family_ree("rains", (0.5,)), "rains: weights sum to 0.5, not 1"),
            (lambda: named_state("vp", 0.5, 0.5), "vp requires 3 weights"),
        ],
        ids=["bell-arity", "vp-arity", "horodecki-arity", "unknown", "simplex-first", "named"],
    )
    def test_arity_and_family_errors(self, call, message):
        with pytest.raises(InvalidStateError) as exc:
            call()
        assert str(exc.value) == message

    def test_vp_exchange_symmetry(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            w = rng.dirichlet((1, 1, 1))
            a = closed_form_family_ree("vp", (w[0], w[1], w[2]))
            b = closed_form_family_ree("vp", (w[0], w[2], w[1]))
            assert a == pytest.approx(b, abs=1e-12)

    def test_horodecki_exchange_symmetry(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            w = rng.dirichlet((1, 1, 1))
            a = closed_form_family_ree("horodecki", (w[0], w[1], w[2]))
            b = closed_form_family_ree("horodecki", (w[0], w[2], w[1]))
            assert a == pytest.approx(b, abs=1e-12)

    def test_horodecki_vs_theorem2_path(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            l1, l2, l3 = rng.dirichlet((2, 1, 1))
            if l1 < 0.05 or min(l2, l3) < 1e-3:
                continue
            p = x_state(l2, l1 / 2, l1 / 2, l3, l1 / 2)
            if not is_entangled(p):
                continue
            closed = closed_form_family_ree("horodecki", (l1, l2, l3))
            assert solve_theorem2(p).ree == pytest.approx(closed, abs=1e-10)


class TestCrossBranchProperties:
    def test_outer_swap_invariance_full_dispatch(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            p = random_entangled_params(rng)
            swapped = x_state(p.a4, p.a2, p.a3, p.a1, p.d, p.phi)
            a, b = compute_ree(p), compute_ree(swapped)
            if BRANCH_FAILURE in (a.branch, b.branch):
                assert a.branch == b.branch
                continue
            assert a.ree == pytest.approx(b.ree, abs=1e-10)

    def test_monotone_decay_toward_boundary(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            p = random_entangled_params(rng, "theorem2")
            lo = math.sqrt(p.a1 * p.a4)
            values = []
            for k in range(10, -1, -1):
                d = lo + (p.d - lo) * k / 10.0
                q = x_state(p.a1, p.a2, p.a3, p.a4, d, p.phi)
                result = compute_ree(q)
                assert result.branch != BRANCH_FAILURE
                values.append(result.ree)
            for earlier, later in zip(values, values[1:]):
                assert later <= earlier + 1e-12
            assert values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_theorem1_epsilon_limit_consistency(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            p = random_entangled_params(rng, "theorem1")
            closed = solve_theorem1(p).ree
            eps = 1e-8
            css = css_solution(
                eps,
                p.a2 - eps,
                p.a3 - eps,
                eps,
                eps,
                p.phi,
                _multiplier(eps, eps, 0.0),
            )
            assert ree_from_css(p, css) == pytest.approx(closed, abs=1e-6)

    def test_dual_path_on_batch(self, validated_batch):
        for params, result in validated_batch[:300]:
            formula = ree_from_css(params, result.css)
            spectral = relative_entropy(
                to_density_matrix(params), css_to_density_matrix(result.css)
            )
            assert abs(formula - spectral) < 1e-9
