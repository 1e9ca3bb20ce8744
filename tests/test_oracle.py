"""Brute-force oracle: feasibility, determinism, warm starts, fingerprints."""

import hashlib
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xree import (
    BRANCH_FAILURE,
    BRANCH_THEOREM3,
    OracleConfig,
    closed_form_family_ree,
    compute_ree,
    css_to_x_params,
    from_density_matrix,
    hermitian_eig,
    min_eig_pt,
    named_state,
    oracle_ree,
    oracle_validate,
    partial_transpose,
    relative_entropy,
    to_density_matrix,
    x_state,
)
import xree.oracle
from xree.errors import InvalidStateError, NotInFamilyError, NumericalError
from xree.oracle import (
    _BLOCK_ROWS,
    _NELDER_MEAD,
    _decode,
    _encode,
    _nelder_mead,
    _objective_many,
    _pad_mixture,
    _values,
    minimize,
    product_mixture_matrix,
    separable_x_decomposition,
    structure_fingerprint,
)
from xree.qmath import DensityMatrix
from xree.states import RAINS_PARAMS

from conftest import random_entangled_params, random_separable_params

FAST = OracleConfig(num_product_terms=8, restarts=2, max_iterations=400, rng_seed=5)
FAILURE_PARAMS = from_density_matrix(
    named_state("theorem3_example", 0.66, 0.05, 0.07, 0.04, 0.18)
)
HORODECKI_PARAMS = from_density_matrix(named_state("horodecki", 0.6, 0.25, 0.15))


class TestProductDecomposition:
    def test_reconstructs_closed_form_css(self):
        result = compute_ree(RAINS_PARAMS)
        params = css_to_x_params(result.css)
        w, ka, kb = separable_x_decomposition(params)
        rebuilt = product_mixture_matrix(w, ka, kb)
        target = to_density_matrix(params).matrix
        assert np.max(np.abs(rebuilt - target)) < 1e-14
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(w >= 0.0)

    def test_reconstructs_random_separable_members(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            p = random_separable_params(rng)
            w, ka, kb = separable_x_decomposition(p)
            rebuilt = product_mixture_matrix(w, ka, kb)
            assert np.max(np.abs(rebuilt - to_density_matrix(p).matrix)) < 1e-13

    @pytest.mark.parametrize(
        "params",
        [(0.5, 0.25, 0.25, 0.0, 1e-7), (0.2, 0.7, 1e-300, 0.1, 1e-7)],
        ids=["inside-the-ppt-slack", "inside-the-psd-slack"],
    )
    def test_coherence_inside_the_slacks_is_projected(self, params):
        # d is inside the slack of the PPT or the PSD test, so the state
        # decomposed is the one with d = min(d, sqrt(a1 a4), sqrt(a2 a3))
        p = x_state(*params)
        w, ka, kb = separable_x_decomposition(p)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(w >= 0.0)
        a1, a2, a3, a4 = p.diag()
        projected = x_state(a1, a2, a3, a4, min(p.d, math.sqrt(a1 * a4), math.sqrt(a2 * a3)))
        rebuilt = product_mixture_matrix(w, ka, kb)
        assert np.max(np.abs(rebuilt - to_density_matrix(projected).matrix)) < 1e-14

    def test_entangled_input_rejected(self):
        with pytest.raises(Exception):
            separable_x_decomposition(RAINS_PARAMS)

    def test_subnormal_population_does_not_overflow(self):
        # y sqrt(a3/a2) overflows with a2 = 3.2e-314
        tiny = 3.2e-314
        p = x_state(0.3, tiny, 0.4, 0.3 - tiny, math.sqrt(tiny * 0.4))
        w, ka, kb = separable_x_decomposition(p)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        rebuilt = product_mixture_matrix(w, ka, kb)
        assert np.max(np.abs(rebuilt - to_density_matrix(p).matrix)) < 1e-12

    # the PPT-projection warm start decomposes a state with a subnormal
    # population; an infinite weight ended in a ZeroDivisionError or, through
    # a NaN logit, in numpy's LinAlgError
    @pytest.mark.parametrize(
        "params",
        [
            (1e-7, 3.2e-314, 1.0 - 2e-7 - 3.2e-314, 1e-7, 5e-7),
            (0.48766979718736775, 0.4834835444438873, 0.028846658368744997,
             5.1009656403183e-311, 5e-7),
        ],
        ids=["subnormal-a2", "subnormal-a4"],
    )
    def test_oracle_runs_on_a_subnormal_population(self, params):
        q = x_state(*params)
        report = oracle_validate(q, compute_ree(q), OracleConfig(8, 0, 3))
        assert math.isfinite(report.oracle.ree_upper_bound)


class TestOracleRee:
    def test_bell_state_ln2(self):
        rho = named_state("vp", 1.0, 0.0, 0.0)
        result = oracle_ree(rho, OracleConfig(rng_seed=7))
        assert abs(result.ree_upper_bound - math.log(2.0)) < 5e-4

    def test_separable_diagonal_near_zero(self):
        rho = to_density_matrix(x_state(0.4, 0.3, 0.2, 0.1, 0.0))
        result = oracle_ree(rho, FAST)
        assert abs(result.ree_upper_bound) < 1e-6

    def test_rains_matches_closed_form(self):
        closed = compute_ree(RAINS_PARAMS)
        result = oracle_ree(to_density_matrix(RAINS_PARAMS), OracleConfig(rng_seed=3))
        assert abs(result.ree_upper_bound - closed.ree) < 5e-4

    def test_warm_start_never_worsens(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            p = random_entangled_params(rng)
            closed = compute_ree(p)
            if closed.ree is None:
                continue
            result = oracle_ree(to_density_matrix(p), FAST, closed=closed)
            assert result.ree_upper_bound <= closed.ree + 1e-9

    def test_upper_bound_property(self):
        rng = np.random.default_rng(97)
        for _ in range(5):
            p = random_entangled_params(rng)
            closed = compute_ree(p)
            if closed.ree is None:
                continue
            result = oracle_ree(to_density_matrix(p), FAST, closed=closed)
            assert result.ree_upper_bound >= closed.ree - 1e-6

    def test_determinism(self):
        cfg = OracleConfig(num_product_terms=8, restarts=3, max_iterations=300, rng_seed=42)
        rho = to_density_matrix(RAINS_PARAMS)
        a = oracle_ree(rho, cfg)
        b = oracle_ree(rho, cfg)
        assert a.ree_upper_bound == b.ree_upper_bound
        assert np.array_equal(a.sigma.matrix, b.sigma.matrix)
        assert np.array_equal(a.weights, b.weights)
        assert a.restart_best_index == b.restart_best_index
        assert a.iterations_used == b.iterations_used

    # The 300-evaluation bound is still the same at 1000 evaluations, so it
    # does not see a last-bit change in the objective (such as the einsum
    # quadratic form written as a sum); the 2000-evaluation bound does.
    @pytest.mark.parametrize(
        "iterations, bound, digest",
        [
            pytest.param(
                300,
                "0x1.0a97411797678p-3",
                "3711ce4cf51831daba3c02065166f72c631c6aac5417f213ce97ac19b654379e",
                id="300",
            ),
            pytest.param(
                2000,
                "0x1.0a974117935dcp-3",
                "b347b78207a3bd5534ddc6d6b467814764f3196d99c6b8c45f09deed014f1d06",
                id="2000",
            ),
        ],
    )
    def test_seeded_bits_are_pinned(self, iterations, bound, digest):
        cfg = OracleConfig(
            num_product_terms=8, restarts=2, max_iterations=iterations, rng_seed=7
        )
        result = oracle_ree(to_density_matrix(RAINS_PARAMS), cfg)
        assert result.ree_upper_bound.hex() == bound
        assert result.iterations_used == iterations
        assert result.restart_best_index == 0
        mixture = hashlib.sha256(result.weights.tobytes())
        mixture.update(result.qubit_a.tobytes() + result.qubit_b.tobytes())
        assert mixture.hexdigest() == digest

    def test_sigma_feasibility(self):
        rng = np.random.default_rng(101)
        for _ in range(4):
            p = random_entangled_params(rng)
            result = oracle_ree(to_density_matrix(p), FAST)
            pt_min = hermitian_eig(partial_transpose(result.sigma)).values[0]
            assert pt_min > -1e-10
            assert np.all(result.weights >= 0.0)
            assert result.weights.sum() == pytest.approx(1.0, abs=1e-12)
            for kets in (result.qubit_a, result.qubit_b):
                norms = np.linalg.norm(kets, axis=1)
                assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_bound_recomputed_from_sigma(self):
        result = oracle_ree(to_density_matrix(RAINS_PARAMS), FAST)
        direct = relative_entropy(to_density_matrix(RAINS_PARAMS), result.sigma)
        assert result.ree_upper_bound == pytest.approx(direct, abs=1e-12)

    def test_state_outside_the_family(self):
        # unequal first two Bell weights put weight on the (0, 3) corner, so
        # there is no closed form to seed the search with
        weights = (0.1, 0.2, 0.6, 0.1)
        rho = named_state("bell_diagonal", *weights)
        with pytest.raises(NotInFamilyError):
            from_density_matrix(rho)
        a = oracle_ree(rho, FAST)
        assert a.ree_upper_bound >= closed_form_family_ree("bell_diagonal", weights) - 1e-12
        assert min_eig_pt(a.sigma) >= -1e-9
        assert oracle_ree(rho, FAST).sigma.matrix.tobytes() == a.sigma.matrix.tobytes()

    # warm starts of 6 terms (Rains', Horodecki's and the failure state) and
    # 8 (the separable state) at mixture sizes below them
    @pytest.mark.parametrize("k", [4, 5, 7])
    @pytest.mark.parametrize(
        "p",
        [RAINS_PARAMS, HORODECKI_PARAMS, FAILURE_PARAMS, x_state(0.3, 0.2, 0.2, 0.3, 0.1)],
        ids=["rains", "horodecki", "failure", "separable"],
    )
    def test_warm_starts_larger_than_the_mixture_are_skipped(self, p, k):
        closed = compute_ree(p)
        cfg = OracleConfig(num_product_terms=k, restarts=1, max_iterations=200, rng_seed=5)
        result = oracle_ree(to_density_matrix(p), cfg, closed=closed)
        assert math.isfinite(result.ree_upper_bound)
        assert result.weights.shape == (k,)
        if closed.ree is not None:
            assert result.ree_upper_bound >= closed.ree - 1e-9

    def test_min_terms_enforced(self):
        with pytest.raises(Exception):
            OracleConfig(num_product_terms=3)

    def test_negative_seed_rejected(self):
        # np.random.default_rng rejects it only after the solve
        with pytest.raises(InvalidStateError, match="rng_seed"):
            OracleConfig(rng_seed=-1)


def _decode_per_qubit(x, k):
    """The per-qubit np.stack formula that _decode must reproduce bit for bit."""
    logits = x[:k]
    shifted = logits - logits.max()
    w = np.exp(shifted)
    w /= w.sum()
    kets = []
    for start in (k, 3 * k):
        theta, phi = x[start : start + k], x[start + k : start + 2 * k]
        kets.append(
            np.stack([np.cos(theta / 2.0), np.sin(theta / 2.0) * np.exp(1j * phi)], axis=1)
        )
    return w, kets[0], kets[1]


class TestDecode:
    @pytest.mark.parametrize("k", [4, 16])
    def test_bit_identical_to_per_qubit_stack(self, k):
        rng = np.random.default_rng(1005)
        for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
            for _ in range(50):
                x = rng.normal(0.0, scale, 5 * k)
                for start in (k, 3 * k):
                    x[start : start + 3] = (0.0, math.pi, 2.0 * math.pi)
                    x[start + k : start + k + 3] = -np.abs(x[start + k : start + k + 3])
                for got, want in zip(_decode(x, k), _decode_per_qubit(x, k)):
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert np.array_equal(got, want)
                    assert got.tobytes() == want.tobytes()


def _objective_per_point(x, rm, tr_rho_ln_rho):
    """The one-point objective formula that _objective_many must reproduce per row."""
    w, ka, kb = _decode_per_qubit(x, len(x) // 5)
    kets = (ka[:, :, None] * kb[:, None, :]).reshape(len(w), 4)
    sigma = (w[:, None] * kets).T @ kets.conj()
    sigma *= 1.0 - 1e-9
    sigma += 1e-9 * np.eye(4) / 4.0
    vals, vecs = np.linalg.eigh(sigma)
    quad = np.real(np.einsum("ij,ij->j", vecs.conj(), rm @ vecs))
    return tr_rho_ln_rho - float(np.log(np.maximum(vals, 1e-300)) @ quad)


def _oracle_objective(params):
    """(batched objective, rho matrix, tr rho ln rho) as oracle_ree builds them."""
    rm = to_density_matrix(params).matrix
    tr_rho_ln_rho = float(
        sum(v * math.log(v) for v in np.linalg.eigvalsh(rm) if v > 1e-15)
    )
    return (lambda x: _objective_many(x, rm, tr_rho_ln_rho)), rm, tr_rho_ln_rho


SEPARABLE_DIAGONAL = x_state(0.4, 0.3, 0.2, 0.1, 0.0)


def _warm_start(params, k):
    return _encode(*_pad_mixture(*separable_x_decomposition(params), k))


class TestObjectiveMany:
    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_rows_bit_identical_to_per_point_formula(self, k):
        rng = np.random.default_rng(1017)
        rows = [rng.normal(0.0, scale, 5 * k) for scale in (1e-3, 1.0, 1e2) for _ in range(60)]
        # padded zero-weight terms and rank-deficient product mixtures
        for params in (
            SEPARABLE_DIAGONAL,
            x_state(1.0, 0.0, 0.0, 0.0, 0.0),
            x_state(0.25, 0.25, 0.25, 0.25, 0.25),
            css_to_x_params(compute_ree(RAINS_PARAMS).css),
            random_separable_params(rng),
        ):
            try:
                rows.append(_warm_start(params, k))
            except InvalidStateError:
                assert k < 8
        stack = np.array(rows)
        for params in (RAINS_PARAMS, SEPARABLE_DIAGONAL, random_entangled_params(rng)):
            _, rm, tr_rho_ln_rho = _oracle_objective(params)
            got = _objective_many(stack, rm, tr_rho_ln_rho)
            want = np.array([_objective_per_point(x, rm, tr_rho_ln_rho) for x in stack])
            assert got.tobytes() == want.tobytes()
            for block in (stack[:1], stack[5:133]):
                assert _objective_many(block, rm, tr_rho_ln_rho).tobytes() == (
                    np.array([_objective_per_point(x, rm, tr_rho_ln_rho) for x in block]).tobytes()
                )


def _run_alone(fun, x0, maxfev, xatol, fatol):
    """Drive one _nelder_mead run: its (sim, fsim, nfev) and its cut budgets.

    A cut budget runs out exactly where an expansion (xe), a contraction
    (xc) or a shrink (shrunk) starts: it is the evaluation count before that
    step's first point. The step a yield serves is read off the generator's
    frame, since the yielded rows are views of that local.
    """
    run = _nelder_mead(x0, maxfev, xatol, fatol)
    cuts = {"xe": [], "xc": [], "shrunk": []}
    nfev = 0
    rows = next(run)
    try:
        while True:
            local = run.gi_frame.f_locals
            for name, found in cuts.items():
                if rows.base is local.get(name):
                    found.append(nfev)
            nfev += len(rows)
            rows = run.send(fun(rows))
    except StopIteration as stop:
        return stop.value, cuts


def _scipy_run(fun, x0, budget, xatol, fatol):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    options = {"maxfev": budget, "maxiter": budget, "xatol": xatol, "fatol": fatol}
    return scipy_optimize.minimize(
        lambda x: fun(x[None])[0], x0, method="Nelder-Mead", options={**options, "adaptive": True}
    )


def _assert_rows_match_scipy(fun, res, starts, budgets, xatol, fatol):
    assert res.x.shape == starts.shape
    assert res.nfev == sum(res.nfevs) and res.success == all(res.successes)
    for row, (x0, budget) in enumerate(zip(starts, budgets)):
        want = _scipy_run(fun, x0, int(budget), xatol, fatol)
        assert res.x[row].tobytes() == want.x.tobytes()
        assert res.fun[row].hex() == float(want.fun).hex()
        assert (res.nfevs[row], res.successes[row]) == (want.nfev, want.success)
        (sim, fsim, nfev), _ = _run_alone(fun, x0, int(budget), xatol, fatol)
        assert sim.tobytes() == want.final_simplex[0].tobytes()
        assert fsim.tobytes() == want.final_simplex[1].tobytes()
        assert nfev == want.nfev


class TestLockstepNelderMead:
    """xree.oracle.minimize against scipy's adaptive Nelder-Mead, bit for bit."""

    @pytest.mark.parametrize("k, horizon", [(4, 1300), (16, 1100)])
    def test_every_cut_matches_scipy(self, k, horizon):
        fun, _, _ = _oracle_objective(SEPARABLE_DIAGONAL)
        n = 5 * k
        warm = _warm_start(SEPARABLE_DIAGONAL, k)
        cold = np.random.default_rng(0).normal(0.0, 1.0, n)
        starts, budgets = [], []
        covered = set()
        for x0 in (warm, cold):
            _, cuts = _run_alone(fun, x0, horizon, **_NELDER_MEAD)
            picks = {1, n, n + 1, n + 2}
            for name, found in cuts.items():
                if found:
                    covered.add(name)
                    picks.add(found[0])
            if cuts["shrunk"]:
                picks |= {cuts["shrunk"][0] + 1, cuts["shrunk"][0] + n - 1}
            starts += [x0] * len(picks)
            budgets += sorted(picks)
        assert covered == {"xe", "xc", "shrunk"}
        starts, budgets = np.array(starts), np.array(budgets)
        res = minimize(fun, starts, maxfev=budgets, **_NELDER_MEAD)
        _assert_rows_match_scipy(fun, res, starts, budgets, **_NELDER_MEAD)

    def test_converged_seed_restarts_like_scipy(self):
        fun, _, _ = _oracle_objective(SEPARABLE_DIAGONAL)
        tols = {"xatol": 1e-2, "fatol": 1e-6}
        starts = np.array([_warm_start(SEPARABLE_DIAGONAL, 4), np.full(20, 0.5)])
        first = minimize(fun, starts, maxfev=400, **tols)
        _assert_rows_match_scipy(fun, first, starts, [400, 400], **tols)
        assert first.successes[0] and first.nfevs[0] < 400
        left = 400 - first.nfevs[:1]
        again = minimize(fun, first.x[:1], maxfev=left, **tols)
        _assert_rows_match_scipy(fun, again, first.x[:1], left, **tols)

    # Warm-start padding at weight 1e-12 moves the value by less than fatol,
    # so the value spread holds long before the x spread does. (1e-2, 0.0)
    # and (0.0, 1e-6) cannot stop by convergence: the values never tie, and
    # the simplex never collapses to a point.
    @pytest.mark.parametrize(
        "xatol, fatol, budget, converges",
        [
            (1e-9, 1e-10, 130000, True),
            (1e-2, 1e-6, 30000, True),
            (1e-2, 0.0, 5000, False),
            (0.0, 1e-6, 5000, False),
        ],
    )
    def test_convergence_test_matches_scipy(self, xatol, fatol, budget, converges):
        fun, _, _ = _oracle_objective(SEPARABLE_DIAGONAL)
        starts = _warm_start(SEPARABLE_DIAGONAL, 16)[None]
        res = minimize(fun, starts, maxfev=budget, xatol=xatol, fatol=fatol)
        _assert_rows_match_scipy(fun, res, starts, [budget], xatol, fatol)
        assert res.success == converges

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, math.inf, -math.inf, math.nan]),
                st.floats(),
            ),
            min_size=2,
            max_size=12,
        ),
        st.sampled_from([0.0, 1e-10, math.inf]),
    )
    # a[-1] - a[0] alone would read inf here, where scipy's form reads NaN
    @example([0.0, -math.inf, -math.inf], math.inf)
    def test_value_spread_test_is_scipys(self, values, fatol):
        # with xatol = inf the first round stops exactly when the value test holds
        run = _nelder_mead(np.ones(len(values) - 1), 100, math.inf, fatol)
        next(run)
        a = np.sort(np.array(values))  # argsort + take order, NaN last
        with np.errstate(invalid="ignore", over="ignore"):
            want = bool(np.max(np.abs(a[0] - a[1:])) <= fatol)
            try:
                run.send(np.array(values))
                stopped = False
            except StopIteration:
                stopped = True
        assert stopped == want


def _use_cpus(monkeypatch, cpus):
    """Make xree.oracle see cpus usable CPUs; None removes the call, as off Linux."""
    if cpus is None:
        monkeypatch.delattr(xree.oracle.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            xree.oracle.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )


def _refuse_fork():
    raise AssertionError("minimize forked a worker")


class TestCpuGroups:
    """minimize runs one group of rows per usable CPU, with the same bytes."""

    @staticmethod
    def _starts():
        fun, _, _ = _oracle_objective(SEPARABLE_DIAGONAL)
        rng = np.random.default_rng(0)
        warm, cold = _warm_start(SEPARABLE_DIAGONAL, 4), rng.normal(0.0, 1.0, (2, 20))
        starts = np.array([warm, cold[0], warm, cold[1], np.full(20, 0.5)])
        return fun, starts, np.array([1300, 21, 400, 1, 700])

    def test_every_cpu_count_gives_the_same_bytes(self, monkeypatch):
        # 16 CPUs is more than the 5 rows: one row per group
        fun, starts, budgets = self._starts()
        got = {}
        for cpus in (None, 1, 2, 3, 16):
            _use_cpus(monkeypatch, cpus)
            with monkeypatch.context() as m:
                if cpus in (None, 1):
                    m.setattr(os, "fork", _refuse_fork)
                res = minimize(fun, starts, maxfev=budgets, **_NELDER_MEAD)
            got[cpus] = [a.tobytes() for a in (res.x, res.fun, res.nfevs, res.successes)]
            assert multiprocessing.active_children() == []
        assert all(fields == got[1] for fields in got.values())

    def test_a_worker_error_is_raised_here(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        fun, starts, budgets = self._starts()
        parent = os.getpid()

        def fails_in_a_worker(rows):
            if os.getpid() != parent:
                raise FloatingPointError("rows of the worker's group")
            return fun(rows)

        with pytest.raises(FloatingPointError, match="worker's group"):
            minimize(fails_in_a_worker, starts, maxfev=budgets, **_NELDER_MEAD)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises_here(self, monkeypatch):
        _use_cpus(monkeypatch, 3)
        fun, starts, budgets = self._starts()
        parent = os.getpid()

        def dies_in_a_worker(rows):
            if os.getpid() != parent:
                os._exit(3)
            return fun(rows)

        with pytest.raises(NumericalError, match="exited with code 3"):
            minimize(dies_in_a_worker, starts, maxfev=budgets, **_NELDER_MEAD)
        assert multiprocessing.active_children() == []

    def test_an_error_here_stops_the_workers(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        fun, starts, budgets = self._starts()
        parent = os.getpid()

        def fails_here(rows):
            if os.getpid() == parent:
                raise FloatingPointError("rows of group 0")
            return fun(rows)

        with pytest.raises(FloatingPointError, match="group 0"):
            minimize(fails_here, starts, maxfev=budgets * 100, **_NELDER_MEAD)
        assert multiprocessing.active_children() == []


class TestValues:
    @pytest.mark.parametrize(
        "sizes", [[1] * 11, [81] * 11, [80, 1, 1], [32], [33]], ids=["11x1", "11x81", "80-1-1", "32", "33"]
    )
    def test_blocks_keep_stack_order(self, sizes):
        fun, _, _ = _oracle_objective(RAINS_PARAMS)
        rng = np.random.default_rng(18)
        stacks = [rng.normal(0.0, 1.0, (m, 20)) for m in sizes]
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return fun(rows)

        got = _values(counted, stacks)
        assert max(calls) <= _BLOCK_ROWS and sum(calls) == sum(sizes)
        assert got.tobytes() == fun(np.concatenate(stacks)).tobytes()


# The default config is what the CLI and criterion 5 run; the seeded
# oracle document's config cannot see every last-bit objective change.
DEFAULT_CONFIG_PINS = [
    pytest.param(
        FAILURE_PARAMS,
        BRANCH_FAILURE,
        "0x1.3f0a3b294ec98p-3",
        1,
        "1a22176ab05df97307ea4990f351779221acfb3fefdd0defedb05aba44aeccc0",
        id="failure-cold",
    ),
    pytest.param(
        RAINS_PARAMS,
        BRANCH_THEOREM3,
        "0x1.0a974117b4724p-3",
        0,
        "e9ad4e0baa7898fb14b2f511f245182438b08b715e2df2735c8842d4c3f001b8",
        id="rains-warm",
    ),
]


class TestOracleValidate:
    def test_rains_report(self):
        closed = compute_ree(RAINS_PARAMS)
        report = oracle_validate(RAINS_PARAMS, closed, OracleConfig(rng_seed=13))
        assert report.closed_ree == closed.ree
        assert report.abs_difference < 5e-4

    def test_vp_report(self):
        p = from_density_matrix(named_state("vp", 0.5, 0.3, 0.2))
        closed = compute_ree(p)
        report = oracle_validate(p, closed, OracleConfig(rng_seed=17))
        assert report.abs_difference < 5e-4

    @pytest.mark.parametrize("p, branch, bound, best, digest", DEFAULT_CONFIG_PINS)
    def test_default_config_bits_are_pinned(self, p, branch, bound, best, digest):
        closed = compute_ree(p)
        assert closed.branch == branch
        result = oracle_validate(p, closed, OracleConfig()).oracle
        assert result.ree_upper_bound.hex() == bound
        assert (result.iterations_used, result.restart_best_index) == (2000, best)
        assert result.converged is False
        mixture = hashlib.sha256(result.weights.tobytes())
        mixture.update(result.qubit_a.tobytes() + result.qubit_b.tobytes())
        assert mixture.hexdigest() == digest

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("p, branch, bound, best, digest", DEFAULT_CONFIG_PINS)
    def test_default_config_bits_on_one_and_two_cpus(
        self, monkeypatch, cpus, p, branch, bound, best, digest
    ):
        _use_cpus(monkeypatch, cpus)
        self.test_default_config_bits_are_pinned(p, branch, bound, best, digest)

    def test_failure_case_fingerprint(self):
        p = from_density_matrix(
            named_state("theorem3_example", 0.66, 0.05, 0.07, 0.04, 0.18)
        )
        closed = compute_ree(p)
        assert closed.ree is None
        report = oracle_validate(p, closed, OracleConfig(rng_seed=11))
        assert report.closed_ree is None and report.abs_difference is None
        assert report.structure_violation > 1e-3

    def test_fingerprint_of_family_member_is_zero(self):
        sigma = to_density_matrix(x_state(0.2, 0.3, 0.3, 0.2, 0.25, 0.7))
        off, bloch = structure_fingerprint(sigma)
        assert off < 1e-15 and bloch < 1e-15


class TestOracleConfigBudgets:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iterations": 0}, {"max_iterations": -5}, {"restarts": -1}, {"restarts": -3}],
    )
    def test_meaningless_budget_rejected(self, kwargs):
        with pytest.raises(InvalidStateError):
            OracleConfig(**kwargs)

    def test_no_random_restarts_is_allowed(self):
        cfg = OracleConfig(restarts=0, max_iterations=1)
        assert (cfg.restarts, cfg.max_iterations) == (0, 1)

    def test_terms_above_the_caratheodory_bound_rejected(self):
        # 16 product states suffice for any separable two-qubit state
        with pytest.raises(InvalidStateError, match="num_product_terms"):
            OracleConfig(num_product_terms=17)
        cfg = OracleConfig(num_product_terms=16, restarts=0, max_iterations=50)
        result = oracle_ree(to_density_matrix(RAINS_PARAMS), cfg)
        assert result.weights.shape == (16,)
