"""Brute-force oracle: feasibility, determinism, warm starts, fingerprints."""

import hashlib
import math

import numpy as np
import pytest

from xree import (
    OracleConfig,
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
from xree.errors import InvalidStateError
from xree.oracle import (
    _decode,
    product_mixture_matrix,
    separable_x_decomposition,
    structure_fingerprint,
)
from xree.qmath import DensityMatrix
from xree.states import RAINS_PARAMS

from conftest import random_entangled_params, random_separable_params

FAST = OracleConfig(num_product_terms=8, restarts=2, max_iterations=400, rng_seed=5)


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

    def test_entangled_input_rejected(self):
        with pytest.raises(Exception):
            separable_x_decomposition(RAINS_PARAMS)


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

    def test_min_terms_enforced(self):
        with pytest.raises(Exception):
            OracleConfig(num_product_terms=3)


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
