"""Brute-force REE upper bounds by minimization over explicit separable states.

The feasible set is parametrized as a mixture of K product states,
sigma = sum_k p_k |a_k><a_k| (x) |b_k><b_k|, with the weights given by a
softmax over K logits and each single-qubit pure state by two angles on the
Bloch sphere (5K real parameters). Every iterate is separable by
construction, so the best value found is a certified upper bound on the
true REE. The optimizer is derivative-free simplex descent (Nelder-Mead)
run from several seeds: the closed-form CSS when one exists (decomposed
into an explicit product mixture), the decohered diagonal of the input,
the PPT projection of the input within the family, and a configurable
number of random restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import InvalidStateError, NotInFamilyError
from .qmath import DensityMatrix, relative_entropy
from .ree import BRANCH_FAILURE, ReeResult, compute_ree, css_to_x_params
from .states import (
    _X_PATTERN,
    XStateParams,
    from_density_matrix,
    to_density_matrix,
    x_state,
)

_WEIGHT_FLOOR = 1e-12
# Nelder-Mead fatol, and the least gain that starts another run on a seed
_CONVERGENCE_TOL = 1e-10
_NELDER_MEAD = {"xatol": 1e-9, "fatol": _CONVERGENCE_TOL, "adaptive": True}
_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    Loading scipy.optimize costs more than the rest of a cold `import xree`,
    so only code that runs the oracle pays for it. `oracle_ree` looks this name up as a
    module global, so wrapping `xree.oracle.minimize` sees every call.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class OracleConfig:
    """Knobs of the brute-force minimizer.

    num_product_terms is the mixture size K (at least 4; the default 16 is
    the Caratheodory bound for the 15-dimensional two-qubit state space).
    max_iterations caps the objective evaluations per seed (at least 1);
    restarts counts the random seeds on top of the deterministic ones (0 or
    more), drawn from rng_seed. The Nelder-Mead tolerance is fixed at
    _CONVERGENCE_TOL.
    """

    num_product_terms: int = 16
    restarts: int = 8
    max_iterations: int = 2000
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_product_terms < 4:
            raise InvalidStateError("num_product_terms must be at least 4")
        if self.max_iterations < 1:
            raise InvalidStateError("max_iterations must be at least 1")
        if self.restarts < 0:
            raise InvalidStateError("restarts must not be negative")


@dataclass(frozen=True)
class OracleResult:
    """Best separable state found and the certified upper bound it gives.

    converged is scipy's success flag for the winning seed's last Nelder-Mead
    run (True if the bound is a seed's unimproved start). It is False
    whenever the evaluation budget runs out: at the default OracleConfig,
    every call. It does not say whether the bound is close to the REE.
    """

    ree_upper_bound: float
    sigma: DensityMatrix
    converged: bool
    iterations_used: int
    restart_best_index: int
    weights: np.ndarray
    qubit_a: np.ndarray
    qubit_b: np.ndarray


@dataclass(frozen=True)
class OracleValidation:
    """Closed-form vs oracle comparison plus a structure fingerprint."""

    oracle: OracleResult
    closed_ree: float | None
    abs_difference: float | None
    off_pattern_max: float
    bloch_xy_max: float

    @property
    def structure_violation(self) -> float:
        return max(self.off_pattern_max, self.bloch_xy_max)


def product_mixture_matrix(
    weights: np.ndarray, qubit_a: np.ndarray, qubit_b: np.ndarray
) -> np.ndarray:
    """Assemble sum_k w_k |a_k b_k><a_k b_k| as a dense 4x4 matrix."""
    kets = (qubit_a[:, :, None] * qubit_b[:, None, :]).reshape(len(weights), 4)
    return (weights[:, None] * kets).T @ kets.conj()


def separable_x_decomposition(
    p: XStateParams, tol: Tolerances | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit product decomposition of a separable (PPT) family member.

    The coherent part is carried by four equal-weight product states whose
    relative phases average out every coherence except the (|01>, |10>)
    pair; diagonal leftovers complete the populations. Requires
    d <= sqrt(a1 a4) (PPT), which every closed-form CSS satisfies with
    equality.
    """
    tol = tol or default_tolerances()
    r1, r2, r3, r4 = p.diag()
    y = p.d
    if y * y > r1 * r4 + tol.psd:
        raise InvalidStateError(
            "state is entangled (d^2 > a1 a4); no product decomposition exists"
        )
    weights: list[float] = []
    kets_a: list[np.ndarray] = []
    kets_b: list[np.ndarray] = []
    if y > 0.0:
        e1 = y * math.sqrt(r1 / r4)
        e4 = y * math.sqrt(r4 / r1)
        e2 = y * math.sqrt(r2 / r3)
        e3 = y * math.sqrt(r3 / r2)
        block = e1 + e2 + e3 + e4
        q1, q2 = e1 / block, e2 / block
        cos2_alpha = q1 + q2
        cos2_beta = q1 / cos2_alpha
        alpha = math.acos(min(1.0, math.sqrt(cos2_alpha)))
        beta = math.acos(min(1.0, math.sqrt(cos2_beta)))
        for t in _PHASES:
            ka = np.array(
                [math.cos(alpha), math.sin(alpha) * np.exp(1j * t)], dtype=complex
            )
            kb = np.array(
                [math.cos(beta), math.sin(beta) * np.exp(1j * (t + p.phi))],
                dtype=complex,
            )
            weights.append(block / 4.0)
            kets_a.append(ka)
            kets_b.append(kb)
    else:
        e1 = e2 = e3 = e4 = 0.0
    for leftover, ka, kb in (
        (r1 - e1, _KET0, _KET0),
        (r2 - e2, _KET0, _KET1),
        (r3 - e3, _KET1, _KET0),
        (r4 - e4, _KET1, _KET1),
    ):
        if leftover > tol.eigenvalue_clamp:
            weights.append(leftover)
            kets_a.append(ka)
            kets_b.append(kb)
    return np.array(weights), np.array(kets_a), np.array(kets_b)


def _pad_mixture(weights, kets_a, kets_b, k_terms: int):
    n = len(weights)
    if n > k_terms:
        raise InvalidStateError(
            f"decomposition needs {n} terms but the mixture size is {k_terms}"
        )
    if n == k_terms:
        return np.asarray(weights, float), np.asarray(kets_a), np.asarray(kets_b)
    pad = k_terms - n
    w = np.concatenate([np.asarray(weights, float), np.zeros(pad)])
    a = np.concatenate([np.asarray(kets_a), np.tile(_KET0, (pad, 1))])
    b = np.concatenate([np.asarray(kets_b), np.tile(_KET0, (pad, 1))])
    return w, a, b


def _encode(weights: np.ndarray, kets_a: np.ndarray, kets_b: np.ndarray) -> np.ndarray:
    logits = np.log(np.maximum(weights, _WEIGHT_FLOOR))
    out = [logits]
    for kets in (kets_a, kets_b):
        theta = 2.0 * np.arctan2(np.abs(kets[:, 1]), np.abs(kets[:, 0]))
        phase = np.angle(kets[:, 1]) - np.angle(
            np.where(np.abs(kets[:, 0]) > 0.0, kets[:, 0], 1.0)
        )
        out.extend([theta, phase])
    return np.concatenate(out)


def _decode(x: np.ndarray, k_terms: int):
    """Weights and both qubits' kets; x[K:] is read as (qubit, theta/phi, term).

    Bit-identical to stacking [cos(theta/2), sin(theta/2) exp(i phi)] per
    qubit; the seeded oracle's output bytes depend on that.
    """
    logits = x[:k_terms]
    w = np.exp(logits - logits.max())
    w /= w.sum()
    angles = x[k_terms:].reshape(2, 2, k_terms)
    half = angles[:, 0] / 2.0
    kets = np.empty((2, k_terms, 2), complex)
    kets[:, :, 0] = np.cos(half)
    kets[:, :, 1] = np.sin(half) * np.exp(1j * angles[:, 1])
    return w, kets[0], kets[1]


def _closed_form_for(rho: DensityMatrix, tol: Tolerances) -> ReeResult | None:
    try:
        params = from_density_matrix(rho, tol)
    except NotInFamilyError:
        return None
    return compute_ree(params, tol)


def _deterministic_mixtures(rho, closed, tol):
    """Warm-start mixtures: closed-form CSS, decohered diagonal, PPT projection."""
    mixtures = []
    if closed is not None and closed.css is not None:
        css_params = css_to_x_params(closed.css, tol)
        mixtures.append(separable_x_decomposition(css_params, tol))
    diag = np.clip(np.real(np.diagonal(rho.matrix)), 0.0, None)
    diag = diag / diag.sum()
    basis = [(_KET0, _KET0), (_KET0, _KET1), (_KET1, _KET0), (_KET1, _KET1)]
    keep = [(w, a, b) for w, (a, b) in zip(diag, basis) if w > 0.0]
    mixtures.append(
        (
            np.array([w for w, _, _ in keep]),
            np.array([a for _, a, _ in keep]),
            np.array([b for _, _, b in keep]),
        )
    )
    try:
        params = from_density_matrix(rho, tol)
    except NotInFamilyError:
        return mixtures
    if params.d > 0.0:
        projected = min(params.d, math.sqrt(params.a1 * params.a4))
        mixtures.append(
            separable_x_decomposition(
                x_state(*params.diag(), d=projected, phi=params.phi, tol=tol), tol
            )
        )
    return mixtures


def oracle_ree(
    rho: DensityMatrix,
    cfg: OracleConfig | None = None,
    closed: ReeResult | None = None,
    tol: Tolerances | None = None,
) -> OracleResult:
    """Minimize tr(rho ln rho - rho ln sigma) over explicit product mixtures.

    During optimization sigma is mixed with identity/4 at a tiny weight to
    keep the logarithm finite near rank-deficient iterates; the reported
    bound is recomputed exactly on the unmixed best mixture. When `closed`
    is omitted and rho lies in the family, the closed-form result is
    computed internally so its CSS can seed the search. The result is
    deterministic given the config (seeded RNG, fixed seed order).
    """
    cfg = cfg or OracleConfig()
    tol = tol or default_tolerances()
    k = cfg.num_product_terms
    rm = rho.matrix
    eigvals = np.linalg.eigvalsh(rm)
    tr_rho_ln_rho = float(
        sum(v * math.log(v) for v in eigvals if v > tol.eigenvalue_clamp)
    )
    mix = tol.oracle_support_mix
    eye_mix = mix * np.eye(4) / 4.0

    def objective(x: np.ndarray) -> float:
        sigma = product_mixture_matrix(*_decode(x, k))
        sigma *= 1.0 - mix
        sigma += eye_mix
        vals, vecs = np.linalg.eigh(sigma)
        quad = np.real(np.einsum("ij,ij->j", vecs.conj(), rm @ vecs))
        return tr_rho_ln_rho - float(np.log(np.maximum(vals, 1e-300)) @ quad)

    def true_value(w, ka, kb) -> float:
        sigma = product_mixture_matrix(w, ka, kb)
        return relative_entropy(rho, DensityMatrix.from_matrix(sigma, tol), tol)

    if closed is None:
        closed = _closed_form_for(rho, tol)
    rng = np.random.default_rng(cfg.rng_seed)
    starts = [
        _encode(*_pad_mixture(*m, k)) for m in _deterministic_mixtures(rho, closed, tol)
    ]
    for _ in range(cfg.restarts):
        logits = rng.normal(0.0, 1.0, k)
        thetas = rng.uniform(0.0, math.pi, 2 * k)
        phases = rng.uniform(-math.pi, math.pi, 2 * k)
        starts.append(
            np.concatenate(
                [logits, thetas[:k], phases[:k], thetas[k:], phases[k:]]
            )
        )

    best = None  # (value, mixture, seed index, nfev, converged)
    for index, x0 in enumerate(starts):
        start_mix = _decode(x0, k)
        start_val = true_value(*start_mix)
        if best is None or start_val < best[0]:
            best = (start_val, start_mix, index, 0, True)
        budget = cfg.max_iterations
        x_cur = x0
        f_prev = objective(x0)
        nfev = 0
        converged = False
        while budget > 0:
            res = minimize(
                objective,
                x_cur,
                method="Nelder-Mead",
                options={"maxfev": budget, "maxiter": budget, **_NELDER_MEAD},
            )
            nfev += res.nfev
            budget -= res.nfev
            x_cur = res.x
            converged = bool(res.success)
            if f_prev - res.fun < _CONVERGENCE_TOL:
                break
            f_prev = res.fun
        end_mix = _decode(x_cur, k)
        end_val = true_value(*end_mix)
        if end_val < best[0]:
            best = (end_val, end_mix, index, nfev, converged)

    value, (w, ka, kb), index, nfev, converged = best
    sigma = DensityMatrix.from_matrix(product_mixture_matrix(w, ka, kb), tol)
    return OracleResult(
        ree_upper_bound=value,
        sigma=sigma,
        converged=converged,
        iterations_used=nfev,
        restart_best_index=index,
        weights=w,
        qubit_a=ka,
        qubit_b=kb,
    )


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def structure_fingerprint(sigma: DensityMatrix) -> tuple[float, float]:
    """(max off-pattern entry magnitude, max |Bloch x/y component|)."""
    m = sigma.matrix
    off = max(
        abs(m[i, j]) for i in range(4) for j in range(4) if (i, j) not in _X_PATTERN
    )
    bloch = max(
        abs(float(np.real(np.trace(m @ np.kron(op_a, op_b)))))
        for op_a, op_b in (
            (_PAULI_X, _EYE2),
            (_PAULI_Y, _EYE2),
            (_EYE2, _PAULI_X),
            (_EYE2, _PAULI_Y),
        )
    )
    return float(off), float(bloch)


def oracle_validate(
    p: XStateParams,
    closed: ReeResult,
    cfg: OracleConfig | None = None,
    tol: Tolerances | None = None,
) -> OracleValidation:
    """Cross-check a closed-form result against the brute-force bound.

    For ansatz_failure inputs the interesting output is the fingerprint of
    the oracle's best separable state: how far it sits from the family's
    sparsity pattern and how large its transverse Bloch components are.
    """
    tol = tol or default_tolerances()
    rho = to_density_matrix(p, tol)
    result = oracle_ree(rho, cfg, closed=closed, tol=tol)
    off, bloch = structure_fingerprint(result.sigma)
    if closed.branch == BRANCH_FAILURE or closed.ree is None:
        return OracleValidation(result, None, None, off, bloch)
    return OracleValidation(
        result, closed.ree, abs(closed.ree - result.ree_upper_bound), off, bloch
    )
