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
number of random restarts. The seeds run in lockstep groups, one per usable
CPU, and a seed's bits do not depend on its group (see minimize).
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NotInFamilyError, NumericalError
from .qmath import _EIGENVALUE_CLAMP, _PSD, DensityMatrix, _xlnx_sum, relative_entropy
from .ree import BRANCH_FAILURE, ReeResult, compute_ree, css_to_x_params
from .states import (
    XStateParams,
    _off_pattern,
    from_density_matrix,
    to_density_matrix,
    x_state,
)

_WEIGHT_FLOOR = 1e-12
_SUPPORT_MIX = 1e-9
# Nelder-Mead fatol, and the least gain that starts another run on a seed
_CONVERGENCE_TOL = 1e-10
_NELDER_MEAD = {"xatol": 1e-9, "fatol": _CONVERGENCE_TOL}
# rows per objective call, after a round is copied into one array; a default
# oracle_validate of Rains' state peaks at 1.36 MB under tracemalloc in
# blocks of 32, 1.78 MB in blocks of 128
_BLOCK_ROWS = 32
_EYE_MIX = _SUPPORT_MIX * np.eye(4) / 4.0
_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def _nelder_mead(x0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 259 (2012)).

    A generator: it yields each (m, n) stack of points it needs, is sent
    their m values, and returns the final simplex, its values and the
    evaluation count. It is scipy.optimize.minimize(method="Nelder-Mead",
    adaptive=True) step for step, with the same bits: the initial simplex,
    both sorts after it, and the maxfev cut, which still writes the shrink
    row whose evaluation finds the budget spent. The adaptive reflection
    coefficient is 1, so no product below shows it.

    The value spread is tested before the x spread, since it fails on most
    rounds. On sorted fsim, fsim[-1] - fsim[0] is scipy's max |fsim[0] -
    fsim[1:]| (rounding is monotone, NaN sorts last), and fsim[1] - fsim[0]
    is NaN where scipy's form is, at a tied -inf minimum.
    """
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(x0, (n + 1, 1))
    axis = np.arange(n)
    sim[axis + 1, axis] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    fsim[:maxfev] = yield sim[:maxfev]
    nfev = min(maxfev, n + 1)
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    while nfev < maxfev:
        if (
            fsim[-1] - fsim[0] <= fatol >= fsim[1] - fsim[0]
            and np.max(np.abs(sim[1:] - sim[0])) <= xatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        (fxr,) = yield xr[None]
        nfev += 1
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + chi) * xbar - chi * sim[-1]
                (fxe,) = yield xe[None]
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:
                xc = (1 + psi) * xbar - psi * sim[-1]
                (fxc,) = yield xc[None]
                shrink = not fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                (fxc,) = yield xc[None]
                shrink = not fxc < fsim[-1]
            nfev += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrunk = sim[0] + sigma * (sim[1:] - sim[0])
                m = min(n, maxfev - nfev)
                sim[1 : m + 2] = shrunk[: m + 1]
                if m:
                    fsim[1 : m + 1] = yield shrunk[:m]
                    nfev += m
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    return sim, fsim, nfev


@dataclass(frozen=True)
class SimplexRuns:
    """One Nelder-Mead run per start: best point, value, evaluations, success."""

    x: np.ndarray
    fun: np.ndarray
    nfevs: np.ndarray
    successes: np.ndarray

    @property
    def nfev(self) -> int:
        return int(self.nfevs.sum())

    @property
    def success(self) -> bool:
        return bool(self.successes.all())


def _values(fun, stacks) -> np.ndarray:
    """fun over the rows of all stacks in order, in calls of at most _BLOCK_ROWS rows."""
    rows = np.concatenate(list(stacks))
    if len(rows) <= _BLOCK_ROWS:
        return fun(rows)
    blocks = range(0, len(rows), _BLOCK_ROWS)
    return np.concatenate([fun(rows[i : i + _BLOCK_ROWS]) for i in blocks])


def _lockstep(fun, x0, budgets, xatol, fatol) -> SimplexRuns:
    runs = [_nelder_mead(x, int(b), xatol, fatol) for x, b in zip(x0, budgets)]
    pending = {i: next(run) for i, run in enumerate(runs)}
    done = [None] * len(runs)
    while pending:
        values = _values(fun, pending.values())
        asked, pending, start = pending, {}, 0
        # popped one by one, so each run's old simplex is freed once it moves on
        for i in list(asked):
            rows = asked.pop(i)
            try:
                pending[i] = runs[i].send(values[start : start + len(rows)])
            except StopIteration as stop:
                done[i] = stop.value
            start += len(rows)
    sims, fsims, nfevs = zip(*done)
    nfevs = np.array(nfevs)
    return SimplexRuns(
        np.array([sim[0] for sim in sims]),
        np.array([np.min(fsim) for fsim in fsims]),
        nfevs,
        nfevs < budgets,
    )


def minimize(fun, x0, *, maxfev, xatol, fatol) -> SimplexRuns:
    """Run adaptive Nelder-Mead from every row of x0 in lockstep groups.

    fun maps an (m, n) stack of points to their m values. Each round values
    the points every live run needs with calls of at most _BLOCK_ROWS rows.
    maxfev is one budget or one per row. Every run gives the bits of
    scipy.optimize.minimize(fun_row, x0_row, method="Nelder-Mead",
    options={"maxfev": budget, "maxiter": budget, "xatol": xatol,
    "fatol": fatol, "adaptive": True}). `oracle_ree` looks this name up as a
    module global, so wrapping `xree.oracle.minimize` sees every call.

    The rows split into contiguous groups, one per usable CPU (os.sched_getaffinity;
    one off Linux) and at most one per row. Group 0 runs here, each other in a forked
    child whose error is raised here. fun values a row alike in any stack: same bits.
    """
    budgets, workers = np.broadcast_to(maxfev, len(x0)), []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    groups = np.array_split(np.arange(len(x0)), max(1, min(cpus, len(x0))))

    def work(send, rows):
        try:
            send.send(_lockstep(fun, x0[rows], budgets[rows], xatol, fatol))
        except Exception as exc:
            send.send(exc)

    try:
        for rows in groups[1:]:
            receive, send = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.get_context("fork").Process(target=work, args=(send, rows))
            worker.start()
            workers.append((worker, receive))
            send.close()  # so recv sees EOF once the worker is gone
        parts = [_lockstep(fun, x0[groups[0]], budgets[groups[0]], xatol, fatol)]
        for worker, receive in workers:
            try:
                parts.append(receive.recv())
            except (EOFError, OSError):
                worker.join()
                raise NumericalError(f"oracle worker exited with code {worker.exitcode}") from None
            if isinstance(parts[-1], Exception):
                raise parts[-1]
    finally:
        for worker, receive in workers:
            worker.terminate()  # cuts short only a worker whose part is not read
            worker.join()
            receive.close()
    return SimplexRuns(*map(np.concatenate, zip(*(vars(p).values() for p in parts))))


@dataclass(frozen=True)
class OracleConfig:
    """Knobs of the brute-force minimizer.

    num_product_terms is the mixture size K, 4 to 16: by the Caratheodory
    bound any separable two-qubit state mixes at most 16 product states.
    max_iterations caps the objective evaluations per seed (at least 1);
    restarts counts the random seeds on top of the deterministic ones (0 or
    more), drawn from rng_seed (0 or more). A deterministic warm start that
    needs more than K terms is skipped (each needs at most 8), and
    OracleResult.restart_best_index counts only the seeds that ran. The
    Nelder-Mead tolerance is fixed at _CONVERGENCE_TOL.
    """

    num_product_terms: int = 16
    restarts: int = 8
    max_iterations: int = 2000
    rng_seed: int = 0

    def __post_init__(self):
        if not 4 <= self.num_product_terms <= 16:
            raise InvalidStateError("num_product_terms must be from 4 to 16")
        if self.max_iterations < 1:
            raise InvalidStateError("max_iterations must be at least 1")
        if self.restarts < 0:
            raise InvalidStateError("restarts must not be negative")
        if self.rng_seed < 0:
            raise InvalidStateError("rng_seed must not be negative")


@dataclass(frozen=True)
class OracleResult:
    """Best separable state found and the certified upper bound it gives.

    converged is the success flag of the winning seed's last Nelder-Mead
    run: its simplex met xatol and fatol before the evaluation budget ran
    out (True if the bound is a seed's unimproved start). It is False
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
    """Assemble sum_k w_k |a_k b_k><a_k b_k| as a dense 4x4 matrix.

    Leading axes stack mixtures: weights (..., K) and kets (..., K, 2) give
    (..., 4, 4).
    """
    kets = (qubit_a[..., :, None] * qubit_b[..., None, :]).reshape(*weights.shape, 4)
    return (weights[..., None] * kets).swapaxes(-1, -2) @ kets.conj()


def _block_entry(y: float, ri: float, rj: float) -> float:
    """y sqrt(ri / rj), as (y / sqrt(rj)) sqrt(ri) where ri / rj overflows.

    y <= sqrt(ri rj), so the second form is at most about sqrt(ri).
    """
    e = y * math.sqrt(ri / rj)
    return e if e < math.inf else y / math.sqrt(rj) * math.sqrt(ri)


def separable_x_decomposition(p: XStateParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit product decomposition of a separable (PPT) family member.

    The coherent part is carried by four equal-weight product states whose
    relative phases average out every coherence except the (|01>, |10>)
    pair; diagonal leftovers complete the populations. Requires
    d <= sqrt(a1 a4) (PPT), which every closed-form CSS satisfies with
    equality. It decomposes the coherence y = min(d, sqrt(a1 a4),
    sqrt(a2 a3)): d on a separable state, and inside the slacks of the
    PPT and PSD tests the nearest coherence that keeps the state PSD and
    PPT, so no leftover is negative and no ratio divides by zero.
    """
    r1, r2, r3, r4 = p.diag()
    if p.d * p.d > r1 * r4 + _PSD:
        raise InvalidStateError(
            "state is entangled (d^2 > a1 a4); no product decomposition exists"
        )
    y = min(p.d, math.sqrt(r1 * r4), math.sqrt(r2 * r3))
    weights: list[float] = []
    kets_a: list[np.ndarray] = []
    kets_b: list[np.ndarray] = []
    if y > 0.0:
        e1, e4 = _block_entry(y, r1, r4), _block_entry(y, r4, r1)
        e2, e3 = _block_entry(y, r2, r3), _block_entry(y, r3, r2)
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
        if leftover > _EIGENVALUE_CLAMP:
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
    """Weights and both qubits' kets; x[..., K:] is read as (qubit, theta/phi, term).

    Bit-identical to stacking [cos(theta/2), sin(theta/2) exp(i phi)] per
    qubit; the seeded oracle's output bytes depend on that. Leading axes of
    x stack points.
    """
    lead = x.shape[:-1]
    logits = x[..., :k_terms]
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    angles = x[..., k_terms:].reshape(*lead, 2, 2, k_terms)
    half = angles[..., 0, :] / 2.0
    kets = np.empty((*lead, 2, k_terms, 2), complex)
    kets[..., 0] = np.cos(half)
    kets[..., 1] = np.sin(half) * np.exp(1j * angles[..., 1, :])
    return w, kets[..., 0, :, :], kets[..., 1, :, :]


def _objective_many(x: np.ndarray, rm: np.ndarray, tr_rho_ln_rho: float) -> np.ndarray:
    """tr(rho ln rho) - tr(rho ln sigma') for each row of x, sigma' = (1 - mix) sigma + mix I/4.

    Row s is bit for bit the value of the same formula on x[s] alone; the
    seeded oracle's output bytes depend on that, and on the forms used here
    (a 4-term einsum for the last dot changes the last bit on half the rows).
    """
    sigma = product_mixture_matrix(*_decode(x, x.shape[-1] // 5))
    sigma *= 1.0 - _SUPPORT_MIX
    sigma += _EYE_MIX
    vals, vecs = np.linalg.eigh(sigma)
    quad = np.real(np.einsum("sij,sij->sj", vecs.conj(), rm @ vecs))
    log_vals = np.log(np.maximum(vals, 1e-300))
    return tr_rho_ln_rho - (log_vals[:, None, :] @ quad[:, :, None])[:, 0, 0]


def _deterministic_mixtures(rho, params, closed):
    """Warm-start mixtures: closed-form CSS, decohered diagonal, PPT projection.

    params is rho as a family member, or None when rho is not in the family.
    """
    mixtures = []
    if closed is not None and closed.css is not None:
        mixtures.append(separable_x_decomposition(css_to_x_params(closed.css)))
    diag = np.clip(np.real(np.diagonal(rho.matrix)), 0.0, None)
    diag = diag / diag.sum()
    keep = diag > 0.0
    basis_a, basis_b = np.array([_KET0, _KET0, _KET1, _KET1]), np.array([_KET0, _KET1] * 2)
    mixtures.append((diag[keep], basis_a[keep], basis_b[keep]))
    if params is not None and params.d > 0.0:
        projected = min(params.d, math.sqrt(params.a1 * params.a4))
        mixtures.append(
            separable_x_decomposition(x_state(*params.diag(), d=projected, phi=params.phi))
        )
    return mixtures


def oracle_ree(
    rho: DensityMatrix,
    cfg: OracleConfig | None = None,
    closed: ReeResult | None = None,
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
    k = cfg.num_product_terms
    rm = rho.matrix
    tr_rho_ln_rho = _xlnx_sum(np.linalg.eigvalsh(rm).tolist())

    def objective(x: np.ndarray) -> np.ndarray:
        return _objective_many(x, rm, tr_rho_ln_rho)

    def true_value(x: np.ndarray) -> tuple[float, DensityMatrix, tuple]:
        mixture = _decode(x, k)
        sigma = DensityMatrix.from_matrix(product_mixture_matrix(*mixture))
        return relative_entropy(rho, sigma), sigma, mixture

    try:
        params = from_density_matrix(rho)
    except NotInFamilyError:
        params = None
    if closed is None and params is not None:
        closed = compute_ree(params)
    rng = np.random.default_rng(cfg.rng_seed)
    mixtures = _deterministic_mixtures(rho, params, closed)
    starts = [_encode(*_pad_mixture(*m, k)) for m in mixtures if len(m[0]) <= k]
    for _ in range(cfg.restarts):
        logits = rng.normal(0.0, 1.0, k)
        thetas = rng.uniform(0.0, math.pi, 2 * k)
        phases = rng.uniform(-math.pi, math.pi, 2 * k)
        starts.append(
            np.concatenate(
                [logits, thetas[:k], phases[:k], thetas[k:], phases[k:]]
            )
        )

    # Each seed reruns Nelder-Mead from its last point while a run gains at
    # least _CONVERGENCE_TOL and budget is left; all live seeds run together.
    x_cur = np.array(starts)
    f_prev = objective(x_cur)
    budget = np.full(len(starts), cfg.max_iterations)
    succeeded = np.zeros(len(starts), bool)
    live = np.arange(len(starts))
    while live.size:
        res = minimize(objective, x_cur[live], maxfev=budget[live], **_NELDER_MEAD)
        budget[live] -= res.nfevs
        x_cur[live] = res.x
        succeeded[live] = res.successes
        improving = ~(f_prev[live] - res.fun < _CONVERGENCE_TOL)
        f_prev[live] = res.fun
        live = live[improving & (budget[live] > 0)]

    best = None  # (value, sigma, mixture, seed index, nfev, converged)
    for index, x0 in enumerate(starts):
        start = true_value(x0)
        if best is None or start[0] < best[0]:
            best = (*start, index, 0, True)
        end = true_value(x_cur[index])
        if end[0] < best[0]:
            nfev = cfg.max_iterations - int(budget[index])
            best = (*end, index, nfev, bool(succeeded[index]))

    value, sigma, (w, ka, kb), index, nfev, converged = best
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
    off = max(mag for _, _, mag in _off_pattern(m))
    bloch = max(
        abs(float(np.real(np.trace(m @ np.kron(op_a, op_b)))))
        for op_a, op_b in (
            (_PAULI_X, _EYE2),
            (_PAULI_Y, _EYE2),
            (_EYE2, _PAULI_X),
            (_EYE2, _PAULI_Y),
        )
    )
    return off, float(bloch)


def oracle_validate(
    p: XStateParams,
    closed: ReeResult,
    cfg: OracleConfig | None = None,
) -> OracleValidation:
    """Cross-check a closed-form result against the brute-force bound.

    For ansatz_failure inputs the interesting output is the fingerprint of
    the oracle's best separable state: how far it sits from the family's
    sparsity pattern and how large its transverse Bloch components are.
    """
    rho = to_density_matrix(p)
    result = oracle_ree(rho, cfg, closed=closed)
    off, bloch = structure_fingerprint(result.sigma)
    if closed.branch == BRANCH_FAILURE or closed.ree is None:
        return OracleValidation(result, None, None, off, bloch)
    return OracleValidation(
        result, closed.ree, abs(closed.ree - result.ree_upper_bound), off, bloch
    )
