"""Dense 4x4 complex Hermitian linear algebra for two-qubit states.

Eigendecomposition (LAPACK, through np.linalg.eigh), von Neumann and
relative entropies in nats, partial transposition on the second qubit,
and the binary entropy function. All operations are pure functions on
immutable values and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import InvalidStateError, NumericalError

DIM = 4
LN2 = math.log(2.0)


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.shape != (DIM, DIM):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidStateError("matrix has a non-finite (nan or inf) entry")
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """A 4x4 complex Hermitian unit-trace PSD matrix.

    Basis order is |00>, |01>, |10>, |11> (first qubit index major).
    """

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, m, tol: Tolerances | None = None) -> "DensityMatrix":
        tol = tol or default_tolerances()
        a = _as_matrix(m)
        herm_dev = float(np.max(np.abs(a - a.conj().T)))
        if herm_dev > tol.hermiticity:
            raise InvalidStateError(
                f"matrix is not Hermitian: max |m - m^dag| = {herm_dev:.3e}"
            )
        tr_dev = abs(a.trace() - 1.0)
        if tr_dev > tol.trace:
            raise InvalidStateError(f"trace differs from 1 by {tr_dev:.3e}")
        a = 0.5 * (a + a.conj().T)
        lo = hermitian_eig(a, tol).values[0]
        if lo < -tol.psd:
            raise InvalidStateError(f"matrix is not PSD: min eigenvalue {lo:.3e}")
        a.setflags(write=False)
        return cls(a)

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(m, tol: Tolerances | None = None) -> EigenSystem:
    """Eigendecomposition of a 4x4 Hermitian matrix by LAPACK (np.linalg.eigh).

    The input is symmetrized as (m + m^dag)/2 first. Raises NumericalError
    if LAPACK does not converge.
    """
    tol = tol or default_tolerances()
    a = _as_matrix(m)
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > tol.eig_hermitian_pre:
        raise InvalidStateError(
            f"input is not Hermitian within {tol.eig_hermitian_pre:.1e}: "
            f"deviation {dev:.3e}"
        )
    try:
        values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    return EigenSystem(values=values, vectors=vectors)


def _xlnx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def von_neumann_entropy(rho: DensityMatrix, tol: Tolerances | None = None) -> float:
    """S(rho) = -tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention."""
    tol = tol or default_tolerances()
    eig = hermitian_eig(rho, tol)
    total = 0.0
    for lam in eig.values:
        if lam > tol.eigenvalue_clamp:
            total -= lam * math.log(lam)
    return total


def relative_entropy(
    rho: DensityMatrix, sigma: DensityMatrix, tol: Tolerances | None = None
) -> float:
    """tr(rho ln rho - rho ln sigma) in nats.

    ln(sigma) is built on sigma's numerical support. If rho leaks outside
    that support the divergence is infinite and +inf is returned instead of
    raising.
    """
    tol = tol or default_tolerances()
    rm = _as_matrix(rho)
    eig_r = hermitian_eig(rm, tol)
    tr_rho_ln_rho = sum(
        _xlnx(lam) for lam in eig_r.values if lam > tol.eigenvalue_clamp
    )
    eig_s = hermitian_eig(sigma, tol)
    cross = 0.0
    for j in range(DIM):
        lam = eig_s.values[j]
        vec = eig_s.vectors[:, j]
        weight = float(np.real(vec.conj() @ rm @ vec))
        if lam < tol.support_eigenvalue:
            if weight >= tol.support_leak:
                return math.inf
        else:
            cross += weight * math.log(lam)
    return tr_rho_ln_rho - cross


def partial_transpose(m) -> np.ndarray:
    """Transpose the second-qubit indices: (2a+b, 2c+d) -> (2a+d, 2c+b)."""
    a = _as_matrix(m)
    return a.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(DIM, DIM).copy()


def min_eig_pt(rho: DensityMatrix, tol: Tolerances | None = None) -> float:
    """Smallest eigenvalue of the partial transpose.

    Negative iff the state is entangled (two-qubit PPT criterion); zero for
    edge states of the separable set.
    """
    tol = tol or default_tolerances()
    return float(hermitian_eig(partial_transpose(rho), tol).values[0])


def binary_entropy(p: float, tol: Tolerances | None = None) -> float:
    """H(p) = -p ln p - (1-p) ln(1-p) in nats.

    Evaluated through max(p, 1-p) so that H(p) == H(1-p) holds bit-exactly
    for every float p (the larger element of the pair is the same double in
    both calls).
    """
    tol = tol or default_tolerances()
    if p < -tol.simplex or p > 1.0 + tol.simplex:
        raise ValueError(f"binary_entropy argument {p!r} outside [0, 1]")
    p = min(1.0, max(0.0, p))
    big = max(p, 1.0 - p)
    return -_xlnx(big) - _xlnx(1.0 - big)
