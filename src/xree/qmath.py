"""Dense 4x4 complex Hermitian linear algebra for two-qubit states.

Eigendecomposition (LAPACK, through np.linalg.eigh), von Neumann and
relative entropies in nats, partial transposition on the second qubit,
and the binary entropy function. All operations are pure functions on
immutable values and safe to call concurrently.

The thresholds other than binary_entropy's simplex are module constants:
_HERMITICITY, _TRACE and _PSD, the bounds of DensityMatrix.from_matrix;
_EIG_HERMITIAN_PRE, the input check of hermitian_eig; _EIGENVALUE_CLAMP,
below which an eigenvalue adds nothing to tr(rho ln rho); and
_SUPPORT_EIGENVALUE and _SUPPORT_LEAK, which decide when
relative_entropy is infinite. They are not Tolerances fields because
nothing sets them: states, ree.ree_from_css and the oracle read them
from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import default_tolerances
from .errors import InvalidStateError, NumericalError

DIM = 4
LN2 = math.log(2.0)
_HERMITICITY = 1e-12
_TRACE = 1e-12
_PSD = 1e-10
_EIG_HERMITIAN_PRE = 1e-10
_EIGENVALUE_CLAMP = 1e-15
_SUPPORT_EIGENVALUE = 1e-12
_SUPPORT_LEAK = 1e-10


def _as_matrix(m, stack: bool = False) -> np.ndarray:
    """m as a complex (4, 4) array; with stack, an (n, 4, 4) stack also passes."""
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.shape[-2:] != (DIM, DIM) or a.ndim != 2 and not (stack and a.ndim == 3):
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
    def from_matrix(cls, m) -> "DensityMatrix":
        a = _as_matrix(m)
        herm_dev = float(np.max(np.abs(a - a.conj().T)))
        if herm_dev > _HERMITICITY:
            raise InvalidStateError(
                f"matrix is not Hermitian: max |m - m^dag| = {herm_dev:.3e}"
            )
        tr_dev = abs(a.trace() - 1.0)
        if tr_dev > _TRACE:
            raise InvalidStateError(f"trace differs from 1 by {tr_dev:.3e}")
        a = 0.5 * (a + a.conj().T)
        lo = hermitian_eig(a).values[0]
        if lo < -_PSD:
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


def hermitian_eig(m) -> EigenSystem:
    """Eigendecomposition of a 4x4 Hermitian matrix by LAPACK (np.linalg.eigh).

    The input is symmetrized as (m + m^dag)/2 first. A stack (n, 4, 4) is
    decomposed in one call and gives values (n, 4) and vectors (n, 4, 4),
    each matrix's bit for bit those of its own call; a non-finite or
    non-Hermitian member fails the whole stack. Raises NumericalError if
    LAPACK does not converge.
    """
    a = _as_matrix(m, stack=True)
    a_dag = np.swapaxes(a, -1, -2).conj()
    dev = float(np.abs(a - a_dag).max(initial=0.0))
    if dev > _EIG_HERMITIAN_PRE:
        raise InvalidStateError(
            f"input is not Hermitian within {_EIG_HERMITIAN_PRE:.1e}: "
            f"deviation {dev:.3e}"
        )
    try:
        values, vectors = np.linalg.eigh(0.5 * (a + a_dag))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    return EigenSystem(values=values, vectors=vectors)


def _xlnx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def _xlnx_sum(values) -> float:
    """tr(rho ln rho) of a spectrum: lam ln lam over lam > _EIGENVALUE_CLAMP, in order from 0.0."""
    total = 0.0
    for lam in values:
        if lam > _EIGENVALUE_CLAMP:
            total += lam * math.log(lam)
    return total


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention; +0.0 for a pure state."""
    return 0.0 - _xlnx_sum(hermitian_eig(rho).values.tolist())


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr(rho ln rho - rho ln sigma) in nats.

    ln(sigma) is built on sigma's numerical support. If rho leaks outside
    that support the divergence is infinite and +inf is returned instead of
    raising.
    """
    rm = _as_matrix(rho)
    return _relative_entropy_eig(rm, hermitian_eig(rm).values, hermitian_eig(sigma))


def _relative_entropy_eig(rm: np.ndarray, rho_values: np.ndarray, eig_s: EigenSystem) -> float:
    """relative_entropy from rho's matrix and spectrum and sigma's eigensystem."""
    weights = _sigma_weights(eig_s.vectors, rm).tolist()
    return _relative_entropy_weights(rho_values, eig_s.values, weights)


def _sigma_weights(vectors: np.ndarray, rm: np.ndarray) -> np.ndarray:
    """<v_j|rho|v_j> for every column v_j of vectors, from one product; stacks broadcast."""
    return (vectors.conj().swapaxes(-1, -2) @ rm @ vectors).diagonal(0, -2, -1).real


def _relative_entropy_weights(rho_values, sigma_values, weights) -> float:
    """relative_entropy from both spectra and the weights <v_j|rho|v_j> of sigma's vectors.

    Each is a sequence of 4 floats.
    """
    tr_rho_ln_rho = _xlnx_sum(rho_values)
    cross = 0.0
    for lam, weight in zip(sigma_values, weights):
        if lam < _SUPPORT_EIGENVALUE:
            if weight >= _SUPPORT_LEAK:
                return math.inf
        else:
            cross += weight * math.log(lam)
    return float(tr_rho_ln_rho - cross)


def partial_transpose(m) -> np.ndarray:
    """Transpose the second-qubit indices: (2a+b, 2c+d) -> (2a+d, 2c+b).

    A stack (n, 4, 4) is transposed in one call, each matrix as in its own
    call; a non-finite member fails the whole stack.
    """
    a = _as_matrix(m, stack=True)
    return np.swapaxes(a.reshape(a.shape[:-2] + (2, 2, 2, 2)), -3, -1).reshape(a.shape)


def min_eig_pt(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose.

    Negative iff the state is entangled (two-qubit PPT criterion); zero for
    edge states of the separable set.
    """
    return float(hermitian_eig(partial_transpose(rho)).values[0])


def binary_entropy(p: float) -> float:
    """H(p) = -p ln p - (1-p) ln(1-p) in nats.

    Evaluated through max(p, 1-p) so that H(p) == H(1-p) holds bit-exactly
    for every float p (the larger element of the pair is the same double in
    both calls).
    """
    simplex = default_tolerances().simplex
    if p < -simplex or p > 1.0 + simplex:
        raise ValueError(f"binary_entropy argument {p!r} outside [0, 1]")
    p = min(1.0, max(0.0, p))
    big = max(p, 1.0 - p)
    return -_xlnx(big) - _xlnx(1.0 - big)
