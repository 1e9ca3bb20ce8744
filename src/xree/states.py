"""Construction, validation, and classification of the supported state family.

The family consists of two-qubit density matrices whose only nonzero
entries are the diagonal (a1, a2, a3, a4) and the inner coherence pair
d e^{+-i phi} coupling |01> and |10>:

    [[a1, 0,            0,            0 ],
     [0,  a2,           d e^{i phi},  0 ],
     [0,  d e^{-i phi}, a3,           0 ],
     [0,  0,            0,            a4]]

This is the image of states with z-directional single-qubit Bloch vectors
and equal x/y correlation components. Positivity requires d <= sqrt(a2 a3);
the state is entangled exactly when d^2 > a1 a4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import InvalidStateError, NotInFamilyError, SingularPhaseError
from .qmath import DensityMatrix

_X_PATTERN = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}


def _check_finite(values, label: str) -> None:
    # nan is false under every range comparison, and max(0.0, nan) is 0.0,
    # so the range checks alone would let it through
    if not all(math.isfinite(v) for v in values):
        raise InvalidStateError(f"{label}: non-finite value in {tuple(values)}")


@dataclass(frozen=True)
class XStateParams:
    """Populations a1..a4, coherence magnitude d >= 0, and phase phi."""

    a1: float
    a2: float
    a3: float
    a4: float
    d: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        # the dataclass is public: compute_ree must not see nan as separable
        _check_finite(
            (self.a1, self.a2, self.a3, self.a4, self.d, self.phi), "XStateParams"
        )

    def diag(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.a3, self.a4)


@dataclass(frozen=True)
class BlochZParams:
    """z-components r, s of the Bloch vectors plus correlations g_x, g_z.

    The y correlation equals g_x by assumption; phi is the coherence phase.
    """

    r: float
    s: float
    g_x: float
    g_z: float
    phi: float = 0.0


def x_state(
    a1: float,
    a2: float,
    a3: float,
    a4: float,
    d: float,
    phi: float = 0.0,
    tol: Tolerances | None = None,
) -> XStateParams:
    """Validate and build XStateParams.

    Requires the populations to lie on the unit simplex (within tolerance)
    and d in [0, sqrt(a2 a3)] up to the configured slack.
    """
    tol = tol or default_tolerances()
    _check_finite((a1, a2, a3, a4, d, phi), "x_state")
    pops = (a1, a2, a3, a4)
    if any(a < -tol.simplex for a in pops):
        raise InvalidStateError(f"negative population in {pops}")
    total = a1 + a2 + a3 + a4
    if abs(total - 1.0) > tol.simplex:
        raise InvalidStateError(f"populations sum to {total!r}, not 1")
    if d < -tol.simplex:
        raise InvalidStateError(f"coherence magnitude {d!r} is negative")
    d = max(0.0, d)
    a1, a2, a3, a4 = (max(0.0, a) for a in pops)
    if d * d > a2 * a3 + tol.coherence_slack:
        raise InvalidStateError(
            f"coherence {d!r} exceeds sqrt(a2*a3) = {math.sqrt(a2 * a3)!r}; "
            "matrix would not be PSD"
        )
    return XStateParams(a1, a2, a3, a4, d, phi)


def x_state_from_bloch(b: BlochZParams, tol: Tolerances | None = None) -> XStateParams:
    """Convert Bloch/correlation parameters to population form.

    a1 = (1+r+s+g_z)/4   a2 = (1+r-s-g_z)/4
    a3 = (1-r+s-g_z)/4   a4 = (1-r-s+g_z)/4   d = g_x / (2 cos phi)

    Negative populations within tolerance are clamped to zero and the
    remainder renormalized.
    """
    tol = tol or default_tolerances()
    _check_finite((b.r, b.s, b.g_x, b.g_z, b.phi), "Bloch parameters")
    if abs(math.cos(b.phi)) < tol.cos_phi_min:
        raise SingularPhaseError(
            "cos(phi) is numerically zero; the coherence magnitude cannot be "
            "recovered from g_x -- supply d directly via x_state()"
        )
    pops = [
        (1.0 + b.r + b.s + b.g_z) / 4.0,
        (1.0 + b.r - b.s - b.g_z) / 4.0,
        (1.0 - b.r + b.s - b.g_z) / 4.0,
        (1.0 - b.r - b.s + b.g_z) / 4.0,
    ]
    for a in pops:
        if a < -tol.simplex:
            raise InvalidStateError(f"Bloch parameters give population {a!r} < 0")
    pops = [max(0.0, a) for a in pops]
    total = sum(pops)
    pops = [a / total for a in pops]
    d = b.g_x / (2.0 * math.cos(b.phi))
    if d < -tol.simplex:
        raise InvalidStateError(
            f"g_x/(2 cos phi) = {d!r} is negative; shift phi by pi so the "
            "coherence magnitude is nonnegative"
        )
    return x_state(*pops, d=max(0.0, d), phi=b.phi, tol=tol)


def to_density_matrix(p: XStateParams, tol: Tolerances | None = None) -> DensityMatrix:
    """Materialize the 4x4 matrix for the given parameters."""
    tol = tol or default_tolerances()
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = p.diag()
    coh = p.d * cmath.exp(1j * p.phi)
    m[1, 2] = coh
    m[2, 1] = coh.conjugate()
    return DensityMatrix.from_matrix(m, tol)


def from_density_matrix(
    rho: DensityMatrix, tol: Tolerances | None = None
) -> XStateParams:
    """Read parameters off a density matrix in the family.

    Rejects matrices with any entry of magnitude >= the sparsity tolerance
    outside the diagonal and the (1,2)/(2,1) coherence pair; the error lists
    the offending entries. Note the (0,3) corner is part of the forbidden
    set, which is how general Bell-diagonal states with unequal first two
    weights get rejected.
    """
    tol = tol or default_tolerances()
    m = rho.matrix
    offending = []
    for i in range(4):
        for j in range(4):
            if (i, j) in _X_PATTERN:
                continue
            mag = abs(m[i, j])
            if mag >= tol.family_sparsity:
                offending.append((i, j, mag))
    if offending:
        desc = ", ".join(f"({i},{j})={mag:.3e}" for i, j, mag in offending)
        raise NotInFamilyError(
            f"matrix entries outside the X-like pattern: {desc}", offending
        )
    coh = m[1, 2]
    d = abs(coh)
    phi = cmath.phase(coh) if d > 0.0 else 0.0
    return x_state(
        m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real, d, phi, tol=tol
    )


def is_entangled(p: XStateParams, tol: Tolerances | None = None) -> bool:
    """True iff d^2 > a1 a4 beyond the margin (PPT criterion for the family).

    The boundary d^2 = a1 a4 is classified separable: such states are their
    own closest separable state.
    """
    tol = tol or default_tolerances()
    return p.d * p.d > p.a1 * p.a4 + tol.entanglement_margin


def bell_ket(k: int) -> np.ndarray:
    """The four maximally entangled kets, indexed 1..4.

    1: (|00>+|11>)/sqrt2   2: (|00>-|11>)/sqrt2
    3: (|01>+|10>)/sqrt2   4: (|01>-|10>)/sqrt2
    """
    inv = 1.0 / math.sqrt(2.0)
    kets = {
        1: [inv, 0.0, 0.0, inv],
        2: [inv, 0.0, 0.0, -inv],
        3: [0.0, inv, inv, 0.0],
        4: [0.0, inv, -inv, 0.0],
    }
    return np.array(kets[k], dtype=complex)


def _projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def _basis_projector(index: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[index, index] = 1.0
    return m


def _check_simplex(weights, tol: Tolerances, label: str) -> None:
    _check_finite(weights, label)
    if any(w < -tol.simplex for w in weights):
        raise InvalidStateError(f"{label}: negative weight in {tuple(weights)}")
    total = sum(weights)
    if abs(total - 1.0) > tol.simplex:
        raise InvalidStateError(f"{label}: weights sum to {total!r}, not 1")


# state considered by Rains: populations 1/12 at the outer corners and a
# transcendental middle block built from xi = 1/ln(73/23)
_RAINS_XI = 1.0 / math.log(73.0 / 23.0)
RAINS_PARAMS = XStateParams(
    a1=1.0 / 12.0,
    a2=45907.0 / 90000.0 - 7.0 * _RAINS_XI / 150.0,
    a3=29093.0 / 90000.0 + 7.0 * _RAINS_XI / 150.0,
    a4=1.0 / 12.0,
    d=1201.0 / 3750.0 + 49.0 * _RAINS_XI / 3600.0,
    phi=0.0,
)


def named_state(family: str, *params: float, tol: Tolerances | None = None) -> DensityMatrix:
    """Construct one of the reference states by name.

    Families and their parameters:
      bell_diagonal(l1, l2, l3, l4)      mixture of the four Bell projectors
      vp(l1, l2, l3)                     l1 B3 + l2 |01><01| + l3 |10><10|
      horodecki(l1, l2, l3)              l1 B3 + l2 |00><00| + l3 |11><11|
      theorem1_example(p, alpha, beta, q1, q2)
                                         p |psi><psi| + q1 |01><01| + q2 |10><10|
                                         with psi = alpha |01> + beta |10>
      theorem2_example(p1, p2, q1, q2)   p1 B3 + p2 B4 + q1 |00><00| + q2 |11><11|
      theorem3_example(p, q1, q2, q3, q4)
                                         p B3 + q1 |01> + q2 |10> + q3 |00> + q4 |11|
      rains()                            the fixed transcendental example state
    """
    tol = tol or default_tolerances()
    name = family.lower()
    if name == "rains":
        if params:
            raise InvalidStateError("rains() takes no parameters")
        return to_density_matrix(RAINS_PARAMS, tol)
    if name == "bell_diagonal":
        if len(params) != 4:
            raise InvalidStateError("bell_diagonal requires 4 weights")
        _check_simplex(params, tol, "bell_diagonal")
        m = sum(w * _projector(bell_ket(k + 1)) for k, w in enumerate(params))
        return DensityMatrix.from_matrix(m, tol)
    if name == "vp":
        if len(params) != 3:
            raise InvalidStateError("vp requires 3 weights")
        _check_simplex(params, tol, "vp")
        l1, l2, l3 = params
        m = l1 * _projector(bell_ket(3)) + l2 * _basis_projector(1) + l3 * _basis_projector(2)
        return DensityMatrix.from_matrix(m, tol)
    if name == "horodecki":
        if len(params) != 3:
            raise InvalidStateError("horodecki requires 3 weights")
        _check_simplex(params, tol, "horodecki")
        l1, l2, l3 = params
        m = l1 * _projector(bell_ket(3)) + l2 * _basis_projector(0) + l3 * _basis_projector(3)
        return DensityMatrix.from_matrix(m, tol)
    if name == "theorem1_example":
        if len(params) != 5:
            raise InvalidStateError("theorem1_example requires (p, alpha, beta, q1, q2)")
        p, alpha, beta, q1, q2 = params
        _check_simplex((p, q1, q2), tol, "theorem1_example")
        norm = alpha * alpha + beta * beta
        if abs(norm - 1.0) > tol.simplex:
            raise InvalidStateError(
                f"theorem1_example: alpha^2 + beta^2 = {norm!r}, not 1"
            )
        psi = np.array([0.0, alpha, beta, 0.0], dtype=complex)
        m = p * _projector(psi) + q1 * _basis_projector(1) + q2 * _basis_projector(2)
        return DensityMatrix.from_matrix(m, tol)
    if name == "theorem2_example":
        if len(params) != 4:
            raise InvalidStateError("theorem2_example requires (p1, p2, q1, q2)")
        p1, p2, q1, q2 = params
        _check_simplex(params, tol, "theorem2_example")
        m = (
            p1 * _projector(bell_ket(3))
            + p2 * _projector(bell_ket(4))
            + q1 * _basis_projector(0)
            + q2 * _basis_projector(3)
        )
        return DensityMatrix.from_matrix(m, tol)
    if name == "theorem3_example":
        if len(params) != 5:
            raise InvalidStateError("theorem3_example requires (p, q1, q2, q3, q4)")
        p, q1, q2, q3, q4 = params
        _check_simplex(params, tol, "theorem3_example")
        m = (
            p * _projector(bell_ket(3))
            + q1 * _basis_projector(1)
            + q2 * _basis_projector(2)
            + q3 * _basis_projector(0)
            + q4 * _basis_projector(3)
        )
        return DensityMatrix.from_matrix(m, tol)
    raise InvalidStateError(f"unknown state family {family!r}")
