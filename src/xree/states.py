"""Construction, validation, and classification of the supported state family.

The family consists of two-qubit density matrices whose only nonzero
entries are the diagonal (a1, a2, a3, a4) and the inner coherence pair
d e^{+-i phi} coupling |01> and |10>:

    [[a1, 0,            0,            0 ],
     [0,  a2,           d e^{i phi},  0 ],
     [0,  d e^{-i phi}, a3,           0 ],
     [0,  0,            0,            a4]]

This is the image of states with z-directional single-qubit Bloch vectors
and equal x/y correlation components. The spectrum is a1, a4 and
(a2 + a3)/2 +- sqrt((a2 - a3)^2 + 4 d^2)/2, so positivity requires
d <= sqrt(a2 a3); the state is entangled exactly when d^2 > a1 a4.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import InvalidStateError, NotInFamilyError, SingularPhaseError
from .qmath import _PSD, _TRACE, DensityMatrix, partial_transpose

_X_PATTERN = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}
_HALF = complex(0.5, 0.0)
# partial_transpose only moves entries: the flat order it takes them in
_PT_ORDER = operator.itemgetter(
    *map(int, partial_transpose(np.arange(16.0).reshape(4, 4)).real.flat)
)
_COHERENCE_SLACK = 1e-12
_FAMILY_SPARSITY = 1e-10
_COS_PHI_MIN = 1e-9
_ENTANGLEMENT_MARGIN = 1e-14


def _check_finite(values, label: str) -> None:
    # nan is false under every range comparison, and max(0.0, nan) is 0.0,
    # so the range checks alone would let it through
    for v in values:
        if not math.isfinite(v):
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

    Rejects populations or d below -simplex and populations that miss the
    unit simplex by more than simplex; clamps the small negatives left to
    zero, then applies the family's one validity rule, _check_state.
    """
    tol = tol or default_tolerances()
    _check_finite((a1, a2, a3, a4, d, phi), "x_state")
    pops = (a1, a2, a3, a4)
    if min(pops) < -tol.simplex:
        raise InvalidStateError(f"negative population in {pops}")
    total = a1 + a2 + a3 + a4
    if abs(total - 1.0) > tol.simplex:
        raise InvalidStateError(f"populations sum to {total!r}, not 1")
    if d < -tol.simplex:
        raise InvalidStateError(f"coherence magnitude {d!r} is negative")
    p = XStateParams(
        max(0.0, a1), max(0.0, a2), max(0.0, a3), max(0.0, a4), max(0.0, d), phi
    )
    _check_state(p)
    return p


def input_spectrum_pair(p: XStateParams) -> tuple[float, float]:
    """Eigenvalues of the middle 2x2 block of the state.

    These are (a2 + a3)/2 +- sqrt((a2 - a3)^2 + 4 d^2)/2; together with a1
    and a4 they form the full spectrum.
    """
    disc = math.sqrt((p.a2 - p.a3) ** 2 + 4.0 * p.d * p.d)
    half = 0.5 * (p.a2 + p.a3)
    return (half + 0.5 * disc, half - 0.5 * disc)


def _check_state(p: XStateParams) -> None:
    """The one validity rule for a family member.

    Rejects d^2 > a2 a3 + _COHERENCE_SLACK, and applies the trace and PSD
    bounds of DensityMatrix.from_matrix to the closed-form spectrum, so no
    eigendecomposition runs.
    """
    if p.d * p.d > p.a2 * p.a3 + _COHERENCE_SLACK:
        raise InvalidStateError(
            f"coherence {p.d!r} exceeds sqrt(a2*a3) = "
            f"{math.sqrt(max(p.a2 * p.a3, 0.0))!r}; matrix would not be PSD"
        )
    tr_dev = abs(p.a1 + p.a2 + p.a3 + p.a4 - 1.0)
    if tr_dev > _TRACE:
        raise InvalidStateError(f"trace differs from 1 by {tr_dev:.3e}")
    lo = min(p.a1, p.a4, input_spectrum_pair(p)[1])
    if lo < -_PSD:
        raise InvalidStateError(f"matrix is not PSD: min eigenvalue {lo:.3e}")


def x_state_from_bloch(b: BlochZParams) -> XStateParams:
    """Convert Bloch/correlation parameters to population form.

    a1 = (1+r+s+g_z)/4   a2 = (1+r-s-g_z)/4
    a3 = (1-r+s-g_z)/4   a4 = (1-r-s+g_z)/4   d = g_x / (2 cos phi)

    Negative populations within tolerance are clamped to zero and the
    remainder renormalized.
    """
    simplex = default_tolerances().simplex
    _check_finite((b.r, b.s, b.g_x, b.g_z, b.phi), "Bloch parameters")
    if abs(math.cos(b.phi)) < _COS_PHI_MIN:
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
        if a < -simplex:
            raise InvalidStateError(f"Bloch parameters give population {a!r} < 0")
    pops = [max(0.0, a) for a in pops]
    total = reduce(operator.add, pops, 0)  # left to right; sum() compensates on 3.12+
    pops = [a / total for a in pops]
    d = b.g_x / (2.0 * math.cos(b.phi))
    if d < -simplex:
        raise InvalidStateError(
            f"g_x/(2 cos phi) = {d!r} is negative; shift phi by pi so the "
            "coherence magnitude is nonnegative"
        )
    return x_state(*pops, d=max(0.0, d), phi=b.phi)


def _family_matrices(ps, transposed: int = 0, repeated: int = 0) -> np.ndarray:
    """The (n, 4, 4) matrices of family members, with no validity check.

    Callers pass states that have passed _check_state. The entries are
    bit for bit those of DensityMatrix.from_matrix on the matrix assembled
    entry by entry, signed zeros included. Its symmetrisation,
    0.5 (m + m^dag), leaves the diagonal and the zeros as they are and
    maps each coherence z to _HALF * (z + z): numpy multiplies by 0.5 as
    by the complex 0.5 + 0j, and the zero products of that can flip the
    sign of a zero part.

    The first `transposed` matrices come out partially transposed, bit for
    bit as partial_transpose makes them: it only moves entries, so their
    entries are taken in the order _PT_ORDER.

    The first `repeated` states come again after the last one, not
    transposed: each state's 16 entries are formed once, even when the
    stack holds its matrix twice.
    """
    entries = []
    again = []
    for i, p in enumerate(ps):
        coh = p.d * cmath.exp(1j * p.phi)
        low = coh.conjugate()
        row = (
            p.a1, 0j, 0j, 0j,
            0j, p.a2, _HALF * (coh + coh), 0j,
            0j, _HALF * (low + low), p.a3, 0j,
            0j, 0j, 0j, p.a4,
        )
        if i < repeated:
            again += row
        entries += _PT_ORDER(row) if i < transposed else row
    return np.array(entries + again, dtype=complex).reshape(-1, 4, 4)


def to_density_matrix(p: XStateParams) -> DensityMatrix:
    """Materialize the 4x4 matrix of a family member.

    The state must pass the one validity rule, _check_state; then
    _family_matrices builds the matrix, read-only. No eigendecomposition
    runs.
    """
    _check_state(p)
    m = _family_matrices([p])[0]
    m.setflags(write=False)
    return DensityMatrix(m)


def _off_pattern(m: np.ndarray) -> list[tuple[int, int, float]]:
    """(i, j, |m_ij|) of each entry outside _X_PATTERN, row-major, as Python floats."""
    cells = [(i, j) for i in range(4) for j in range(4) if (i, j) not in _X_PATTERN]
    return [(i, j, float(abs(m[i, j]))) for i, j in cells]


def from_density_matrix(rho: DensityMatrix) -> XStateParams:
    """Read parameters off a density matrix in the family.

    Rejects matrices with any entry of magnitude >= _FAMILY_SPARSITY
    outside the diagonal and the (1,2)/(2,1) coherence pair; the error lists
    the offending entries. Note the (0,3) corner is part of the forbidden
    set, which is how general Bell-diagonal states with unequal first two
    weights get rejected.
    """
    m = rho.matrix
    offending = [(i, j, mag) for i, j, mag in _off_pattern(m) if mag >= _FAMILY_SPARSITY]
    if offending:
        desc = ", ".join(f"({i},{j})={mag:.3e}" for i, j, mag in offending)
        raise NotInFamilyError(
            f"matrix entries outside the X-like pattern: {desc}", offending
        )
    # Python floats, so no numpy scalar repr reaches a message or a result
    coh = complex(m[1, 2])
    d = abs(coh)
    phi = cmath.phase(coh) if d > 0.0 else 0.0
    return x_state(*(float(m[i, i].real) for i in range(4)), d, phi)


def is_entangled(p: XStateParams) -> bool:
    """True iff d^2 > a1 a4 + _ENTANGLEMENT_MARGIN (PPT criterion for the family).

    The boundary d^2 = a1 a4 is classified separable: such states are their
    own closest separable state.
    """
    return p.d * p.d > p.a1 * p.a4 + _ENTANGLEMENT_MARGIN


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


def _check_simplex(weights, simplex: float, label: str) -> None:
    _check_finite(weights, label)
    if any(w < -simplex for w in weights):
        raise InvalidStateError(f"{label}: negative weight in {tuple(weights)}")
    total = reduce(operator.add, weights, 0)  # left to right; sum() compensates on 3.12+
    if abs(total - 1.0) > simplex:
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


_BELL = [_projector(bell_ket(k)) for k in (1, 2, 3, 4)]
_BASIS = [_projector(ket) for ket in np.eye(4, dtype=complex)]
# mixture families: (what the weights are, the matrices they weight, summed
# left to right)
_MIXTURES = {
    "bell_diagonal": ("4 weights", _BELL),
    "vp": ("3 weights", [_BELL[2], _BASIS[1], _BASIS[2]]),
    "horodecki": ("3 weights", [_BELL[2], _BASIS[0], _BASIS[3]]),
    "theorem2_example": ("(p1, p2, q1, q2)", [_BELL[2], _BELL[3], _BASIS[0], _BASIS[3]]),
    "theorem3_example": (
        "(p, q1, q2, q3, q4)",
        [_BELL[2], _BASIS[1], _BASIS[2], _BASIS[0], _BASIS[3]],
    ),
}


def named_state(family: str, *params: float) -> DensityMatrix:
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
                                         p B3 + q1 |01> + q2 |10> + q3 |00> + q4 |11>
      rains()                            the fixed transcendental example state
    """
    simplex = default_tolerances().simplex
    name = family.lower()
    if name == "rains":
        if params:
            raise InvalidStateError("rains() takes no parameters")
        return to_density_matrix(RAINS_PARAMS)
    if name in _MIXTURES:
        arity, matrices = _MIXTURES[name]
        if len(params) != len(matrices):
            raise InvalidStateError(f"{name} requires {arity}")
        _check_simplex(params, simplex, name)
        m = params[0] * matrices[0]
        for w, term in zip(params[1:], matrices[1:]):
            m = m + w * term
        return DensityMatrix.from_matrix(m)
    if name == "theorem1_example":
        if len(params) != 5:
            raise InvalidStateError("theorem1_example requires (p, alpha, beta, q1, q2)")
        p, alpha, beta, q1, q2 = params
        _check_simplex((p, q1, q2), simplex, "theorem1_example")
        norm = alpha * alpha + beta * beta
        if abs(norm - 1.0) > simplex:
            raise InvalidStateError(
                f"theorem1_example: alpha^2 + beta^2 = {norm!r}, not 1"
            )
        psi = np.array([0.0, alpha, beta, 0.0], dtype=complex)
        m = p * _projector(psi) + q1 * _BASIS[1] + q2 * _BASIS[2]
        return DensityMatrix.from_matrix(m)
    raise InvalidStateError(f"unknown state family {family!r}")
