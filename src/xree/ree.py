"""Closest separable states and relative entropy of entanglement (REE).

For an entangled family member rho with populations (a1, a2, a3, a4) and
inner coherence d e^{i phi}, the closest separable state (CSS) is sought in
the same sparsity pattern,

    pi = diag(r1, r2, r3, r4) + y e^{+-i phi} on the (|01>, |10>) pair,

with the edge condition y = sqrt(r1 r4) (the partial transpose of pi has a
zero eigenvalue) and y <= sqrt(r2 r3) (pi is PSD). Stationarity of the
relative entropy along the separable boundary yields five coupled equations
linking (r1..r4, y) to (a1..a4, d) through a positive multiplier x and the
quantities

    z = sqrt((r2 - r3)^2 + 4 r1 r4),   ell = ln((r2+r3+z)/(r2+r3-z)).

Three solver branches cover the family:
  theorem1:  a1 = a4 = 0 (no outer population) -- fully closed form;
  theorem2:  a2 = a3 (symmetric middle block)  -- closed form with one
             sign resolved by a quadratic side condition;
  theorem3:  the general case -- reduces to a single transcendental
             equation in r1, solved by a bracketing grid plus bisection.

When the general branch admits no valid root, the CSS provably has a
different structure and the result is flagged as ansatz_failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import InvalidStateError, LogDomainError, NumericalError, WrongBranchError
from .qmath import _xlnx, binary_entropy, min_eig_pt, relative_entropy
from .states import XStateParams, _check_simplex, is_entangled, to_density_matrix, x_state

BRANCH_SEPARABLE = "separable"
BRANCH_THEOREM1 = "theorem1"
BRANCH_THEOREM2 = "theorem2"
BRANCH_THEOREM3 = "theorem3"
BRANCH_FAILURE = "ansatz_failure"


@dataclass(frozen=True)
class CssSolution:
    """Candidate closest separable state plus the multiplier x.

    z and ell are stored alongside; ell is +inf when the middle block is
    rank deficient (r2 r3 = r1 r4) and nan when the candidate is not PSD.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    y: float
    phi: float
    x: float
    z: float
    ell: float

    def diag(self) -> tuple[float, float, float, float]:
        return (self.r1, self.r2, self.r3, self.r4)


@dataclass(frozen=True)
class ReeResult:
    """REE in nats plus the CSS and diagnostics for one input state."""

    ree: float | None
    css: CssSolution | None
    branch: str
    residual_max: float | None
    diagnostics: str = ""


def css_solution(
    r1: float, r2: float, r3: float, r4: float, y: float, phi: float, x: float
) -> CssSolution:
    """Build a CssSolution, deriving z and ell from the populations."""
    z = math.sqrt((r2 - r3) ** 2 + 4.0 * r1 * r4)
    s = r2 + r3
    if s > z:
        ell = 2.0 * math.atanh(z / s) if s > 0.0 else 0.0
    elif s == z:
        ell = math.inf
    else:
        ell = math.nan
    return CssSolution(r1, r2, r3, r4, y, phi, x, z, ell)


def css_to_x_params(c: CssSolution, tol: Tolerances | None = None) -> XStateParams:
    """View a CSS as a family member (for matrices, fingerprints, seeds)."""
    return x_state(c.r1, c.r2, c.r3, c.r4, c.y, c.phi, tol=tol)


def css_to_density_matrix(c: CssSolution, tol: Tolerances | None = None):
    return to_density_matrix(css_to_x_params(c, tol), tol)


def _atanh_excess(tau: float) -> float:
    """atanh(tau) - tau without cancellation for small tau."""
    if tau < 1e-3:
        t2 = tau * tau
        return tau * t2 * (1.0 / 3.0 + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 / 9.0)))
    return math.atanh(tau) - tau


def ell_over_z(s: float, z: float, tol: Tolerances | None = None) -> float:
    """The ratio ell/z = ln((s+z)/(s-z)) / z, finite at z = 0.

    For small z this is evaluated by the series
    (2/s) (1 + z^2/(3 s^2) + z^4/(5 s^4) + ...), avoiding 0/0.
    """
    tol = tol or default_tolerances()
    if s <= 0.0:
        raise LogDomainError("r2 + r3 must be positive")
    if z < 0.0 or z >= s:
        raise LogDomainError(f"need 0 <= z < r2 + r3, got z={z!r}, s={s!r}")
    if z < tol.series_z_switch:
        t = (z / s) ** 2
        return (2.0 / s) * (1.0 + t * (1.0 / 3.0 + t * (1.0 / 5.0 + t / 7.0)))
    return 2.0 * math.atanh(z / s) / z


def _curvature(s: float, z: float) -> float:
    """G = (z/ell - s/2) / z^2, finite for all 0 <= z <= s.

    Limits: G -> -1/(6s) as z -> 0 and G -> -s/(2 z^2) as z -> s (where
    ell diverges). Used to evaluate the coupled equations without the
    removable 0/0 at r2 = r3 and without blowup at the PSD boundary.
    """
    if z <= 0.0:
        return -1.0 / (6.0 * s)
    tau = z / s
    if tau >= 1.0 - 1e-15:
        return -s / (2.0 * z * z)
    ex = _atanh_excess(tau)
    ell = 2.0 * (ex + tau)
    return -s * ex / (ell * z * z)


def css_residuals(
    c: CssSolution, p: XStateParams, tol: Tolerances | None = None
) -> tuple[float, float, float, float, float]:
    """Left-minus-right residuals of the five coupled CSS equations.

    The equations (with w = r1 r4, u = r2 - r3, s = r2 + r3, h = w/(r1+r4)):

      (a)  r1 - x h - a1
      (b)  r4 - x h - a4
      (c)  r2 + 2 x h (1/2 - u G)      - a2
      (d)  r3 + 2 x h (1/2 + u G)      - a3
      (e)  y  + x y/(r1+r4) (s/2 + u^2 G) - d

    where G is the curvature ratio above. This formulation is exact and
    stays finite in the rank-deficient limits r1 = r4 = 0 (where h -> 0 and
    y/(r1+r4) -> 1/2) and r2 r3 = r1 r4.
    """
    tol = tol or default_tolerances()
    r1, r2, r3, r4, y, x = c.r1, c.r2, c.r3, c.r4, c.y, c.x
    w = r1 * r4
    u = r2 - r3
    s = r2 + r3
    z = math.sqrt(u * u + 4.0 * w)
    if s <= 0.0 or s - z < -tol.y_edge:
        raise LogDomainError(
            f"candidate middle block is not PSD: r2+r3 = {s!r}, z = {z!r}"
        )
    rsum = r1 + r4
    if rsum > 0.0:
        h = w / rsum
        yfrac = y / rsum
    else:
        h = 0.0
        yfrac = 0.5  # limit of sqrt(r1 r4)/(r1 + r4) for r1 = r4 -> 0
    g = _curvature(s, min(z, s))
    res_a = r1 - x * h - p.a1
    res_b = r4 - x * h - p.a4
    res_c = r2 + 2.0 * x * h * (0.5 - u * g) - p.a2
    res_d = r3 + 2.0 * x * h * (0.5 + u * g) - p.a3
    res_e = y + x * yfrac * (0.5 * s + u * u * g) - p.d
    return (res_a, res_b, res_c, res_d, res_e)


def input_spectrum_pair(p: XStateParams) -> tuple[float, float]:
    """Eigenvalues of the middle 2x2 block of the input state.

    These are (a2 + a3)/2 +- sqrt((a2 - a3)^2 + 4 d^2)/2; together with a1
    and a4 they form the full spectrum.
    """
    disc = math.sqrt((p.a2 - p.a3) ** 2 + 4.0 * p.d * p.d)
    half = 0.5 * (p.a2 + p.a3)
    return (half + 0.5 * disc, half - 0.5 * disc)


def ree_from_css(
    p: XStateParams, c: CssSolution, tol: Tolerances | None = None
) -> float:
    """Relative entropy tr(rho ln rho - rho ln pi) from the parameters alone.

    The cross term is evaluated spectrally on the middle block: with
    m+- = (s +- z)/2 the block eigenvalues of pi and

        c+- = (a2 + a3)/2 +- [(a2 - a3)(r2 - r3) + 4 d y] / (2 z)

    the overlaps of rho with the block eigenprojectors, the term is
    c+ ln m+ + c- ln m-. A vanishing m- is allowed only when c- vanishes
    too (supports nested), applying the 0 ln 0 convention; otherwise the
    offending term is reported. For z below the series switch the
    algebraically identical form
    (a2+a3)/2 ln(r2 r3 - r1 r4) + odd * ell/z is used instead.
    """
    tol = tol or default_tolerances()
    a_plus, a_minus = input_spectrum_pair(p)
    tr_rho_ln_rho = _xlnx(p.a1) + _xlnx(p.a4) + _xlnx(a_plus) + _xlnx(max(a_minus, 0.0))

    cross = 0.0
    for pop, r, label in ((p.a1, c.r1, "a1 ln r1"), (p.a4, c.r4, "a4 ln r4")):
        if pop > tol.eigenvalue_clamp:
            if r <= 0.0:
                raise LogDomainError(
                    f"term {label}: population {pop!r} outside CSS support"
                )
            cross += pop * math.log(r)

    u = c.r2 - c.r3
    s = c.r2 + c.r3
    z = math.sqrt(u * u + 4.0 * c.y * c.y)
    det_mid = c.r2 * c.r3 - c.y * c.y
    odd = 0.5 * (p.a2 - p.a3) * u + 2.0 * p.d * c.y
    if z < tol.series_z_switch:
        if det_mid <= 0.0:
            raise LogDomainError("term ln(r2 r3 - r1 r4): argument not positive")
        cross += 0.5 * (p.a2 + p.a3) * math.log(det_mid) + odd * ell_over_z(s, z, tol)
    else:
        m_plus = 0.5 * (s + z)
        m_minus = 0.5 * (s - z)
        c_plus = 0.5 * (p.a2 + p.a3) + odd / z
        c_minus = 0.5 * (p.a2 + p.a3) - odd / z
        for coeff, m, label in (
            (c_plus, m_plus, "c+ ln m+"),
            (c_minus, m_minus, "c- ln m-"),
        ):
            if coeff > tol.support_leak:
                if m <= 0.0:
                    raise LogDomainError(
                        f"term {label}: weight {coeff!r} outside CSS support"
                    )
                cross += coeff * math.log(m)
            elif coeff > 0.0 and m > 0.0:
                cross += coeff * math.log(m)
    return tr_rho_ln_rho - cross


def _multiplier(r1: float, r4: float, a1: float) -> float:
    """x = (r1 - a1)(r1 + r4)/(r1 r4), from the first coupled equation."""
    return (r1 - a1) * (r1 + r4) / (r1 * r4)


def solve_theorem1(p: XStateParams, tol: Tolerances | None = None) -> ReeResult:
    """Closed-form branch for states with no outer population (a1 = a4 = 0).

    The CSS is the decohered middle diagonal, pi = a2 |01><01| + a3 |10><10|,
    and REE = H(a2) - H(A+) with A+ the larger middle-block eigenvalue of
    the input.
    """
    tol = tol or default_tolerances()
    if p.a1 >= tol.branch_zero or p.a4 >= tol.branch_zero:
        raise WrongBranchError(
            f"theorem1 requires a1 = a4 = 0; got a1={p.a1!r}, a4={p.a4!r}"
        )
    if not is_entangled(p, tol):
        raise WrongBranchError("theorem1 requires an entangled input")
    gap = abs(p.a2 - p.a3)
    if gap > tol.branch_zero:
        x = (2.0 * p.d / gap) * math.log(max(p.a2, p.a3) / min(p.a2, p.a3))
    else:
        x = 2.0 * p.d / p.a2
    css = css_solution(0.0, p.a2, p.a3, 0.0, 0.0, p.phi, x)
    a_plus, _ = input_spectrum_pair(p)
    ree = binary_entropy(p.a2, tol) - binary_entropy(min(a_plus, 1.0), tol)
    residuals = css_residuals(css, p, tol)
    return ReeResult(ree, css, BRANCH_THEOREM1, max(abs(r) for r in residuals))


def solve_theorem2(p: XStateParams, tol: Tolerances | None = None) -> ReeResult:
    """Closed-form branch for a symmetric middle block (a2 = a3).

    With F = 2 (a1+a2+a4+d)(a1+a2+a4-d) and
    Delta = d sqrt(d^2 (a1-a4)^2 + 4 a1 a4 (a1+a2)(a2+a4)), the populations

      r1 = [2 a1 (a1+a2)(a1+a2+a4) - d^2 (a1-a4) +- Delta] / F
      r4 = r1 - (a1 - a4),   r2 = r3 = a1 + a2 - r1,   y = sqrt(r1 r4)

    where the sign is fixed by the side condition
    y^2 - d y + r2 (r1 - a1) = 0. The REE follows from the block-spectral
    cross term with c+- = a2 +- d and m+- = r2 +- y.
    """
    tol = tol or default_tolerances()
    if p.a1 < tol.branch_zero and p.a4 < tol.branch_zero:
        raise WrongBranchError("theorem2 requires a1 or a4 nonzero")
    if abs(p.a2 - p.a3) >= tol.branch_equal:
        raise WrongBranchError(
            f"theorem2 requires a2 = a3; got difference {p.a2 - p.a3!r}"
        )
    if not is_entangled(p, tol):
        raise WrongBranchError("theorem2 requires an entangled input")
    a1, a2, a4, d = p.a1, p.a2, p.a4, p.d
    f_norm = 2.0 * (a1 + a2 + a4 + d) * (a1 + a2 + a4 - d)
    delta = d * math.sqrt(
        d * d * (a1 - a4) ** 2 + 4.0 * a1 * a4 * (a1 + a2) * (a2 + a4)
    )
    base = 2.0 * a1 * (a1 + a2) * (a1 + a2 + a4) - d * d * (a1 - a4)
    best = None
    for sign in (1.0, -1.0):
        r1 = (base + sign * delta) / f_norm
        r4 = r1 - (a1 - a4)
        r2 = a1 + a2 - r1
        if r1 <= 0.0 or r4 <= 0.0 or r2 <= 0.0:
            continue
        y = math.sqrt(r1 * r4)
        quad = abs(y * y - d * y + r2 * (r1 - a1))
        if best is None or quad < best[0]:
            best = (quad, r1, r2, r4, y)
    if best is None or best[0] > tol.quadratic_sign:
        raise NumericalError(
            "no sign choice satisfies the quadratic side condition "
            f"y^2 - d y + r2 (r1 - a1) = 0 (best residual: "
            f"{best[0] if best else math.inf!r}); this should be unreachable "
            f"for valid symmetric inputs: {p!r}"
        )
    _, r1, r2, r4, y = best
    x = _multiplier(r1, r4, a1)
    css = css_solution(r1, r2, r2, r4, y, p.phi, x)
    omega1 = _xlnx(a1) + _xlnx(a4) + _xlnx(a2 + d) + _xlnx(a2 - d)
    omega2 = (
        (a1 * math.log(r1) if a1 > 0.0 else 0.0)
        + (a4 * math.log(r4) if a4 > 0.0 else 0.0)
        + (a2 + d) * math.log(r2 + y)
        + ((a2 - d) * math.log(r2 - y) if a2 - d > tol.eigenvalue_clamp else 0.0)
    )
    ree = omega1 - omega2
    residuals = css_residuals(css, p, tol)
    return ReeResult(ree, css, BRANCH_THEOREM2, max(abs(r) for r in residuals))


def _t3_candidates(
    r1: np.ndarray, sign: np.ndarray, p: XStateParams
) -> tuple[np.ndarray, ...]:
    """Populations (r2, r3, r4), y, and the feasibility mask for given r1.

    r1 and sign (+1 or -1, the branch of the (r2, r3) quadratic) broadcast
    against each other: a grid of shape (G,) with sign of shape (2, 1)
    gives (2, G) arrays, one row per branch; r1 and sign of shape (K,)
    give one entry per root. r4 and y take the shape of r1.
    """
    a1, a2, a3, a4, d = p.a1, p.a2, p.a3, p.a4, p.d
    r4 = r1 - (a1 - a4)
    w = r1 * r4
    y = np.sqrt(np.where(w > 0.0, w, 0.0))
    gamma = (
        16.0 * d * y
        - 8.0 * (2.0 * a1 + a2 + a3 + 2.0 * a4) * r1
        + ((a2 - a3) ** 2 + 8.0 * a1 * (2.0 * a1 + a2 + a3))
    )
    root = np.sqrt(np.where(gamma > 0.0, gamma, 0.0))
    r2 = 0.25 * ((4.0 * a1 + 3.0 * a2 + a3) - 4.0 * r1 + sign * root)
    r3 = 0.25 * ((4.0 * a1 + a2 + 3.0 * a3) - 4.0 * r1 - sign * root)
    ok = (r1 > a1) & (r4 > 0.0) & (gamma >= 0.0) & (r2 > 0.0) & (r3 > 0.0)
    return r2, r3, r4, y, ok


def _t3_equation(r1: np.ndarray, sign: np.ndarray, p: XStateParams) -> np.ndarray:
    """The one-variable reduction f(r1); nan where the candidate is infeasible.

    f(r1) = ell - z (r1 - a1)(r2 - r3)^2
                 / [y (d - y) z^2 - 2 r1 r4 (r1 - a1)(r2 + r3)]

    r1 and sign broadcast as in _t3_candidates; f has their common shape.
    """
    a1, d = p.a1, p.d
    r2, r3, r4, y, ok = _t3_candidates(r1, sign, p)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = r2 - r3
        s = r2 + r3
        w = r1 * r4
        z = np.sqrt(u * u + 4.0 * w)
        den = y * (d - y) * z * z - 2.0 * w * (r1 - a1) * s
        ok &= (s > z) & (den != 0.0)
        ell = np.log((s + z) / np.where(ok, s - z, np.nan))
        return ell - z * (r1 - a1) * u * u / np.where(ok, den, np.nan)


def _bisect_t3(
    a: np.ndarray, b: np.ndarray, fa: np.ndarray, sign: np.ndarray,
    p: XStateParams, tol: Tolerances,
) -> np.ndarray:
    """Halve every sign-change bracket [a, b] of the reduction together.

    A bracket stops once it is no wider than root_bisect_tol, and its root
    is its midpoint. A nan value at a midpoint sets the bracket to nan,
    which stops it and makes its root nan.
    """
    while True:
        mid = 0.5 * (a + b)
        active = b - a > tol.root_bisect_tol
        if not active.any():
            return mid
        fm = _t3_equation(mid, sign, p)
        left = active & (fa * fm <= 0.0)
        right = active & ~left
        b = np.where(left, mid, b)
        a = np.where(right, mid, a)
        fa = np.where(right, fm, fa)
        a[active & np.isnan(fm)] = np.nan


def solve_theorem3(p: XStateParams, tol: Tolerances | None = None) -> ReeResult:
    """General branch: bracketing grid plus bisection on the reduction.

    Both quadratic sign branches for (r2, r3) are scanned over the feasible
    interval r1 in (a1, (1 + a1 - a4)/2). Every bisected root is validated
    against the sign side condition, the full five coupled equations, and
    PSD; when several roots survive, the one with the smallest REE wins.
    No surviving root means the CSS is not of the conjectured form and the
    result is ansatz_failure.
    """
    tol = tol or default_tolerances()
    if not is_entangled(p, tol):
        raise WrongBranchError("theorem3 requires an entangled input")
    lo = p.a1 + 1e-12
    hi = 0.5 * (1.0 + p.a1 - p.a4)
    if hi <= lo:
        return ReeResult(
            None, None, BRANCH_FAILURE, None, "empty feasible interval for r1"
        )
    grid = np.linspace(lo, hi, tol.root_grid_points)
    signs = np.array([[1.0], [-1.0]])
    vals = _t3_equation(grid, signs, p)
    # a bracket is a grid cell with finite ends and a zero at its left end
    # or a sign change; row-major order keeps sign +1 first, then r1 ascending
    finite = np.isfinite(vals)
    both = finite[:, :-1] & finite[:, 1:]
    change = both & (vals[:, :-1] * vals[:, 1:] < 0.0)
    rows, cells = np.nonzero(change | (both & (vals[:, :-1] == 0.0)))
    sign = signs[rows, 0]
    # a zero-width bracket [r, r] is not bisected and returns its root r
    a = grid[cells]
    b = np.where(change[rows, cells], grid[cells + 1], a)
    roots = _bisect_t3(a, b, vals[rows, cells], sign, p, tol)
    fval = _t3_equation(roots, sign, p)
    r2, r3, r4, y, ok = _t3_candidates(roots, sign, p)
    side = (r2 - r3) * (p.a2 - r2) + 2.0 * y * (p.d - y) - 2.0 * r2 * (roots - p.a1)
    keep = (
        (np.abs(fval) <= tol.root_value_cap)  # nan: bisection failed; large: a pole
        & ok
        & ~(np.abs(side) > tol.sign_residual)
        & ~(y * y > r2 * r3 + tol.y_edge)
    )
    accepted: list[tuple[float, CssSolution, float]] = []
    for k in np.flatnonzero(keep):
        r1v, r2v, r3v, r4v, yv = (float(v[k]) for v in (roots, r2, r3, r4, y))
        x = _multiplier(r1v, r4v, p.a1)
        css = css_solution(r1v, r2v, r3v, r4v, yv, p.phi, x)
        try:
            residuals = css_residuals(css, p, tol)
            ree = ree_from_css(p, css, tol)
        except LogDomainError:
            continue
        rmax = max(abs(r) for r in residuals)
        if rmax > tol.residual_validation:
            continue
        accepted.append((ree, css, rmax))
    if not accepted:  # so every bracket was rejected
        return ReeResult(
            None,
            None,
            BRANCH_FAILURE,
            None,
            f"no valid root of the one-variable reduction over "
            f"{tol.root_grid_points} grid points per sign branch "
            f"({len(roots)} brackets, {len(roots)} rejected)",
        )
    accepted.sort(key=lambda item: item[0])
    ree, css, rmax = accepted[0]
    note = ""
    if len(accepted) > 1:
        others = ", ".join(f"{r:.6g}" for r, _, _ in accepted[1:])
        note = f"{len(accepted)} validated roots; kept minimal REE (others: {others})"
    return ReeResult(ree, css, BRANCH_THEOREM3, rmax, note)


def _separable_result(p: XStateParams) -> ReeResult:
    css = css_solution(p.a1, p.a2, p.a3, p.a4, p.d, p.phi, 0.0)
    return ReeResult(0.0, css, BRANCH_SEPARABLE, 0.0)


def compute_ree(p: XStateParams, tol: Tolerances | None = None) -> ReeResult:
    """Dispatch on the branch preconditions and validate the result.

    Separable inputs return REE = 0 with the state as its own CSS. For
    entangled inputs the branch solution is accepted only if the five
    coupled-equation residuals, the edge condition on the partial
    transpose, and the agreement between the parametric REE and the
    spectral relative entropy all pass; otherwise the result is downgraded
    to ansatz_failure with diagnostics.
    """
    tol = tol or default_tolerances()
    if not is_entangled(p, tol):
        return _separable_result(p)
    diagnostics = []
    if p.a1 < tol.branch_zero and p.a4 < tol.branch_zero:
        result = solve_theorem1(p, tol)
    elif abs(p.a2 - p.a3) < tol.branch_equal:
        result = solve_theorem2(p, tol)
    else:
        result = solve_theorem3(p, tol)
        if result.diagnostics:
            diagnostics.append(result.diagnostics)
        if abs(p.a2 - p.a3) < tol.branch_near_equal:
            # near-degenerate middle block: the reduction is 0/0-prone, so
            # record the symmetric-projection value as a cross-check
            mid = 0.5 * (p.a2 + p.a3)
            projected = x_state(p.a1, mid, mid, p.a4, p.d, p.phi, tol=tol)
            try:
                check = solve_theorem2(projected, tol)
                if result.ree is not None and check.ree is not None:
                    diagnostics.append(
                        f"near-degenerate cross-check vs symmetric projection: "
                        f"|delta ree| = {abs(result.ree - check.ree):.3e}"
                    )
            except (WrongBranchError, NumericalError, LogDomainError) as exc:
                diagnostics.append(f"symmetric-projection cross-check failed: {exc}")
    if result.branch == BRANCH_FAILURE:
        return replace(result, diagnostics="; ".join(diagnostics) or result.diagnostics)

    problems = []
    if result.residual_max is None or result.residual_max > tol.residual_validation:
        problems.append(f"coupled-equation residual {result.residual_max!r}")
    css = result.css
    if abs(css.y - math.sqrt(css.r1 * css.r4)) > tol.y_edge:
        problems.append(f"edge condition y = sqrt(r1 r4) violated by {css.y!r}")
    try:
        pi = css_to_density_matrix(css, tol)
        edge = min_eig_pt(pi, tol)
        if abs(edge) > tol.edge_validation:
            problems.append(f"partial-transpose edge eigenvalue {edge:.3e}")
        dual = relative_entropy(to_density_matrix(p, tol), pi, tol)
        if not math.isfinite(dual) or abs(dual - result.ree) > tol.dual_path_validation:
            problems.append(
                f"parametric REE {result.ree!r} vs spectral {dual!r} disagree"
            )
    except (InvalidStateError, LogDomainError) as exc:
        problems.append(f"CSS validation error: {exc}")
    if problems:
        return ReeResult(
            None,
            None,
            BRANCH_FAILURE,
            result.residual_max,
            "; ".join(
                [f"{result.branch} solution failed validation"] + problems + diagnostics
            ),
        )
    if diagnostics:
        merged = "; ".join(d for d in [result.diagnostics] + diagnostics if d)
        result = replace(result, diagnostics=merged)
    return result


def closed_form_family_ree(
    family: str, weights, tol: Tolerances | None = None
) -> float:
    """Reference REE formulas for the three named separable-boundary families.

    bell_diagonal (largest weight on the third Bell state):
        ln 2 - H(l3)
    vp:  H(l1/2 + l2) - H(Lambda),
         Lambda = [1 + sqrt(l1^2 + (l2 - l3)^2)] / 2
    horodecki:
        l1 ln l1 + l2 ln l2 + l3 ln l3 + 2 H(l1/2 + l2) - l1 ln 2
    """
    tol = tol or default_tolerances()
    weights = tuple(float(w) for w in weights)
    name = family.lower()
    _check_simplex(weights, tol, name)
    if name == "bell_diagonal":
        if len(weights) != 4:
            raise InvalidStateError("bell_diagonal requires 4 weights")
        l3 = weights[2]
        if l3 < max(weights) - tol.simplex:
            raise InvalidStateError(
                "bell_diagonal closed form requires the third weight to be maximal"
            )
        return math.log(2.0) - binary_entropy(l3, tol)
    if name == "vp":
        if len(weights) != 3:
            raise InvalidStateError("vp requires 3 weights")
        l1, l2, l3 = weights
        lam = 0.5 * (1.0 + math.sqrt(l1 * l1 + (l2 - l3) ** 2))
        return binary_entropy(0.5 * l1 + l2, tol) - binary_entropy(min(lam, 1.0), tol)
    if name == "horodecki":
        if len(weights) != 3:
            raise InvalidStateError("horodecki requires 3 weights")
        l1, l2, l3 = weights
        return (
            _xlnx(l1)
            + _xlnx(l2)
            + _xlnx(l3)
            + 2.0 * binary_entropy(0.5 * l1 + l2, tol)
            - l1 * math.log(2.0)
        )
    raise InvalidStateError(f"no closed form for family {family!r}")
