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
  theorem2:  a2 = a3 (symmetric middle block)  -- closed form, the root
             of its quadratic that lies in (a1, a1 + a2);
  theorem3:  the general case -- reduces to a single transcendental
             equation in r1, solved by a bracketing grid plus bisection.

Each branch scores its CSS with ree_from_css. When no root of the general
branch was found on the grid, the result is flagged as ansatz_failure.

compute_ree_many takes a list of states and compute_ree is its one-state
call. The list runs CHUNK states at a time. Validity checks, dispatch and
the theorem1/2 solvers run state by state. A chunk's Theorem 3 states
are read once into one table, with the closed-form end of the r1 where
each state's reduction is defined, and the reduction is valued up to there
only, many states per array pass. The chunk's brackets are bisected
together, one reduction call per level, and its roots pass the root
filters in one array pass; only the scoring of each state's surviving
roots runs state by state. The chunk's validation builds every matrix it
needs, partial transposes included, in one stack and decomposes it in one
eigendecomposition. Each result is bit for bit what the state gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import InvalidStateError, LogDomainError, WrongBranchError
from . import qmath
from .qmath import (
    _EIGENVALUE_CLAMP, _SUPPORT_LEAK, _relative_entropy_weights, _sigma_weights, _xlnx,
    binary_entropy,
)
from .states import (
    _MIXTURES, XStateParams, _check_simplex, _check_state, _family_matrices,
    input_spectrum_pair, is_entangled, to_density_matrix, x_state,
)

BRANCH_SEPARABLE = "separable"
BRANCH_THEOREM1 = "theorem1"
BRANCH_THEOREM2 = "theorem2"
BRANCH_THEOREM3 = "theorem3"
BRANCH_FAILURE = "ansatz_failure"

# routing thresholds of _branch_of; solve_theorem1 also takes a2 - a3 below
# _BRANCH_ZERO as zero when it forms the multiplier
_BRANCH_ZERO = 1e-12
_BRANCH_EQUAL = 1e-12

_SERIES_Z_SWITCH = 1e-6


@dataclass(frozen=True)
class CssSolution:
    """Candidate closest separable state plus the multiplier x."""

    r1: float
    r2: float
    r3: float
    r4: float
    y: float
    phi: float
    x: float


@dataclass(frozen=True)
class ReeResult:
    """REE in nats plus the CSS and diagnostics for one input state.

    edge_min_eig is the smallest eigenvalue of the partial transpose of the
    CSS (for a separable input, of the state itself), as the validation
    measured it; None when there is no CSS.
    """

    ree: float | None
    css: CssSolution | None
    branch: str
    residual_max: float | None
    diagnostics: str = ""
    edge_min_eig: float | None = None


def css_solution(
    r1: float, r2: float, r3: float, r4: float, y: float, phi: float, x: float
) -> CssSolution:
    """Build a CssSolution from its populations, coherence, phase and multiplier."""
    return CssSolution(r1, r2, r3, r4, y, phi, x)


def css_to_x_params(c: CssSolution, tol: Tolerances | None = None) -> XStateParams:
    """View a CSS as a family member (for matrices, fingerprints, seeds)."""
    return x_state(c.r1, c.r2, c.r3, c.r4, c.y, c.phi, tol=tol)


def css_to_density_matrix(c: CssSolution):
    return to_density_matrix(css_to_x_params(c))


def _atanh_excess(tau: float) -> float:
    """atanh(tau) - tau without cancellation for small tau."""
    if tau < 1e-3:
        t2 = tau * tau
        return tau * t2 * (1.0 / 3.0 + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 / 9.0)))
    return math.atanh(tau) - tau


def _ell_over_z(s: float, z: float) -> float:
    """The ratio ell/z = ln((s+z)/(s-z)) / z for 0 <= z < min(s, _SERIES_Z_SWITCH).

    Its series (2/s) (1 + z^2/(3 s^2) + z^4/(5 s^4) + ...) is finite at z = 0.
    """
    t = (z / s) ** 2
    return (2.0 / s) * (1.0 + t * (1.0 / 3.0 + t * (1.0 / 5.0 + t / 7.0)))


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


def ree_from_css(p: XStateParams, c: CssSolution) -> float:
    """Relative entropy tr(rho ln rho - rho ln pi) from the parameters alone.

    The cross term is evaluated spectrally on the middle block: with
    m+- = (s +- z)/2 the block eigenvalues of pi and

        c+- = (a2 + a3)/2 +- [(a2 - a3)(r2 - r3) + 4 d y] / (2 z)

    the overlaps of rho with the block eigenprojectors, the term is
    c+ ln m+ + c- ln m-. A vanishing m- (or r1, r4) is allowed only when
    c- (or a1, a4) is at most _SUPPORT_LEAK (supports nested), applying the
    0 ln 0 convention; otherwise the offending term is reported. For z
    below the series switch the algebraically identical form
    (a2+a3)/2 ln(r2 r3 - r1 r4) + odd * ell/z is used instead.
    """
    a_plus, a_minus = input_spectrum_pair(p)
    tr_rho_ln_rho = _xlnx(p.a1) + _xlnx(p.a4) + _xlnx(a_plus) + _xlnx(max(a_minus, 0.0))

    cross = 0.0
    for pop, r, label in ((p.a1, c.r1, "a1 ln r1"), (p.a4, c.r4, "a4 ln r4")):
        if r <= 0.0:
            if pop > _SUPPORT_LEAK:
                raise LogDomainError(
                    f"term {label}: population {pop!r} outside CSS support"
                )
        elif pop > _EIGENVALUE_CLAMP:
            cross += pop * math.log(r)

    u = c.r2 - c.r3
    s = c.r2 + c.r3
    z = math.sqrt(u * u + 4.0 * c.y * c.y)
    det_mid = c.r2 * c.r3 - c.y * c.y
    odd = 0.5 * (p.a2 - p.a3) * u + 2.0 * p.d * c.y
    if z < _SERIES_Z_SWITCH:
        # det_mid > 0 and s > 0 give 0 <= z < s, the domain of the series
        if det_mid <= 0.0 or s <= 0.0:
            raise LogDomainError("term ln(r2 r3 - r1 r4): middle block not positive definite")
        cross += 0.5 * (p.a2 + p.a3) * math.log(det_mid) + odd * _ell_over_z(s, z)
    else:
        m_plus = 0.5 * (s + z)
        m_minus = 0.5 * (s - z)
        c_plus = 0.5 * (p.a2 + p.a3) + odd / z
        c_minus = 0.5 * (p.a2 + p.a3) - odd / z
        for coeff, m, label in (
            (c_plus, m_plus, "c+ ln m+"),
            (c_minus, m_minus, "c- ln m-"),
        ):
            if coeff > _SUPPORT_LEAK:
                if m <= 0.0:
                    raise LogDomainError(
                        f"term {label}: weight {coeff!r} outside CSS support"
                    )
                cross += coeff * math.log(m)
            elif coeff > 0.0 and m > 0.0:
                cross += coeff * math.log(m)
    return tr_rho_ln_rho - cross


def _failed(branch: str, problems: list[str], residual_max: float | None = None) -> ReeResult:
    """The ansatz_failure result of a branch solution that failed a check."""
    note = "; ".join([f"{branch} solution failed validation", *problems])
    return ReeResult(None, None, BRANCH_FAILURE, residual_max, note)


def _scored(p: XStateParams, css: CssSolution, branch: str, tol: Tolerances) -> ReeResult:
    """A branch's result for its CSS: the REE and the largest residual.

    A CSS outside the domain of the logarithms fails validation.
    """
    try:
        res_a, res_b, res_c, res_d, res_e = css_residuals(css, p, tol)
        ree = ree_from_css(p, css)
    except LogDomainError as exc:
        return _failed(branch, [f"CSS validation error: {exc}"])
    residual_max = max(abs(res_a), abs(res_b), abs(res_c), abs(res_d), abs(res_e))
    return ReeResult(ree, css, branch, residual_max)


def _branch_of(p: XStateParams) -> str:
    """The branch p belongs to: the one routing rule of the solvers."""
    if not is_entangled(p):
        return BRANCH_SEPARABLE
    if p.a1 < _BRANCH_ZERO and p.a4 < _BRANCH_ZERO:
        return BRANCH_THEOREM1
    if abs(p.a2 - p.a3) < _BRANCH_EQUAL:
        return BRANCH_THEOREM2
    return BRANCH_THEOREM3


def _multiplier(r1: float, r4: float, a1: float) -> float:
    """x = (r1 - a1)(r1 + r4)/(r1 r4), from the first coupled equation."""
    return (r1 - a1) * (r1 + r4) / (r1 * r4)


def solve_theorem1(p: XStateParams, tol: Tolerances | None = None) -> ReeResult:
    """Closed-form branch for states with no outer population (a1 = a4 = 0).

    The CSS is the decohered middle diagonal, pi = a2 |01><01| + a3 |10><10|,
    so REE = H(a2) - H(A+) with A+ the larger middle-block eigenvalue of
    the input; ree_from_css evaluates it. Outer populations below
    _BRANCH_ZERO join the middle, r2 = a2 + a1 and r3 = a3 + a4, so pi has
    unit trace. With a2 != a3 and one of them 0, which the coherence slack
    admits, ln(a2/a3) is undefined and the state fails validation.
    """
    tol = tol or default_tolerances()
    if (branch := _branch_of(p)) != BRANCH_THEOREM1:
        raise WrongBranchError(f"theorem1 does not apply: {p!r} is {branch}")
    gap = abs(p.a2 - p.a3)
    if gap > _BRANCH_ZERO:
        if min(p.a2, p.a3) == 0.0:
            zero = "a2" if p.a2 == 0.0 else "a3"
            return _failed(BRANCH_THEOREM1, [f"middle population {zero} = 0: ln(a2/a3) undefined"])
        x = (2.0 * p.d / gap) * math.log(max(p.a2, p.a3) / min(p.a2, p.a3))
    else:
        x = 2.0 * p.d / p.a2
    css = css_solution(0.0, p.a2 + p.a1, p.a3 + p.a4, 0.0, 0.0, p.phi, x)
    return _scored(p, css, BRANCH_THEOREM1, tol)


def solve_theorem2(p: XStateParams, tol: Tolerances | None = None) -> ReeResult:
    """Closed-form branch for a symmetric middle block (a2 = a3).

    With F = 2 (a1+a2+a4+d)(a1+a2+a4-d) and
    Delta = d sqrt(d^2 (a1-a4)^2 + 4 a1 a4 (a1+a2)(a2+a4)), the populations

      r1 = [2 a1 (a1+a2)(a1+a2+a4) - d^2 (a1-a4) + Delta] / F
      r4 = r1 - (a1 - a4),   r2 = r3 = a1 + a2 - r1,   y = sqrt(r1 r4).

    The side condition y^2 - d y + r2 (r1 - a1) = 0 is d y = L(r1), with
    L = (a1+a2+a4) r1 - a1 (a1+a2). Squared, P = L^2 - d^2 r1 r4 = 0 has the
    roots r1 with +-Delta and leads with F/2 > 0. With b = (a1+a2)(a2+a4),
    P(a1) = a1 a4 (a1 a4 - d^2) <= 0 < P(a1+a2) = b (b - d^2) on an entangled
    state, so the + root lies in (a1, a1 + a2): the one root with x > 0,
    where L > 0 solves the unsquared condition and r1, r2, r4 > 0. F <= 0,
    from d inside the coherence slack, or a population rounded to <= 0 fails.
    """
    tol = tol or default_tolerances()
    if (branch := _branch_of(p)) != BRANCH_THEOREM2:
        raise WrongBranchError(f"theorem2 does not apply: {p!r} is {branch}")
    a1, a2, a4, d = p.a1, p.a2, p.a4, p.d
    f_norm = 2.0 * (a1 + a2 + a4 + d) * (a1 + a2 + a4 - d)
    if f_norm <= 0.0:
        return _failed(BRANCH_THEOREM2, [f"d = {d!r} reaches a1 + a2 + a4: F = {f_norm!r}"])
    delta = d * math.sqrt(d * d * (a1 - a4) ** 2 + 4.0 * a1 * a4 * (a1 + a2) * (a2 + a4))
    r1 = (2.0 * a1 * (a1 + a2) * (a1 + a2 + a4) - d * d * (a1 - a4) + delta) / f_norm
    r4 = r1 - (a1 - a4)
    r2 = a1 + a2 - r1
    if r1 <= 0.0 or r4 <= 0.0 or r2 <= 0.0:
        return _failed(BRANCH_THEOREM2, [f"non-positive population in {(r1, r2, r4)!r}"])
    y = math.sqrt(r1 * r4)
    css = css_solution(r1, r2, r2, r4, y, p.phi, _multiplier(r1, r4, a1))
    return _scored(p, css, BRANCH_THEOREM2, tol)


class _T3Constants(NamedTuple):
    """The rows of a _t3_table: each state's numbers in the reduction.

    Each field holds one entry per state, per window row (B, 1), or per
    bracket (K,). lo and hi are the ends of each state's r1 grid, empty
    when hi <= lo; past end, the reduction is not defined (_t3_grid).
    """

    a1: np.ndarray
    a1_minus_a4: np.ndarray
    d: np.ndarray
    d16: np.ndarray
    r1_slope: np.ndarray
    gamma0: np.ndarray
    r2_base: np.ndarray
    r3_base: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    end: np.ndarray


def _t3_table(ps: list[XStateParams]) -> np.ndarray:
    """The (F, n) table of _T3Constants, one column per state of ps.

    It is formed on Python floats: x ** 2 there calls the C library's pow,
    which on some doubles differs in the last bit from numpy's x * x.
    """
    rows = []
    for p in ps:
        a1, a2, a3, a4, d = p.a1, p.a2, p.a3, p.a4, p.d
        slope = 8.0 * (2.0 * a1 + a2 + a3 + 2.0 * a4)
        gamma0 = (a2 - a3) ** 2 + 8.0 * a1 * (2.0 * a1 + a2 + a3)
        # end (_t3_grid): the larger root t of lead t^2 - 2 half t + at0^2, at0 = gamma at t = 0
        gap, least = abs(a1 - a4), min(a1, a4)
        at0 = (a2 - a3) ** 2 + 8.0 * least * (a2 + a3 + 2.0 * least)
        half = slope * at0 + 128.0 * d * d * gap
        root = math.sqrt(at0 * at0 + slope * at0 * gap + 64.0 * (d * gap) ** 2)
        lead = (slope - 16.0 * d) * (slope + 16.0 * d)
        end = max(a1 - a4, 0.0) + (half + 16.0 * d * root) / lead if lead > 0.0 else math.inf
        rows.append((
            a1, a1 - a4, d, 16.0 * d, slope, gamma0,
            4.0 * a1 + 3.0 * a2 + a3, 4.0 * a1 + a2 + 3.0 * a3,
            a1 + 1e-12, 0.5 * (1.0 + a1 - a4), end,
        ))
    return np.array(rows, dtype=float).reshape(len(ps), len(_T3Constants._fields)).T


def _t3_values(r1: np.ndarray, sign: np.ndarray, c: _T3Constants) -> tuple[np.ndarray, ...]:
    """The reduction f(r1) and its candidate (r2, r3, r4, y).

    f(r1) = ell - z (r1 - a1)(r2 - r3)^2
                 / [y (d - y) z^2 - 2 r1 r4 (r1 - a1)(r2 + r3)]

    Returns (f, r2, r3, r4, y); f is nan unless gamma >= 0, r2, r3 > 0,
    s > z (so y^2 < r2 r3) and the denominator is not zero. Each r1 is a
    grid point or a midpoint of two, >= lo = a1 + 1e-12, so r1 > a1 and
    r4 > 0. r1, sign (+1 or -1, the branch of the (r2, r3) quadratic) and
    the columns c broadcast, one state per entry of r1: the root grid
    passes B windows as r1 (B, W) with sign (2, 1, 1), one block per
    branch, the bisection and the root filters r1 and sign (K,), one per
    bracket. r4 and y take the shape of r1, the rest the common shape.
    """
    r4 = r1 - c.a1_minus_a4
    w = r1 * r4
    y = np.sqrt(w)
    gamma = c.d16 * y - c.r1_slope * r1 + c.gamma0
    root = np.sqrt(np.where(gamma > 0.0, gamma, 0.0))
    r2 = 0.25 * (c.r2_base - 4.0 * r1 + sign * root)
    r3 = 0.25 * (c.r3_base - 4.0 * r1 - sign * root)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = r2 - r3
        s = r2 + r3
        z = np.sqrt(u * u + 4.0 * w)
        den = y * (c.d - y) * z * z - 2.0 * w * (r1 - c.a1) * s
        ok = (gamma >= 0.0) & (r2 > 0.0) & (r3 > 0.0) & (s > z) & (den != 0.0)
        ell = np.log((s + z) / np.where(ok, s - z, np.nan))
        f = ell - z * (r1 - c.a1) * u * u / np.where(ok, den, np.nan)
    return f, r2, r3, r4, y


def _t3_equation(r1: np.ndarray, sign: np.ndarray, c: _T3Constants) -> np.ndarray:
    """f(r1) of _t3_values: the one reduction the root grid and the bisection value."""
    return _t3_values(r1, sign, c)[0]


def _splits(a, b, tol: Tolerances):
    """Whether halving still narrows [a, b]; false for a nan end.

    Besides a width above root_bisect_tol this needs the midpoint strictly
    inside, which two neighbouring doubles lack. a and b may be arrays.
    """
    mid = 0.5 * (a + b)
    return (b - a > tol.root_bisect_tol) & (a < mid) & (mid < b)


def _bisect_t3(
    a: np.ndarray, b: np.ndarray, fa: np.ndarray, sign: np.ndarray,
    table: np.ndarray, tol: Tolerances,
) -> np.ndarray:
    """Halve every sign-change bracket [a, b] of the reduction together.

    Each step keeps the left half when fa * f(mid) <= 0 and the right half
    otherwise. A bracket stops once _splits is false, and its root is its
    midpoint. A nan value at a midpoint stops the bracket and makes its
    root nan. table holds the _t3_table column of each bracket's state.
    One _t3_equation call per level values the midpoints of all active
    brackets, each with its own sign and state.
    """
    a, b, fa = (np.array(v, dtype=float) for v in (a, b, fa))
    active = np.arange(len(a))
    while (active := active[_splits(a[active], b[active], tol)]).size:
        lo, hi, f_lo = a[active], b[active], fa[active]
        mid = 0.5 * (lo + hi)
        f = _t3_equation(mid, sign[active], _T3Constants(*table[:, active]))
        # Python floats multiply 0 * inf and overflow without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            left = f_lo * f <= 0.0
        # a nan at mid fails the test above; a nan end then stops the bracket
        a[active] = np.where(left, lo, np.where(np.isnan(f), np.nan, mid))
        b[active] = np.where(left, mid, hi)
        fa[active] = np.where(left, f_lo, f)
    return 0.5 * (a + b)


# one array pass of _t3_grid values at most GRID_BLOCK_POINTS reduction points, both
# signs counted, or one window (17 to 20 windows on the baseline line)
GRID_BLOCK_POINTS = 16000


def _t3_grid(table: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """The sign-change brackets (a, b, fa, sign, owner) of every state's root grid.

    table is the _t3_table of the states, one column per state; owner is
    the state of each bracket. A state's grid, with both sign branches on
    it, is linspace(lo, hi, n) on its lo and hi, n = root_grid_points:
    j * step + lo with step = (hi - lo) / (n - 1), and hi at j = n - 1. On
    a row with hi > lo, hi - lo >= ulp(1e-12), so step is never zero and
    linspace does not take its denormal path. A bracket is a cell of one
    grid row with finite values at both ends and a sign change or a zero at
    its left end; a zero-width bracket [r, r] is not bisected and returns
    its root r. The brackets come out by state, then sign +1 before -1,
    then r1 ascending.

    A state's window is grid indices 0 to floor((end - lo) / step) + 1, the
    first point past end (for the rounding of end and of gamma), and the
    reduction is valued there only, one _t3_equation call per (2, B, W)
    block. No bracket is lost: f is nan where gamma = 16 d sqrt(r1 r4)
    - k r1 + gamma0 < 0 (k = r1_slope), which is past end. gamma is concave,
    as sqrt(r1 r4) is, and at r1 = a1 it is 16 sqrt(a1 a4)(d - sqrt(a1 a4))
    + (a2 - a3)^2 > 0 on an entangled state, so its feasible r1 are a
    prefix of the row, up to its one root above a1. Squared, the root
    solves (k^2 - 256 d^2) r1^2 - 2 (k gamma0 - 128 d^2 (a1 - a4)) r1
    + gamma0^2 = 0 with k r1 >= gamma0, and is its larger root: the other
    has k r1 <= gamma0. _t3_table forms it in t = r1 - max(a1 - a4, 0),
    where no term is negative, so nothing cancels where the roots agree to
    many digits. r1 r4 = t (t + |a1 - a4|) there. When k^2 <= 256 d^2,
    which only d inside the coherence slack reaches, gamma never decreases
    and end = inf.
    """
    n = tol.root_grid_points
    c = _T3Constants(*table)
    spanned = np.flatnonzero((c.hi > c.lo) & (n > 1))
    span = _T3Constants(*table[:, spanned])
    last = np.minimum(np.floor((span.end - span.lo) / ((span.hi - span.lo) / (n - 1))) + 1, n - 1)
    # rows: state and last grid index of each window of two points or more; widest first
    windows = np.array([spanned[last >= 1], last[last >= 1]], dtype=int)
    windows = windows[:, np.argsort(-windows[1])]
    signs = np.array([1.0, -1.0])[:, None, None]
    found = [(np.empty(0),) * 4 + (np.empty(0, dtype=int),)]
    while windows.size:  # one pass each
        width = windows[1, 0] + 1
        count = max(1, GRID_BLOCK_POINTS // (2 * width))
        (states, last_index), windows = windows[:, :count], windows[:, count:]
        # windows are padded with their last point, which makes no cell
        index = np.minimum(np.arange(width), last_index[:, None])
        s = _T3Constants(*table[:, states, None])
        r1 = np.where(index == n - 1, s.hi, index * ((s.hi - s.lo) / (n - 1)) + s.lo)
        f = _t3_equation(r1, signs, s)
        finite = np.isfinite(f)
        both = (index[:, 1:] > index[:, :-1]) & finite[..., :-1] & finite[..., 1:]
        # values at points that make no cell may multiply to inf or 0 * inf
        with np.errstate(invalid="ignore", over="ignore"):
            change = both & (f[..., :-1] * f[..., 1:] < 0.0)
        rows, k, j = np.nonzero(change | (both & (f[..., :-1] == 0.0)))
        b = np.where(change[rows, k, j], r1[k, j + 1], r1[k, j])
        found.append((r1[k, j], b, f[rows, k, j], signs[rows, 0, 0], states[k]))
    a, b, fa, sign, owner = (np.concatenate(parts) for parts in zip(*found))
    # sign-major within a pass; r1 stays ascending per state and sign
    order = np.argsort(2 * owner + (sign < 0.0), kind="stable")
    return a[order], b[order], fa[order], sign[order], owner[order]


def _t3_result(
    p: XStateParams, kept: list[list[float]], brackets: int, tol: Tolerances
) -> ReeResult:
    """Score one state's filtered roots; the least REE wins.

    kept holds (r1, r2, r3, r4, y) of each of the state's roots that passed
    the root filters of _solve_theorem3_many, in bracket order; brackets
    counts all the state's brackets.
    """
    accepted: list[ReeResult] = []
    for r1, r2, r3, r4, y in kept:
        css = css_solution(r1, r2, r3, r4, y, p.phi, _multiplier(r1, r4, p.a1))
        scored = _scored(p, css, BRANCH_THEOREM3, tol)
        if scored.branch == BRANCH_FAILURE or not scored.residual_max <= tol.residual_validation:
            continue
        accepted.append(scored)
    if not accepted:  # so every bracket was rejected
        return ReeResult(
            None,
            None,
            BRANCH_FAILURE,
            None,
            f"no valid root of the one-variable reduction over "
            f"{tol.root_grid_points} grid points per sign branch "
            f"({brackets} brackets, {brackets} rejected)",
        )
    accepted.sort(key=lambda result: result.ree)
    if len(accepted) == 1:
        return accepted[0]
    others = ", ".join(f"{result.ree:.6g}" for result in accepted[1:])
    note = f"{len(accepted)} validated roots; kept minimal REE (others: {others})"
    return replace(accepted[0], diagnostics=note)


def _solve_theorem3_many(ps: list[XStateParams], tol: Tolerances) -> list[ReeResult]:
    """solve_theorem3 of each theorem3 state, all brackets in one _bisect_t3 call.

    The polished roots of all states then pass one array pass of the root
    filter |f| <= root_value_cap. The cap is finite, so it drops a nan (a
    failed bisection, or a candidate that is infeasible or not PSD) and a
    large value (a pole). The side condition needs no filter: with
    u = r2 - r3, S = u (a2 - r2) + 2 y (d - y) - 2 r2 (r1 - a1) equals
    -u res_c - 2 y res_e, residuals (c) and (e) of css_residuals.
    """
    table = _t3_table(ps)
    a, b, fa, sign, owner = _t3_grid(table, tol)
    columns = table[:, owner]
    roots = _bisect_t3(a, b, fa, sign, columns, tol)
    fval, r2, r3, r4, y = _t3_values(roots, sign, _T3Constants(*columns))
    keep = np.flatnonzero(np.abs(fval) <= tol.root_value_cap)
    rows = np.stack([roots, r2, r3, r4, y], axis=1)[keep].tolist()
    kept: list[list] = [[] for _ in ps]
    for k, row in zip(owner[keep].tolist(), rows):
        kept[k].append(row)
    brackets = np.bincount(owner, minlength=len(ps)).tolist()
    return [_t3_result(p, kept[k], brackets[k], tol) for k, p in enumerate(ps)]


def solve_theorem3(p: XStateParams, tol: Tolerances | None = None) -> ReeResult:
    """General branch: bracketing grid plus bisection on the reduction.

    Both quadratic sign branches for (r2, r3) are scanned over the feasible
    r1 in (a1, (1 + a1 - a4)/2), whose end is in closed form (_t3_grid).
    Every bisected root is validated against the full five coupled
    equations and PSD; when several roots survive, the one with the
    smallest REE wins. No surviving root means no root was found on the
    grid, and the result is ansatz_failure.
    """
    if (branch := _branch_of(p)) != BRANCH_THEOREM3:
        raise WrongBranchError(f"theorem3 does not apply: {p!r} is {branch}")
    return _solve_theorem3_many([p], tol or default_tolerances())[0]


# states per batch of compute_ree_many; bounds its stacked validation
CHUNK = 512


def compute_ree(p: XStateParams, tol: Tolerances | None = None) -> ReeResult:
    """Dispatch on the branch preconditions and validate the result.

    The one-state call of compute_ree_many.
    """
    return compute_ree_many([p], tol)[0]


def compute_ree_many(params, tol: Tolerances | None = None) -> list[ReeResult]:
    """compute_ree of each state, in order.

    Every input must pass the family's validity rule (states._check_state),
    so a directly built XStateParams is checked like one from x_state.
    Separable inputs return REE = 0 with the state as its own CSS. For
    entangled inputs the branch solution is accepted only if the five
    coupled-equation residuals, the edge condition on the partial
    transpose, and the agreement between the parametric REE and the
    spectral relative entropy all pass; otherwise the result is downgraded
    to ansatz_failure with diagnostics.

    The states run CHUNK at a time: the chunk's Theorem 3 states fill one
    _t3_table, their root grids are valued up to the end of each state's
    feasible r1 (_t3_grid), all their brackets are bisected in one
    _bisect_t3 call, and the chunk's validation makes one stacked
    hermitian_eig call. A result does not depend on the other states in
    the list.
    """
    tol = tol or default_tolerances()
    params = list(params)
    for p in params:
        _check_state(p)
    results: list[ReeResult] = []
    for start in range(0, len(params), CHUNK):
        results += _compute_chunk(params[start : start + CHUNK], tol)
    return results


def _compute_chunk(ps: list[XStateParams], tol: Tolerances) -> list[ReeResult]:
    """Dispatch and solve each state of a chunk, then validate the chunk."""
    results: list[ReeResult | None] = []
    general = []
    for p in ps:
        branch = _branch_of(p)
        if branch == BRANCH_SEPARABLE:
            css = css_solution(p.a1, p.a2, p.a3, p.a4, p.d, p.phi, 0.0)
            results.append(ReeResult(0.0, css, BRANCH_SEPARABLE, 0.0))
        elif branch == BRANCH_THEOREM1:
            results.append(solve_theorem1(p, tol))
        elif branch == BRANCH_THEOREM2:
            results.append(solve_theorem2(p, tol))
        else:
            general.append(len(results))
            results.append(None)
    solved = _solve_theorem3_many([ps[i] for i in general], tol) if general else []
    for i, result in zip(general, solved):
        results[i] = result
    return _validated(ps, results, tol)


def _validated(
    ps: list[XStateParams], results: list[ReeResult], tol: Tolerances
) -> list[ReeResult]:
    """The checks after solving, with one hermitian_eig call on a stack.

    Each matrix is built once, by states._family_matrices: rho from the
    state, checked on entry to compute_ree_many, and pi from its CSS,
    checked by css_to_x_params. The stack holds, in input order, PT(pi) of
    each branch solution or PT of each separable state, then each
    solution's rho, then its pi. One _family_matrices call builds it, the
    partial transposes directly, with no partial_transpose call. The edge
    eigenvalue and the spectral relative entropy are read off the stack as
    min_eig_pt and relative_entropy compute them, and the edge eigenvalue
    of an accepted result is kept as its edge_min_eig. The eigenvalues of
    the whole stack and the dual-path weights of every solution are each
    read into Python floats by one tolist().
    """
    transposed: list[XStateParams] = []  # the CSS of each solution or each separable state
    rhos: list[XStateParams] = []  # the state of each solution
    pis: list[XStateParams] = []  # its CSS
    checks = []  # (result, problems, its index in transposed, or None)
    for p, result in zip(ps, results):
        problems: list[str] = []
        slot = None
        if result.branch == BRANCH_SEPARABLE:
            slot = len(transposed)
            transposed.append(p)
        elif result.branch != BRANCH_FAILURE:
            if not result.residual_max <= tol.residual_validation:  # a nan residual fails
                problems.append(f"coupled-equation residual {result.residual_max!r}")
            css = result.css
            if abs(css.y - math.sqrt(css.r1 * css.r4)) > tol.y_edge:
                problems.append(f"edge condition y = sqrt(r1 r4) violated by {css.y!r}")
            try:
                pi = css_to_x_params(css, tol)
            except InvalidStateError as exc:
                problems.append(f"CSS validation error: {exc}")
            else:
                slot = len(transposed)
                transposed.append(pi)
                rhos.append(p)
                pis.append(pi)
        checks.append((result, problems, slot))
    n = len(transposed)
    k = len(rhos)
    if n:
        stack = _family_matrices(transposed + rhos + pis, transposed=n)
        # looked up on the module, so a wrapper set on qmath sees the call
        eig = qmath.hermitian_eig(stack)
        values = eig.values.tolist()
    if k:  # the weights <v_j|rho|v_j> of the eigenvectors v_j of every pi, from one product
        weights = _sigma_weights(eig.vectors[n + k :], stack[n : n + k]).tolist()
    out = []
    j = 0  # the next solution's place in rhos and pis
    for result, problems, slot in checks:
        edge = None if slot is None else values[slot][0]
        if slot is not None and result.branch != BRANCH_SEPARABLE:
            if abs(edge) > tol.edge_validation:
                problems.append(f"partial-transpose edge eigenvalue {edge:.3e}")
            dual = _relative_entropy_weights(values[n + j], values[n + k + j], weights[j])
            j += 1
            if not math.isfinite(dual) or abs(dual - result.ree) > tol.dual_path_validation:
                problems.append(
                    f"parametric REE {result.ree!r} vs spectral {dual!r} disagree"
                )
        if problems:
            if result.diagnostics:
                problems.append(result.diagnostics)
            result = _failed(result.branch, problems, result.residual_max)
        elif slot is not None:
            # built directly: dataclasses.replace is measurably slower per call
            result = ReeResult(
                result.ree, result.css, result.branch, result.residual_max,
                result.diagnostics, edge,
            )
        out.append(result)
    return out


def closed_form_family_ree(family: str, weights) -> float:
    """Reference REE formulas for the three named separable-boundary families.

    bell_diagonal (largest weight on the third Bell state):
        ln 2 - H(l3)
    vp:  H(l1/2 + l2) - H(Lambda),
         Lambda = [1 + sqrt(l1^2 + (l2 - l3)^2)] / 2
    horodecki:
        l1 ln l1 + l2 ln l2 + l3 ln l3 + 2 H(l1/2 + l2) - l1 ln 2
    """
    simplex = default_tolerances().simplex
    weights = tuple(float(w) for w in weights)
    name = family.lower()
    _check_simplex(weights, simplex, name)
    if name not in ("bell_diagonal", "vp", "horodecki"):
        raise InvalidStateError(f"no closed form for family {family!r}")
    arity, matrices = _MIXTURES[name]
    if len(weights) != len(matrices):
        raise InvalidStateError(f"{name} requires {arity}")
    if name == "bell_diagonal":
        l3 = weights[2]
        if l3 < max(weights) - simplex:
            raise InvalidStateError(
                "bell_diagonal closed form requires the third weight to be maximal"
            )
        return math.log(2.0) - binary_entropy(l3)
    l1, l2, l3 = weights
    if name == "vp":
        lam = 0.5 * (1.0 + math.sqrt(l1 * l1 + (l2 - l3) ** 2))
        return binary_entropy(0.5 * l1 + l2) - binary_entropy(min(lam, 1.0))
    return (
        _xlnx(l1) + _xlnx(l2) + _xlnx(l3) + 2.0 * binary_entropy(0.5 * l1 + l2) - l1 * math.log(2.0)
    )
