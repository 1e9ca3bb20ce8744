"""Output checks for the xree benchmark, independent of xree.qmath.

Every returned REE is recomputed as S(rho || pi) from the returned CSS with
numpy.linalg.eigh, and the CSS must sit on the separable boundary (the
smallest eigenvalue of its partial transpose is 0). The named families are
checked against closed forms written here, Rains' state against its known
CSS, and oracle bounds against the benchmark's reference REE.

Each check returns None when the answer is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import math

import numpy as np

REE_TOL = 1e-9
EDGE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10
RAINS_TOL = 1e-9
ORACLE_TOL = 1e-9
RAINS_CSS = (1.0 / 6.0, 55.0 / 144.0, 41.0 / 144.0, 1.0 / 6.0, 1.0 / 6.0)

_EIG_FLOOR = 1e-15
_SUPPORT = 1e-12
_LEAK = 1e-10


def density(a1, a2, a3, a4, d, phi=0.0) -> np.ndarray:
    """The 4x4 family matrix, basis |00>, |01>, |10>, |11>."""
    m = np.diag(np.array([a1, a2, a3, a4], dtype=complex))
    m[1, 2] = d * np.exp(1j * phi)
    m[2, 1] = np.conj(m[1, 2])
    return m


def partial_transpose(m: np.ndarray) -> np.ndarray:
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def min_eig_pt(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(m))[0])


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr(rho ln rho - rho ln sigma) in nats; +inf if rho leaks off sigma's support."""
    lam = np.linalg.eigvalsh(rho)
    own = sum(v * math.log(v) for v in lam if v > _EIG_FLOOR)
    mu, vecs = np.linalg.eigh(sigma)
    weights = np.real(np.einsum("ij,ik,kj->j", vecs.conj(), rho, vecs))
    cross = 0.0
    for m, w in zip(mu, weights):
        if m < _SUPPORT:
            if w >= _LEAK:
                return math.inf
        else:
            cross += w * math.log(m)
    return float(own - cross)


def binary_entropy(p: float) -> float:
    return -sum(v * math.log(v) for v in (p, 1.0 - p) if v > 0.0)


def closed_form_ree(family: str, weights) -> float:
    """Reference REE of the named families whose CSS has a closed form.

    vp(l1, l2, l3):        H(l1/2 + l2) - H((1 + sqrt(l1^2 + (l2 - l3)^2)) / 2)
    horodecki(l1, l2, l3): sum l ln l + 2 H(l1/2 + l2) - l1 ln 2
    bell_diagonal(..., l3 maximal): ln 2 - H(l3)
    """
    if family == "vp":
        l1, l2, l3 = weights
        top = 0.5 * (1.0 + math.sqrt(l1 * l1 + (l2 - l3) ** 2))
        return binary_entropy(0.5 * l1 + l2) - binary_entropy(top)
    if family == "horodecki":
        l1, l2, l3 = weights
        own = sum(v * math.log(v) for v in weights if v > 0.0)
        return own + 2.0 * binary_entropy(0.5 * l1 + l2) - l1 * math.log(2.0)
    if family == "bell_diagonal":
        return math.log(2.0) - binary_entropy(weights[2])
    raise ValueError(f"no closed form for {family!r}")


def check_answer(case, branch: str, ree, css) -> str | None:
    """Check one compute answer for `case` (an inputs.Case).

    css is (r1, r2, r3, r4, y, phi) or None. An ansatz_failure answer is
    valid exactly when the case expects one.
    """
    if branch != case.expect:
        return f"{case.label}: branch {branch!r}, expected {case.expect!r}"
    if branch == "ansatz_failure":
        return None if ree is None else f"{case.label}: ansatz_failure carries an REE"
    if ree is None or css is None:
        return f"{case.label}: branch {branch} without REE or CSS"
    rho = density(*case.params)
    if branch == "separable":
        if ree != 0.0:
            return f"{case.label}: separable state with REE {ree!r}"
        edge = min_eig_pt(rho)
        return None if edge >= -EDGE_TOL else f"{case.label}: labelled separable, PT eigenvalue {edge:.3e}"
    r1, r2, r3, r4, y, phi = css
    pi = density(r1, r2, r3, r4, y, phi)
    low = float(np.linalg.eigvalsh(pi)[0])
    if low < -EDGE_TOL or abs(r1 + r2 + r3 + r4 - 1.0) > EDGE_TOL:
        return f"{case.label}: CSS is not a state (min eigenvalue {low:.3e})"
    edge = min_eig_pt(pi)
    if abs(edge) > EDGE_TOL:
        return f"{case.label}: CSS partial-transpose eigenvalue {edge:.3e}, expected 0"
    recomputed = relative_entropy(rho, pi)
    if not abs(recomputed - ree) <= REE_TOL:
        return f"{case.label}: REE {ree!r} but S(rho||pi) = {recomputed!r}"
    if case.family in ("vp", "horodecki", "bell_diagonal"):
        want = closed_form_ree(case.family, case.weights)
        if not abs(want - ree) <= CLOSED_FORM_TOL:
            return f"{case.label}: REE {ree!r}, closed form {want!r}"
    if case.family == "rains":
        got = (r1, r2, r3, r4, y)
        if max(abs(a - b) for a, b in zip(got, RAINS_CSS)) > RAINS_TOL:
            return f"{case.label}: CSS {got!r}, expected {RAINS_CSS!r}"
    return None


def check_oracle(case, bound: float, sigma: np.ndarray, reference: float) -> str | None:
    """Check one oracle bound against the reference REE of `case`.

    sigma must be a PPT (hence, for two qubits, separable) state whose
    relative entropy is the reported bound, and the bound may not undercut
    the reference REE.
    """
    bound, reference = float(bound), float(reference)
    sigma = np.asarray(sigma, dtype=complex)
    low = float(np.linalg.eigvalsh(sigma)[0])
    if low < -ORACLE_TOL or abs(np.trace(sigma).real - 1.0) > ORACLE_TOL:
        return f"{case.label}: oracle sigma is not a state (min eigenvalue {low:.3e})"
    edge = min_eig_pt(sigma)
    if edge < -ORACLE_TOL:
        return f"{case.label}: oracle sigma is entangled (PT eigenvalue {edge:.3e})"
    recomputed = relative_entropy(density(*case.params), sigma)
    if not abs(recomputed - bound) <= ORACLE_TOL:
        return f"{case.label}: oracle bound {bound!r} but S(rho||sigma) = {recomputed!r}"
    if bound < reference - ORACLE_TOL:
        return f"{case.label}: oracle bound {bound!r} below the reference REE {reference!r}"
    return None
